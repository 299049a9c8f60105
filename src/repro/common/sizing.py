"""Deterministic byte-size estimation for record values.

The simulated cluster charges network and disk time proportional to the
*serialized* size of the data that flows through it. Rather than actually
serializing every record (slow, and irrelevant to the experiments), we
estimate the wire size of plain Python values with a simple recursive
model that is stable across runs and platforms.

The model approximates a compact binary encoding:

* ``int`` / ``float``            -> 8 bytes
* ``bool`` / ``None``            -> 1 byte
* ``str``                        -> UTF-8 length (ASCII fast path: ``len``)
* ``bytes`` / ``bytearray``      -> ``len``
* ``tuple`` / ``list``           -> 4-byte header + elements
* ``dict``                       -> 4-byte header + keys + values
* objects with ``wire_size()``   -> whatever they report

Anything else falls back to the UTF-8 size of ``repr(value)``, so unknown
types degrade gracefully instead of raising mid-job.
"""

from __future__ import annotations

from typing import Any

_CONTAINER_HEADER = 4
_NUMBER_SIZE = 8

#: Fixed sizes of the scalar types, keyed by *exact* type: subclasses
#: (``IntEnum``, ...) miss the table and take the ``isinstance`` chain.
_SCALAR_SIZES = {
    int: _NUMBER_SIZE,
    float: _NUMBER_SIZE,
    bool: 1,
    type(None): 1,
}


def sizeof(value: Any) -> int:
    """Return the estimated serialized size of ``value`` in bytes."""
    # Fast paths on the exact type: records are mostly flat or nested
    # tuples of scalars and strings, so a tuple/list sizes its scalar
    # and ``str`` items inline instead of recursing into each.
    cls = type(value)
    if cls is tuple or cls is list:
        total = _CONTAINER_HEADER
        for item in value:
            item_cls = type(item)
            if item_cls is str:
                total += len(item) if item.isascii() else len(item.encode("utf-8"))
            else:
                size = _SCALAR_SIZES.get(item_cls)
                total += sizeof(item) if size is None else size
        return total
    if cls is str:
        return len(value) if value.isascii() else len(value.encode("utf-8"))
    size = _SCALAR_SIZES.get(cls)
    if size is not None:
        return size
    # Everything else, subclasses included: the general model.
    if value is None or isinstance(value, bool):
        return 1
    if isinstance(value, (int, float)):
        return _NUMBER_SIZE
    if isinstance(value, str):
        if value.isascii():
            return len(value)
        return len(value.encode("utf-8"))
    if isinstance(value, (bytes, bytearray)):
        return len(value)
    if isinstance(value, (tuple, list)):
        return _CONTAINER_HEADER + sum(sizeof(item) for item in value)
    if isinstance(value, (set, frozenset)):
        return _CONTAINER_HEADER + sum(sizeof(item) for item in value)
    if isinstance(value, dict):
        return _CONTAINER_HEADER + sum(
            sizeof(k) + sizeof(v) for k, v in value.items()
        )
    wire_size = getattr(value, "wire_size", None)
    if callable(wire_size):
        return int(wire_size())
    return len(repr(value).encode("utf-8"))


def sizeof_pair(key: Any, value: Any) -> int:
    """Size of a key-value pair as it travels through MapReduce."""
    return sizeof(key) + sizeof(value)


def sizeof_records(records) -> int:
    """Total size of an iterable of ``(key, value)`` pairs."""
    return sum(sizeof_pair(k, v) for k, v in records)
