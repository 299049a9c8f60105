"""Property tests: :func:`repro.common.sizing.sizeof` agrees with the
plain recursive ``isinstance`` wire-size model on every kind of value,
including the subclasses that the exact-type fast paths must leave to
the fallback (``IntEnum``, namedtuples, ``str`` subclasses, ...)."""

import enum
from collections import OrderedDict, namedtuple
from typing import Any

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import sizing

_CONTAINER_HEADER = 4
_NUMBER_SIZE = 8


def model_sizeof(value: Any) -> int:
    """The original recursive ``isinstance`` model, kept as the oracle."""
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
        return _CONTAINER_HEADER + sum(model_sizeof(item) for item in value)
    if isinstance(value, (set, frozenset)):
        return _CONTAINER_HEADER + sum(model_sizeof(item) for item in value)
    if isinstance(value, dict):
        return _CONTAINER_HEADER + sum(
            model_sizeof(k) + model_sizeof(v) for k, v in value.items()
        )
    wire_size = getattr(value, "wire_size", None)
    if callable(wire_size):
        return int(wire_size())
    return len(repr(value).encode("utf-8"))


class Color(enum.IntEnum):
    RED = 1
    GREEN = 20000


class Count(int):
    pass


class Ratio(float):
    pass


class Label(str):
    pass


class Row(list):
    pass


Point = namedtuple("Point", "x y")


class Blob:
    """Reports its own wire size (possibly a float the model truncates)."""

    def __init__(self, size):
        self.size = size

    def wire_size(self):
        return self.size

    def __hash__(self):
        return hash(self.size)


class Opaque:
    """No wire size: sized by its ``repr``."""

    def __init__(self, text):
        self.text = text

    def __repr__(self):
        return f"Opaque<{self.text}>"

    def __hash__(self):
        return hash(self.text)


class NotCallableSize:
    """A ``wire_size`` attribute that is not a method falls to ``repr``."""

    wire_size = 99

    def __repr__(self):
        return "NotCallableSize()"


hashable_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from(list(Color)),
    st.integers(min_value=-(2**70), max_value=2**70).map(Count),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(allow_nan=False).map(Ratio),
    st.text(alphabet=st.characters(max_codepoint=127), max_size=12),
    st.text(max_size=12),
    st.text(max_size=8).map(Label),
    st.binary(max_size=16),
    st.one_of(
        st.integers(min_value=0, max_value=10**6),
        st.floats(min_value=0, max_value=1e6),
    ).map(Blob),
    st.text(max_size=8).map(Opaque),
    st.just(NotCallableSize()),
)

scalars = st.one_of(hashable_scalars, st.binary(max_size=16).map(bytearray))


def _containers(children):
    hashable_children = st.one_of(
        hashable_scalars,
        st.lists(hashable_scalars, max_size=3).map(tuple),
    )
    return st.one_of(
        st.lists(children, max_size=4).map(tuple),
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(Row),
        st.tuples(children, children).map(lambda xy: Point(*xy)),
        st.sets(hashable_children, max_size=4),
        st.frozensets(hashable_children, max_size=4),
        st.dictionaries(hashable_children, children, max_size=4),
        st.dictionaries(hashable_children, children, max_size=3).map(OrderedDict),
    )


values = st.recursive(scalars, _containers, max_leaves=24)


class TestSizeofMatchesModel:
    @settings(max_examples=400, deadline=None)
    @given(values)
    def test_sizeof(self, value):
        assert sizing.sizeof(value) == model_sizeof(value)

    @settings(deadline=None)
    @given(values, values)
    def test_sizeof_pair(self, key, value):
        assert sizing.sizeof_pair(key, value) == model_sizeof(key) + model_sizeof(
            value
        )

    @settings(deadline=None)
    @given(st.lists(st.tuples(values, values), max_size=6))
    def test_sizeof_records(self, records):
        assert sizing.sizeof_records(records) == sum(
            model_sizeof(k) + model_sizeof(v) for k, v in records
        )
