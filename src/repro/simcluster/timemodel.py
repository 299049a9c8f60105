"""The time model: data volumes -> simulated seconds.

All of the paper's strategy trade-offs are driven by a handful of
physical constants (Table 1): inter-node bandwidth ``BW``, the DFS
store-and-retrieve cost per byte ``f``, the lookup-cache probe time
``T_cache``, and each index's service time ``T_j``. This module owns the
first three plus CPU costs; index service times live with the indices
themselves.

Defaults are calibrated to the paper's hardware (Section 5.1):

* 1 Gbps Ethernet             -> ``BW = 125 MB/s``
* 7200 rpm SAS disk           -> ``disk_bandwidth = 100 MB/s``
* DFS replication factor 3    -> ``f`` charges 3 writes + 1 read
* in-memory LRU probe         -> ``T_cache = 2 us``
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.units import MB, US


@dataclass(frozen=True)
class TimeModel:
    """Physical constants of the simulated environment.

    Immutable so a single instance can be shared by the cluster, the
    optimizer's cost formulas, and the benchmarks without aliasing bugs.
    """

    network_bandwidth: float = 125 * MB
    """Point-to-point bandwidth between two nodes, bytes/second (``BW``)."""

    disk_bandwidth: float = 100 * MB
    """Sequential local-disk bandwidth, bytes/second."""

    dfs_replication: int = 3
    """DFS replication factor; inflates the store part of ``f``."""

    cache_probe_time: float = 2 * US
    """``T_cache``: one probe of the node-local lookup cache."""

    cpu_per_record: float = 1.5 * US
    """CPU time to deserialize + run user code on one record."""

    cpu_per_byte: float = 0.002 * US
    """CPU time proportional to record size (parsing, copying)."""

    sort_cpu_per_record: float = 0.8 * US
    """Amortised per-record cost of the shuffle sort/merge."""

    task_startup_time: float = 0.15
    """JVM-style fixed cost of launching one map or reduce task."""

    job_startup_time: float = 3.0
    """Fixed cost of submitting a MapReduce job (scheduling, setup)."""

    network_latency: float = 0.0
    """Per-message round-trip latency added to every *remote* index
    lookup (on top of bandwidth-proportional transfer). Zero by default;
    experiments on congested clusters set it to model the per-request
    cost that the index-locality strategy eliminates."""

    lookup_bandwidth: float = 20 * MB
    """Effective per-request throughput of a remote index lookup.

    A single request/response exchange does not saturate the link: it
    pays serialization, one TCP stream's share, and the index server's
    send path. The paper's Figure 12 measures ~1.05 ms at 1 KB growing
    to ~2.5 ms at 30 KB -- an effective ~20 MB/s, far below the 1 Gbps
    link. Bulk transfers (shuffle, DFS) still use ``network_bandwidth``.
    """

    # ------------------------------------------------------------------
    # Derived helpers
    # ------------------------------------------------------------------
    @property
    def dfs_cost_per_byte(self) -> float:
        """``f`` in Table 1: average cost of storing *and* retrieving one
        byte through the distributed file system.

        Storing writes one local replica and ships ``replication - 1``
        copies over the network; retrieving reads one replica.
        """
        store = 1.0 / self.disk_bandwidth + (
            (self.dfs_replication - 1) / self.network_bandwidth
        )
        retrieve = 1.0 / self.disk_bandwidth
        return store + retrieve

    def transfer_time(self, nbytes: float) -> float:
        """Time to move ``nbytes`` between two nodes over the network."""
        return nbytes / self.network_bandwidth

    def disk_read_time(self, nbytes: float) -> float:
        return nbytes / self.disk_bandwidth

    def disk_write_time(self, nbytes: float) -> float:
        return nbytes / self.disk_bandwidth

    def dfs_store_time(self, nbytes: float) -> float:
        """Write ``nbytes`` to the DFS (replication included)."""
        return nbytes * (
            1.0 / self.disk_bandwidth
            + (self.dfs_replication - 1) / self.network_bandwidth
        )

    def dfs_retrieve_time(self, nbytes: float, local: bool = True) -> float:
        """Read ``nbytes`` back from the DFS.

        A non-local read adds one network hop, which is how data-locality
        scheduling pays off in the simulation.
        """
        t = nbytes / self.disk_bandwidth
        if not local:
            t += nbytes / self.network_bandwidth
        return t

    def cpu_time(self, nrecords: int, nbytes: float = 0.0) -> float:
        """CPU cost of pushing ``nrecords`` totalling ``nbytes`` through
        one stage of user code."""
        return nrecords * self.cpu_per_record + nbytes * self.cpu_per_byte

    def remote_lookup_time(
        self, key_bytes: float, value_bytes: float, service_time: float
    ) -> float:
        """Cost of one remote index lookup: ``(Sik + Siv)/BW + T_j``
        (Equation 1's inner term) at the per-request effective
        throughput, plus the per-message latency. A native multiget is
        one message: its summed bytes and ``C_req + B*C_key``."""
        return (
            (key_bytes + value_bytes) / self.lookup_bandwidth
            + service_time
            + self.network_latency
        )

    def local_lookup_time(self, service_time: float) -> float:
        """Cost of one index lookup served on the same node: ``T_j`` only
        (the index-locality strategy's pay-off, Equation 4)."""
        return service_time

    def straggled(self, duration: float, factor: float) -> float:
        """Scale one task's duration by its node's straggler factor
        (the fault layer's slow-node model; 1.0 = a healthy node)."""
        if factor <= 0:
            raise ValueError("straggler factor must be positive")
        return duration * factor
