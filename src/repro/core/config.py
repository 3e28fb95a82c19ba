"""Configuration dataclasses for the collective-I/O engines.

Two engines, two configs:

* :class:`TwoPhaseConfig` — ROMIO-style baseline: fixed aggregator set
  (one process per node by default), even file-domain split, fixed
  collective-buffer size, memory-oblivious.
* :class:`MCIOConfig` — memory-conscious collective I/O: the paper's four
  tuning parameters (``msg_group``, ``msg_ind``, ``mem_min``, ``nah``)
  plus the same nominal buffer size the evaluation sweeps.

``shuffle_granularity`` trades simulation fidelity for event count:

* ``"round"`` sends one shuffle message per (rank, aggregator, round)
  like the real protocol — the reference fidelity level;
* ``"batched"`` keeps the lockstep round structure and every byte of
  traffic, but aggregates each round's shuffle into one wire transfer
  per (source node, aggregator) pair with a closed-form serialization
  model (``latency x n_messages`` up front, then the summed bytes) —
  same data delivered, far fewer simulation events.  When fault
  machinery is engaged (mid-run failover enabled, or hosts already
  failed) execution silently falls back to the per-message ``"round"``
  path so degraded-mode behaviour stays exact;
* ``"domain"`` batches a rank's traffic to an aggregator into one
  message per file domain and charges the extra per-round latency
  analytically — required to simulate 1000+ rank runs in reasonable
  time, at the cost of under-charging synchronisation stalls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Optional

from repro.cluster.spec import MIB

__all__ = [
    "TwoPhaseConfig",
    "MCIOConfig",
    "ExecutionMode",
    "PlacementPolicy",
    "ShuffleGranularity",
]

ShuffleGranularity = Literal["round", "batched", "domain"]
PlacementPolicy = Literal["remerge", "borrow", "hybrid"]
ExecutionMode = Literal["per-rank", "vectorized", "auto", "sharded"]


def _check_common(cb_buffer_size: int, shuffle_granularity: str) -> None:
    if cb_buffer_size < 1:
        raise ValueError("cb_buffer_size must be >= 1")
    if shuffle_granularity not in ("round", "batched", "domain"):
        raise ValueError(f"bad shuffle_granularity {shuffle_granularity!r}")


@dataclass(frozen=True)
class TwoPhaseConfig:
    """ROMIO two-phase collective I/O parameters.

    Parameters
    ----------
    cb_buffer_size:
        Collective (aggregation) buffer per aggregator, bytes.  ROMIO
        default is 16 MB; the paper sweeps 2-128 MB.
    cb_nodes:
        Number of aggregators; ``None`` = ROMIO default of exactly one
        process per node.
    stripe_align:
        Align file-domain boundaries down to stripe boundaries, avoiding
        two aggregators splitting one stripe (lock contention in Lustre).
    shuffle_granularity:
        See module docstring.
    intra_node_aggregation:
        Opt-in leader-coalesced shuffle: one leader rank per (node, file
        domain, window) collects its co-located ranks' window slices
        over the memory bus and ships them to the aggregator as a single
        wire message, cutting per-round inter-node messages from
        O(ranks touching the window) to O(nodes touching the window).
        Ignored at ``"domain"`` granularity, and execution falls back to
        the exact per-message path whenever fault machinery is engaged
        (same rule as ``"batched"``).
    """

    cb_buffer_size: int = 16 * MIB
    cb_nodes: Optional[int] = None
    stripe_align: bool = True
    shuffle_granularity: ShuffleGranularity = "round"
    intra_node_aggregation: bool = False

    def __post_init__(self) -> None:
        _check_common(self.cb_buffer_size, self.shuffle_granularity)
        if self.cb_nodes is not None and self.cb_nodes < 1:
            raise ValueError("cb_nodes must be >= 1")


@dataclass(frozen=True)
class MCIOConfig:
    """Memory-conscious collective I/O parameters (paper §3).

    Parameters
    ----------
    msg_group:
        Optimal aggregation-group message size: target bytes of file
        region per aggregation group (``Msg_group``).
    msg_ind:
        Optimal per-aggregator message size: the partition tree bisects a
        group's file region until each leaf carries at most this many
        requested bytes (``Msg_ind``).
    mem_min:
        Minimum memory a host must have available to serve as an
        aggregator host at full performance (``Mem_min``).
    nah:
        Maximum aggregators hosted by one physical node (``N_ah``).
    cb_buffer_size:
        Nominal aggregation buffer per aggregator, bytes — the quantity
        the paper's evaluation sweeps.  The effective buffer of a domain
        is ``min(cb_buffer_size, domain bytes)``.
    stripe_align:
        Align bisection cuts to stripe boundaries.
    allow_paged_fallback:
        If no host in a group can satisfy the memory requirement even
        after remerging, place the aggregator on the best host anyway
        (marked paged).  If False, raise instead.
    memory_oblivious:
        Ablation switch: plan as if every node had its full physical
        memory available (disables the memory-aware part of aggregator
        location while keeping group division and the partition tree).
    adaptive_buffer:
        When even the best candidate host cannot supply the full nominal
        buffer, shrink the aggregation buffer to what the host has
        (paying extra rounds instead of paging).  This is the
        memory-conscious behaviour for workloads whose aggregation group
        lives on a single node, where relocation is impossible.
    min_buffer:
        Smallest buffer the adaptive path accepts; below this the domain
        is remerged (or placed paged as a last resort).
    shuffle_granularity:
        See module docstring.
    failover:
        Degraded-mode execution: when an aggregator's host fails
        mid-operation, re-place the orphaned domains on the next-best
        live hosts between lockstep rounds (``"round"`` granularity
        only).  With no faults injected this is timing-neutral.
    fallback_chain:
        Graceful planning degradation: if MCIO planning raises
        :class:`~repro.core.aggregator_selection.PlacementError`, fall
        back to a ROMIO-style even plan on the live hosts, and to
        independent I/O if no live aggregator host exists, instead of
        crashing the collective.  The tier actually used is recorded in
        :attr:`~repro.core.metrics.CollectiveStats.degraded_tier`.
    plan_cache:
        Opt-in reusable collective plans: key each finished plan by a
        deterministic signature of (access patterns, config, live-node
        set, memory-state bucket digest) and reuse it — partition
        trees, placement, and the compiled round schedule included — when a
        later collective presents the same signature.  Invalidated when
        a node's available memory crosses a remerge-relevant bucket, on
        any fault-injector event (wire with
        :meth:`~repro.core.mcio.MemoryConsciousCollectiveIO.watch_faults`),
        and after any mid-run aggregator failover.  Hit/miss/invalidation
        counters surface in :class:`~repro.core.metrics.CollectiveStats`.
        Reuse never changes simulated time — planning costs host CPU
        only — so fault-free traces stay bit-identical.
    intra_node_aggregation:
        Opt-in leader-coalesced shuffle: one leader rank per (node, file
        domain, window) collects its co-located ranks' window slices
        over the memory bus (leader staging memory is charged against
        the node's available memory) and ships them to the aggregator
        as a single wire message per (node, domain, window) — per-round
        inter-node messages drop from O(ranks touching the window) to
        O(nodes touching the window).  Ignored at ``"domain"``
        granularity; falls back to the exact per-message path whenever
        fault machinery is engaged (same rule as ``"batched"``), which
        includes ``failover=True``.
    placement_policy:
        What to do when a leaf's candidate hosts cannot supply the
        nominal buffer (the point where the paper remerges):

        * ``"remerge"`` — the paper's behaviour, fold the leaf back into
          its sibling (default; bit-identical to the pre-borrow engine);
        * ``"borrow"`` — lease aggregation-buffer capacity on a
          memory-rich remote node instead (DOLMA-style remote memory);
          buffer staging then crosses the fabric at α–β cost.  If no
          lender qualifies the leaf is *not* remerged — it degrades to
          the paged/error path;
        * ``"hybrid"`` — try to borrow first, remerge when no lender
          qualifies.
    lease_term:
        Sim-seconds a granted lease stays valid before it must be
        renewed; the borrower renews at every round boundary once less
        than half the term remains.
    lease_retry_limit:
        Grant attempts beyond the first before the borrower gives up
        and the collective degrades (acquisition under contention).
    lease_backoff_base / lease_backoff_cap:
        Exponential backoff between grant retries:
        ``min(cap, base * 2**attempt)`` sim-seconds.
    lend_headroom:
        Bytes of uncommitted memory a lender must retain *beyond* the
        leased amount, protecting the lender's own workload.
    execution_mode:
        How collectives are simulated (DESIGN.md §11):

        * ``"per-rank"`` — every rank is a DES coroutine; the reference
          fidelity level and the default (bit-identical to prior
          releases);
        * ``"vectorized"`` / ``"auto"`` — co-located ranks are folded
          into one node-level process carrying numpy-backed per-rank
          accounting.  The planner still *refuses* vectorization per
          collective whenever faults, borrow leases, failed hosts, or a
          live data plane demand per-rank behaviour, falling back to
          per-rank coroutines and counting the refusal in
          :attr:`~repro.core.metrics.CollectiveStats.vectorized_refusals`.
          Both spellings behave identically today; ``"auto"`` documents
          intent ("vectorize when safe") for callers that never want a
          hard requirement.
        * ``"sharded"`` — independent aggregation groups are partitioned
          across worker *processes* (DESIGN.md §12), each running the
          per-rank reference on a sub-Environment, with deterministic
          stats/timeline merging.  Refuses per collective (counting the
          refusal in
          :attr:`~repro.core.metrics.CollectiveStats.sharding_refusals`)
          whenever the plan yields fewer than two groups, a node hosts
          domains from several groups, or faults/leases/data-plane
          demand a single per-rank simulation.
    """

    msg_group: int = 256 * MIB
    msg_ind: int = 32 * MIB
    mem_min: int = 32 * MIB
    nah: int = 2
    cb_buffer_size: int = 16 * MIB
    stripe_align: bool = True
    allow_paged_fallback: bool = True
    memory_oblivious: bool = False
    adaptive_buffer: bool = True
    min_buffer: int = 1 * MIB
    shuffle_granularity: ShuffleGranularity = "round"
    failover: bool = True
    fallback_chain: bool = True
    plan_cache: bool = False
    intra_node_aggregation: bool = False
    placement_policy: PlacementPolicy = "remerge"
    lease_term: float = 1.0
    lease_retry_limit: int = 4
    lease_backoff_base: float = 1e-4
    lease_backoff_cap: float = 5e-3
    lend_headroom: int = 0
    execution_mode: ExecutionMode = "per-rank"

    def __post_init__(self) -> None:
        _check_common(self.cb_buffer_size, self.shuffle_granularity)
        if self.msg_group < 1:
            raise ValueError("msg_group must be >= 1")
        if self.msg_ind < 1:
            raise ValueError("msg_ind must be >= 1")
        if self.msg_ind > self.msg_group:
            raise ValueError("msg_ind cannot exceed msg_group")
        if self.mem_min < 0:
            raise ValueError("mem_min must be >= 0")
        if self.nah < 1:
            raise ValueError("nah must be >= 1")
        if self.min_buffer < 1:
            raise ValueError("min_buffer must be >= 1")
        if self.placement_policy not in ("remerge", "borrow", "hybrid"):
            raise ValueError(f"bad placement_policy {self.placement_policy!r}")
        if self.lease_term <= 0:
            raise ValueError("lease_term must be > 0")
        if self.lease_retry_limit < 0:
            raise ValueError("lease_retry_limit must be >= 0")
        if self.lease_backoff_base <= 0 or self.lease_backoff_cap <= 0:
            raise ValueError("lease backoff parameters must be > 0")
        if self.lease_backoff_cap < self.lease_backoff_base:
            raise ValueError("lease_backoff_cap must be >= lease_backoff_base")
        if self.lend_headroom < 0:
            raise ValueError("lend_headroom must be >= 0")
        if self.execution_mode not in (
            "per-rank", "vectorized", "auto", "sharded"
        ):
            raise ValueError(f"bad execution_mode {self.execution_mode!r}")
