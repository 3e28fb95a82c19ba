"""Instrumentation for collective-I/O runs.

A :class:`StatsCollector` is threaded through an engine run; after the run
it folds into a :class:`CollectiveStats` summary carrying exactly the
quantities the paper argues about:

* end-to-end time and effective bandwidth;
* per-aggregator buffer memory (peak, mean, variance across aggregators) —
  the "memory pressure" and "memory variance" claims;
* paged aggregator count — how often aggregation buffers spilled;
* shuffle traffic split intra-node / inter-node / inter-group — MCIO's
  invariant is zero inter-group bytes;
* round and request counts.

Each :class:`CollectiveStats` field is declared once, with its shard-merge
rule, its JSON codec and the value a fresh collector starts from;
serialization, :meth:`CollectiveStats.merge` and
:meth:`StatsCollector.finalize` all walk that declaration.
"""

from __future__ import annotations

from dataclasses import MISSING, Field, dataclass, field, fields
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = ["StatsCollector", "CollectiveStats"]

#: JSON-safe scalar types kept when serializing ``extra`` (runtime objects
#: like partition trees are dropped, matching the persistence contract).
_SCALARS = (int, float, str, bool)


# ----------------------------------------------------------------------
# merge rules: fold one field's per-shard values into the collective's
# ----------------------------------------------------------------------
def _agree(name: str, values: list):
    """Identity fields: every shard must carry the same value."""
    first = values[0]
    for other in values[1:]:
        if other != first:
            raise ValueError(f"shards disagree on {name}: {first!r} != {other!r}")
    return first


def _sum(name: str, values: list):
    """Counters: shards run disjoint domain subsets, so counts add."""
    return sum(values)


def _max(name: str, values: list):
    """Peaks and monotone views keep the largest value seen.

    Per-rank maps merge per rank: an aggregator serving domains in two
    shards keeps its peak, not the sum.
    """
    if not isinstance(values[0], dict):
        return max(values)
    merged: dict = {}
    for per_rank in values:
        for rank, v in per_rank.items():
            merged[rank] = max(merged.get(rank, 0), v)
    return merged


def _union(name: str, values: list):
    """Free-form maps: later shards' keys win."""
    merged: dict = {}
    for v in values:
        merged.update(v)
    return merged


def _uniform(name: str, values: list):
    """The shared value, or ``"mixed"`` when shards differ."""
    distinct = set(values)
    return distinct.pop() if len(distinct) == 1 else "mixed"


def _aggregator_count(values: dict) -> int:
    return len(values["agg_buffer_bytes"])


def _aggregator_ranks(values: dict) -> tuple:
    return tuple(sorted(values["agg_buffer_bytes"]))


# ----------------------------------------------------------------------
# JSON codecs: (encode, decode) pairs; JSON object keys are strings
# ----------------------------------------------------------------------
def _same(v):
    return v


def _rank_keys_to_json(d: dict) -> dict:
    return {str(k): v for k, v in d.items()}


def _rank_keys_from_json(d: dict) -> dict:
    return {int(k): v for k, v in d.items()}


def _scalars_only(d: dict) -> dict:
    return {k: v for k, v in d.items() if isinstance(v, _SCALARS)}


_RANK_KEYS = (_rank_keys_to_json, _rank_keys_from_json)
_RANK_TUPLE = (list, tuple)
_SCALAR_MAP = (_scalars_only, dict)

#: ``zero`` marker: start from the dataclass default.
_FROM_DEFAULT = object()


def _stat(
    merge: Optional[Callable] = None,
    *,
    derive: Optional[Callable[[dict], object]] = None,
    zero=_FROM_DEFAULT,
    json: tuple = (_same, _same),
    load_default: Optional[Callable[[], object]] = None,
    **kwargs,
) -> Field:
    """Declare one :class:`CollectiveStats` field.

    * `merge` folds the per-shard values (``(name, values) -> value``);
    * `derive` instead computes the field from the other fields, both
      when merging and when a collector finalizes;
    * `zero` is a factory for the value a fresh :class:`StatsCollector`
      starts accumulating from — by default the dataclass default, and
      ``None`` for fields the collector does not accumulate;
    * `json` is the ``(encode, decode)`` pair for :meth:`to_json` /
      :meth:`from_json`;
    * `load_default` fills a required field missing from an older
      document.

    `kwargs` go to :func:`dataclasses.field` (``default`` etc.).
    """
    if zero is _FROM_DEFAULT:
        if "default_factory" in kwargs:
            zero = kwargs["default_factory"]
        elif "default" in kwargs:
            zero = lambda default=kwargs["default"]: default
        else:
            zero = None
    return field(
        metadata={
            "merge": merge,
            "derive": derive,
            "zero": zero,
            "json": json,
            "load_default": load_default,
        },
        **kwargs,
    )


@dataclass
class CollectiveStats:
    """Summary of one collective read or write operation."""

    strategy: str = _stat(_agree)
    op: str = _stat(_agree)
    total_bytes: int = _stat(_sum, zero=int)
    #: sim-time: shards run concurrently on one simulated machine, so the
    #: collective takes as long as its slowest shard
    elapsed: float = _stat(_max)
    n_ranks: int = _stat(_agree)
    n_aggregators: int = _stat(derive=_aggregator_count)
    aggregator_ranks: tuple[int, ...] = _stat(
        derive=_aggregator_ranks, json=_RANK_TUPLE
    )
    #: peak aggregation-buffer bytes per aggregator rank
    agg_buffer_bytes: dict[int, int] = _stat(_max, zero=dict, json=_RANK_KEYS)
    #: bytes by which each aggregator's host memory was overcommitted at
    #: buffer-allocation time (0 for healthy placements)
    agg_overcommit_bytes: dict[int, int] = _stat(
        _max, zero=dict, json=_RANK_KEYS, load_default=dict
    )
    #: the collector keeps the set of paged ranks; the summary their count
    paged_aggregators: int = _stat(_sum, zero=set)
    rounds_total: int = _stat(_sum, zero=int)
    shuffle_intra_node_bytes: int = _stat(_sum, zero=int)
    shuffle_inter_node_bytes: int = _stat(_sum, zero=int)
    shuffle_inter_group_bytes: int = _stat(_sum, zero=int)
    n_groups: int = _stat(_sum, default=1)
    extra: dict = _stat(_union, default_factory=dict, json=_SCALAR_MAP)
    #: Which tier actually served the collective when the primary planner
    #: could not: None = the strategy's own plan, else "two-phase" or
    #: "independent" (the graceful-degradation chain).
    degraded_tier: Optional[str] = _stat(_agree, default=None)
    #: PFS client retries / abandoned requests during this operation
    #: (read off the file system, not accumulated by the collector).
    io_retries: int = _stat(_sum, default=0, zero=None)
    io_abandons: int = _stat(_sum, default=0, zero=None)
    #: Aggregator failovers performed mid-operation (failed host replaced).
    failovers: int = _stat(_sum, default=0)
    #: True when this collective reused a cached plan instead of running
    #: the planning pipeline (always False with the cache disabled).
    plan_cached: bool = _stat(_max, default=False)
    #: Cumulative plan-cache counters of the owning engine as of this
    #: operation (monotone across an engine's history).
    plan_cache_hits: int = _stat(_max, default=0)
    plan_cache_misses: int = _stat(_max, default=0)
    plan_cache_invalidations: int = _stat(_max, default=0)
    #: Partition-tree data-size evaluations performed while planning this
    #: collective (0 on a cache hit — the work a reused plan avoided).
    planning_tree_queries: int = _stat(_max, default=0)
    #: Remote-memory lease lifecycle counts for this collective
    #: (borrowed aggregation buffers; all zero outside borrow placements).
    leases_granted: int = _stat(_sum, default=0)
    leases_renewed: int = _stat(_sum, default=0)
    leases_revoked: int = _stat(_sum, default=0)
    leases_expired: int = _stat(_sum, default=0)
    #: Bytes staged to / fetched from leased remote buffers over the fabric.
    borrow_bytes: int = _stat(_sum, default=0)
    #: Mid-collective borrow aborts that degraded the run back to remerge.
    borrow_fallbacks: int = _stat(_sum, default=0)
    #: Intra-node leader bundles degraded to per-rank sends because the
    #: leader's node failed between election and ship.
    ina_fallbacks: int = _stat(_sum, default=0)
    #: How this collective was simulated: ``"per-rank"`` coroutines (the
    #: reference) or the node-level ``"vectorized"`` path (DESIGN.md §11).
    execution_mode: str = _stat(_uniform, default="per-rank")
    #: Times vectorization was requested but refused for this collective
    #: (faults/borrow/failover demanded per-rank behaviour); the refusal
    #: reason lands in ``extra["vectorized_refusal"]``.
    vectorized_refusals: int = _stat(_sum, default=0)
    #: Times group-sharded execution was requested but refused for this
    #: collective (single group, shared aggregator hosts, faults, leases,
    #: a live data plane — see DESIGN.md §12); the refusal reason lands
    #: in ``extra["sharding_refusal"]``.
    sharding_refusals: int = _stat(_sum, default=0)

    @property
    def bandwidth(self) -> float:
        """Effective bytes/second of the collective operation."""
        return self.total_bytes / self.elapsed if self.elapsed > 0 else 0.0

    @property
    def bandwidth_mib(self) -> float:
        """Effective MiB/second (the unit the paper's figures use)."""
        return self.bandwidth / (1024.0**2)

    @property
    def agg_memory_mean(self) -> float:
        """Mean aggregation-buffer bytes across aggregators."""
        if not self.agg_buffer_bytes:
            return 0.0
        return float(np.mean(list(self.agg_buffer_bytes.values())))

    @property
    def agg_memory_std(self) -> float:
        """Std-dev of aggregation-buffer bytes across aggregators.

        The paper's "variance among processes" claim: MCIO should show a
        smaller spread than the baseline under heterogeneous memory.
        """
        if not self.agg_buffer_bytes:
            return 0.0
        return float(np.std(list(self.agg_buffer_bytes.values())))

    @property
    def agg_memory_peak(self) -> int:
        """Largest aggregation buffer any aggregator held."""
        if not self.agg_buffer_bytes:
            return 0
        return max(self.agg_buffer_bytes.values())

    @property
    def overcommit_mean(self) -> float:
        """Mean host-memory overcommit across aggregators (bytes).

        This is the paper's "memory pressure": how far aggregation
        buffers spilled past what their hosts actually had.
        """
        if not self.agg_overcommit_bytes:
            return 0.0
        return float(np.mean(list(self.agg_overcommit_bytes.values())))

    @property
    def overcommit_std(self) -> float:
        """Spread of host-memory overcommit across aggregators.

        The paper's "variance among processes" claim: memory-conscious
        placement should flatten this to ~zero.
        """
        if not self.agg_overcommit_bytes:
            return 0.0
        return float(np.std(list(self.agg_overcommit_bytes.values())))

    @property
    def overcommit_peak(self) -> int:
        """Worst single-aggregator overcommit (bytes)."""
        if not self.agg_overcommit_bytes:
            return 0
        return max(self.agg_overcommit_bytes.values())

    @property
    def tier(self) -> str:
        """The tier that served the collective ("mcio", "two-phase", ...)."""
        return self.degraded_tier if self.degraded_tier else self.strategy

    def summary(self) -> str:
        """One-line human-readable digest."""
        degraded = (
            f", degraded->{self.degraded_tier}" if self.degraded_tier else ""
        )
        resilience = ""
        if self.io_retries or self.failovers or self.io_abandons:
            resilience = (
                f", {self.io_retries} retries, {self.failovers} failovers"
            )
        return (
            f"{self.strategy} {self.op}: {self.bandwidth_mib:8.1f} MiB/s  "
            f"({self.total_bytes / 1024 / 1024:.0f} MiB in {self.elapsed:.3f} s, "
            f"{self.n_aggregators} aggs, {self.paged_aggregators} paged, "
            f"{self.rounds_total} rounds{degraded}{resilience})"
        )

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_json(self) -> dict:
        """Serialize to plain JSON types (the one canonical encoding).

        Keys follow field order.  Dict keys become strings (JSON
        objects), tuples become lists and ``extra`` is filtered to scalar
        values — runtime objects stashed there (trees, plans) are not
        representable and are dropped.
        """
        return {
            f.name: f.metadata["json"][0](getattr(self, f.name)) for f in _FIELDS
        }

    @classmethod
    def from_json(cls, d: dict) -> "CollectiveStats":
        """Rebuild from :meth:`to_json` output.

        Fields missing from `d` (older files) fall back to the dataclass
        defaults, or to a field's declared load default, so documents
        written before a field existed still load.  A missing required
        field raises ``KeyError``.
        """
        values = {}
        for f in _FIELDS:
            if f.name in d:
                values[f.name] = f.metadata["json"][1](d[f.name])
            elif f.metadata["load_default"] is not None:
                values[f.name] = f.metadata["load_default"]()
            elif f.default is MISSING and f.default_factory is MISSING:
                raise KeyError(f.name)
        return cls(**values)

    @classmethod
    def _build(cls, value_of: Callable[[Field], object]) -> "CollectiveStats":
        """Assemble from ``value_of(field)`` for every non-derived field,
        then compute the derived ones from those values."""
        values = {
            f.name: value_of(f) for f in _FIELDS if f.metadata["derive"] is None
        }
        for f in _DERIVED:
            values[f.name] = f.metadata["derive"](values)
        return cls(**values)

    # ------------------------------------------------------------------
    # sharded-execution merge
    # ------------------------------------------------------------------
    @classmethod
    def merge(cls, shards: "Sequence[CollectiveStats]") -> "CollectiveStats":
        """Fold per-shard stats of one collective into a single summary.

        Each field folds by its declared rule, mirroring how a single
        :class:`StatsCollector` would have accumulated the same run:

        * **sum** — counters (bytes, rounds, shuffle split, lease/fault
          events, ``n_groups``): shards execute disjoint domain subsets,
          so their counts are disjoint contributions;
        * **max** — per-rank peaks (``agg_buffer_bytes``,
          ``agg_overcommit_bytes``) merge per rank, sim-time ``elapsed``
          takes the slowest concurrent shard, and the cumulative engine
          counters (``plan_cache*``, ``planning_tree_queries``) the
          furthest view;
        * **agree** — identity fields (strategy, op, rank count, tier);
        * special — ``extra`` unions, ``execution_mode`` is kept when
          uniform, else ``"mixed"``, and the aggregator count and ranks
          derive from the merged buffer map.

        A single-shard merge is the identity.  Raises ``ValueError`` on
        an empty shard list or when shards disagree on an identity field.
        """
        shards = list(shards)
        if not shards:
            raise ValueError("cannot merge an empty shard list")
        return cls._build(
            lambda f: f.metadata["merge"](
                f.name, [getattr(s, f.name) for s in shards]
            )
        )


_FIELDS: tuple[Field, ...] = fields(CollectiveStats)
_DERIVED = tuple(f for f in _FIELDS if f.metadata["derive"] is not None)
#: Fields a :class:`StatsCollector` holds as plain attributes from birth.
_ACCUMULATED = tuple(f for f in _FIELDS if f.metadata["zero"] is not None)


def _snapshot(value):
    """A collector attribute as the summary records it: containers are
    copied, and a set of ranks becomes its count."""
    if isinstance(value, set):
        return len(value)
    if isinstance(value, dict):
        return dict(value)
    return value


class StatsCollector:
    """Mutable accumulator shared by all rank processes during one run.

    Every :class:`CollectiveStats` field the collector accumulates is a
    plain attribute of the same name, starting from the field's declared
    zero; ``paged_aggregators`` is the set of paged ranks.  ``elapsed``
    and the file-system retry counts are computed views, and
    :meth:`finalize` folds all of them through the field declaration.

    Counters and peaks store the exact integers they are given — the
    golden-trace suite compares collective summaries bit-for-bit.
    """

    def __init__(self, strategy: str, op: str, n_ranks: int):
        self.strategy = strategy
        self.op = op
        self.n_ranks = n_ranks
        for f in _ACCUMULATED:
            setattr(self, f.name, f.metadata["zero"]())
        self.start_time: Optional[float] = None
        self.end_time: Optional[float] = None
        self._pfs = None
        self._pfs_retries0 = 0
        self._pfs_abandons0 = 0
        #: Per-(op_seq, round) frozen failed-node sets: the first rank to
        #: reach a round pins the snapshot all ranks of that round use,
        #: keeping per-rank degradation decisions consistent even when a
        #: node fails "between" two ranks' turns at the same sim instant.
        self._round_failed: dict = {}
        #: Optional :class:`~repro.core.audit.ConservationAuditor`; when
        #: set, engines report attempts and I/O extents through it.
        self.auditor = None

    @property
    def elapsed(self) -> float:
        """Span from the earliest rank entry to the latest rank exit."""
        return self.end_time - self.start_time

    @property
    def io_retries(self) -> int:
        """File-system retries since :meth:`attach_pfs`."""
        return self._pfs.io_retries - self._pfs_retries0 if self._pfs else 0

    @property
    def io_abandons(self) -> int:
        """File-system abandoned requests since :meth:`attach_pfs`."""
        return self._pfs.io_abandons - self._pfs_abandons0 if self._pfs else 0

    # ------------------------------------------------------------------
    def mark_start(self, now: float) -> None:
        """Record the earliest entry time across ranks."""
        if self.start_time is None or now < self.start_time:
            self.start_time = now

    def mark_end(self, now: float) -> None:
        """Record the latest exit time across ranks."""
        if self.end_time is None or now > self.end_time:
            self.end_time = now

    def record_aggregator(
        self, rank: int, buffer_bytes: int, paged: bool, overcommit_bytes: int = 0
    ) -> None:
        """Register an aggregator's buffer commitment (peak, not last)."""
        for peaks, value in (
            (self.agg_buffer_bytes, buffer_bytes),
            (self.agg_overcommit_bytes, int(overcommit_bytes)),
        ):
            if rank not in peaks or value > peaks[rank]:
                peaks[rank] = value
        if paged:
            self.paged_aggregators.add(rank)

    def record_shuffle(
        self, nbytes: int, same_node: bool, same_group: bool = True
    ) -> None:
        """Account shuffle traffic: one message, or a node group's bulk."""
        if same_node:
            self.shuffle_intra_node_bytes += nbytes
        else:
            self.shuffle_inter_node_bytes += nbytes
        if not same_group:
            self.shuffle_inter_group_bytes += nbytes

    def record_rounds(self, rounds: int) -> None:
        """Add an aggregator's executed round count."""
        self.rounds_total += rounds

    def record_bytes(self, nbytes: int) -> None:
        """Add bytes moved to/from the file system."""
        self.total_bytes += nbytes

    def set_tier(self, tier: Optional[str]) -> None:
        """Record the degradation tier that served the collective."""
        self.degraded_tier = tier

    def record_failover(self, count: int = 1) -> None:
        """Count aggregator failovers performed during the run."""
        self.failovers += count

    def record_plan_cache(
        self, cached: bool, cache_stats=None, tree_queries: int = 0
    ) -> None:
        """Record how planning was served (cache hit vs fresh pipeline)."""
        self.plan_cached = cached
        self.planning_tree_queries = int(tree_queries)
        if cache_stats is not None:
            self.plan_cache_hits = cache_stats.hits
            self.plan_cache_misses = cache_stats.misses
            self.plan_cache_invalidations = cache_stats.invalidations

    def record_lease(self, event: str) -> None:
        """Count one lease lifecycle event (granted/renewed/...)."""
        name = f"leases_{event}"
        setattr(self, name, getattr(self, name) + 1)

    def record_borrow_bytes(self, nbytes: int) -> None:
        """Add bytes moved to/from a leased remote buffer."""
        self.borrow_bytes += nbytes

    def record_borrow_fallback(self) -> None:
        """Count one mid-collective borrow abort (degrade to remerge)."""
        self.borrow_fallbacks += 1

    def record_ina_fallback(self) -> None:
        """Count one leader bundle degraded to per-rank sends."""
        self.ina_fallbacks += 1

    def record_execution_mode(self, mode: str) -> None:
        """Record which execution path served this collective."""
        self.execution_mode = mode

    def record_vectorized_refusal(self, reason: str) -> None:
        """Count a refused vectorization and keep the why in ``extra``."""
        self.vectorized_refusals += 1
        self.extra["vectorized_refusal"] = reason

    def record_sharding_refusal(self, reason: str) -> None:
        """Count a refused group sharding and keep the why in ``extra``."""
        self.sharding_refusals += 1
        self.extra["sharding_refusal"] = reason

    def record_attempts(self, n: int) -> None:
        """Bulk form of :meth:`record_attempt` for node-level execution.

        The vectorized driver enters one execution attempt on behalf of
        all ``n`` ranks at once; the auditor's per-``n_ranks`` snapshot
        arithmetic must see the same call count as the per-rank path.
        """
        if self.auditor is None:
            return
        for _ in range(n):
            self.auditor.on_attempt(self)

    def failed_nodes_snapshot(self, key, cluster) -> frozenset:
        """Failed-node set pinned by the first caller for `key`.

        All ranks of one (op, round) share the snapshot the earliest
        arriver took, so the degradation decision is identical across
        ranks even if the fault injector flips a node between two ranks'
        turns at the same sim instant.
        """
        snap = self._round_failed.get(key)
        if snap is None:
            snap = self._round_failed[key] = frozenset(
                node.node_id for node in cluster.nodes if node.failed
            )
        return snap

    def record_attempt(self) -> None:
        """Notify the auditor a rank entered an execution attempt."""
        if self.auditor is not None:
            self.auditor.on_attempt(self)

    def record_io_extent(self, offset: int, length: int) -> None:
        """Report one file-system extent touched (auditor bookkeeping)."""
        if self.auditor is not None:
            self.auditor.on_io_extent(self, offset, length)

    def attach_pfs(self, pfs) -> None:
        """Snapshot the file system's retry counters at operation start.

        :meth:`finalize` reports the *delta* accumulated while this
        operation ran.  Concurrent operations on the same file system
        each see the union of retries in their window.
        """
        if self._pfs is None:
            self._pfs = pfs
            self._pfs_retries0 = pfs.io_retries
            self._pfs_abandons0 = pfs.io_abandons

    # ------------------------------------------------------------------
    def finalize(self) -> CollectiveStats:
        """Fold into an immutable summary."""
        if self.start_time is None or self.end_time is None:
            raise RuntimeError("run was never marked started/ended")
        final = CollectiveStats._build(lambda f: _snapshot(getattr(self, f.name)))
        if self.auditor is not None:
            self.auditor.on_finalize(self, final)
        return final
