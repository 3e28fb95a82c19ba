"""Group-sharded process-parallel collective execution (DESIGN.md §12).

The paper's aggregation-group invariant — shuffle traffic never crosses
a group boundary — makes groups embarrassingly parallel: no message, no
I/O extent, and no aggregation buffer is shared between two groups of
one plan.  This driver exploits that: it plans once in the parent,
partitions whole groups across worker processes
(:meth:`~repro.core.engine.ExecutionPlan.partition_groups`), replays
each partition through the unmodified per-rank reference engine on a
fresh sub-Environment, and merges the results deterministically:

* per-shard :class:`~repro.core.metrics.CollectiveStats` fold through
  :meth:`CollectiveStats.merge` (counters sum, gauges max per rank,
  sim-time maxes) and replay into the parent's collector, so the
  attached :class:`~repro.core.audit.ConservationAuditor` sees one
  coherent operation (one attempt per rank, every I/O extent, the full
  shuffle total);
* worker trace timelines ship home as event dicts and concatenate onto
  the parent tracer via :meth:`~repro.obs.Tracer.absorb` — the same
  install-offset contract sweeps already use.

Equivalence contract
--------------------
For any plan this driver accepts, the merged stats equal the per-rank
reference on every deterministic accounting field (the same field set
the vectorized driver pins, ``tests/helpers.EQUIVALENT_FIELDS``).  The
guarantee leans on two structural facts: window sender sets are
computed from the *full* pattern list inside every worker (each worker
runs the whole communicator, with only its shard's domains), and the
``shared-aggregator-host`` refusal below keeps every node's
aggregation-buffer commitment sequence identical to the unsharded run,
so paging and overcommit decisions cannot diverge.  ``elapsed`` is the
max over shards — the collective is as slow as its slowest group chain,
an approximation pinned separately from the per-rank goldens.

Refusals
--------
Like vectorization, sharding *refuses* rather than approximates.  The
per-rank fallback runs instead and the refusal is counted in
``CollectiveStats.sharding_refusals`` with the reason in
``extra["sharding_refusal"]``:

* ``"data-plane"`` — payload bytes must really move (workers cannot
  share a datastore);
* ``"fault-schedule"`` / ``"failed-nodes"`` — degraded-mode timing is
  cross-group (failovers steal hosts from other groups);
* ``"active-leases"`` / ``"lender-domains"`` — the borrow protocol is
  cluster-global control flow;
* ``"independent-tier"`` — the plan degraded to uncoordinated I/O;
* ``"single-group"`` — nothing to shard;
* ``"shared-aggregator-host"`` — a node hosts aggregation buffers of
  more than one group, so its memory-commitment sequence (paging,
  overcommit) would depend on the partitioning.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.engine import ExecutionPlan, execute_collective
from repro.core.filedomain import FileDomain
from repro.core.metrics import CollectiveStats, StatsCollector
from repro.core.request import AccessPattern
from repro.core.vectorized import vectorization_refusal
from repro.parallel.pool import ParallelRunner, resolve_jobs

__all__ = ["run_sharded_collective"]

#: Worker-side trace ring capacity; shard timelines are short-lived
#: (one collective) so this never realistically drops events.
_WORKER_TRACE_CAPACITY = 1 << 16


@dataclass(frozen=True)
class _ShardSpec:
    """Everything one worker needs to replay its partition, picklable.

    Live simulation objects (Environment, Cluster, Tracer — whose clock
    is a closure) never cross the process boundary; the worker rebuilds
    the platform from specs and pinned memory state.
    """

    cluster_spec: object
    placement: tuple[int, ...]
    #: Per-node available memory at plan time, pinned so worker-side
    #: allocation/paging/overcommit decisions replay the parent's state.
    memory_available: tuple[int, ...]
    metadata_bandwidth: float
    retry: object
    strategy: str
    op: str
    op_seq: int
    intra_node_aggregation: bool
    patterns: tuple[AccessPattern, ...]
    domains: tuple[FileDomain, ...]
    senders: tuple[tuple[int, ...], ...]
    n_groups: int
    want_trace: bool


class _ExtentRecorder:
    """Minimal auditor stand-in: captures the worker's I/O extents."""

    __slots__ = ("extents",)

    def __init__(self):
        self.extents: list[tuple[int, int]] = []

    def on_attempt(self, collector) -> None:
        pass

    def on_io_extent(self, collector, offset: int, length: int) -> None:
        self.extents.append((offset, length))


def _run_shard(spec: _ShardSpec) -> dict:
    """Worker entry point: replay one partition on a fresh platform.

    Runs the *full* communicator (every rank) against only the shard's
    domains — non-participant ranks just clear the lockstep barriers,
    touching no counter — so sender sets, shuffle locality, and barrier
    structure match the unsharded run domain-for-domain.  Returns plain
    picklable data: finalized stats, the rank set that paged, the I/O
    extents touched, and (optionally) the trace timeline as dicts.
    """
    from repro.cluster import Cluster
    from repro.mpi import SimComm
    from repro.pfs import ParallelFileSystem
    from repro.sim import Environment, RngFactory

    env = Environment()
    tracer = None
    if spec.want_trace:
        from repro.obs import Tracer

        tracer = Tracer(capacity=_WORKER_TRACE_CAPACITY)
        tracer.install(env)
    cluster = Cluster(env, spec.cluster_spec, RngFactory(0))
    cluster.set_memory_availability(spec.memory_available)
    comm = SimComm(
        env,
        cluster,
        list(spec.placement),
        metadata_bandwidth=spec.metadata_bandwidth,
    )
    pfs = ParallelFileSystem(env, spec.cluster_spec.storage, datastore=None)
    pfs.retry = spec.retry

    plan = ExecutionPlan(spec.domains, spec.senders, n_groups=spec.n_groups)
    collector = StatsCollector(spec.strategy, spec.op, n_ranks=comm.size)
    collector.n_groups = spec.n_groups
    collector.attach_pfs(pfs)
    recorder = _ExtentRecorder()
    collector.auditor = recorder
    patterns = spec.patterns

    def main(ctx):
        yield from execute_collective(
            ctx,
            comm,
            pfs,
            plan,
            patterns,
            collector,
            spec.op,
            spec.op_seq,
            payload=None,
            failover_config=None,
            intra_node_aggregation=spec.intra_node_aggregation,
        )

    comm.run_spmd(main)
    paged_ranks = sorted(collector.paged_aggregators)
    collector.auditor = None
    final = collector.finalize()
    events = (
        [ev.to_dict() for ev in tracer.events()] if tracer is not None else None
    )
    return {
        "stats": final,
        "paged_ranks": paged_ranks,
        "extents": recorder.extents,
        "events": events,
    }


def _per_rank_fallback(
    engine, patterns, op: str, reason: str, payloads=None
) -> CollectiveStats:
    """Run the reference per-rank path, tagging the refusal on its stats."""
    engine._pending_shard_refusal = reason

    def main(ctx):
        fn = engine.write if op == "write" else engine.read
        payload = payloads[ctx.rank] if payloads is not None else None
        return (yield from fn(ctx, patterns[ctx.rank], payload))

    engine.comm.run_spmd(main)
    return engine.history[-1]


def run_sharded_collective(
    engine,
    patterns: Sequence[AccessPattern],
    op: str,
    payloads=None,
    jobs: Optional[int] = None,
    runner: Optional[ParallelRunner] = None,
) -> CollectiveStats:
    """Run one collective with independent groups sharded across workers.

    Parameters
    ----------
    engine:
        A :class:`~repro.core.mcio.MemoryConsciousCollectiveIO`.
    patterns:
        All ranks' file views.
    op:
        ``"write"`` or ``"read"``.
    payloads:
        Optional per-rank data buffers; real payloads force the
        per-rank fallback (refusal ``"data-plane"``).
    jobs:
        Worker process count (``None``/``0`` = one per core, ``1`` =
        run the shards serially in-process — same sharded semantics,
        no fork).  Ignored when `runner` is given.
    runner:
        A shared :class:`~repro.parallel.ParallelRunner` to reuse
        across collectives (amortises pool start-up); the caller owns
        its lifetime.

    Returns
    -------
    CollectiveStats
        The merged (or fallback) stats, also appended to
        ``engine.history``.
    """
    if op not in ("write", "read"):
        raise ValueError(f"op must be 'write' or 'read', got {op!r}")
    comm = engine.comm
    if len(patterns) != comm.size:
        raise ValueError("patterns length must equal communicator size")

    # the fault/lease/data-plane conditions are exactly vectorization's:
    # both drivers require the fault-free, lease-free, metadata-only
    # regime; the checks below this one need the plan
    reason = vectorization_refusal(engine, payloads)
    if reason is not None:
        return _per_rank_fallback(engine, patterns, op, reason, payloads)

    # plan exactly as the per-rank path's first-arriving rank would
    engine.plan_cache.tracer = comm.env.tracer
    memory_available = {
        node_id: comm.cluster.nodes[node_id].memory.free_available
        for node_id in set(comm.placement)
    }
    (plan, tier, reason_txt), cached = engine._plan_or_reuse(
        patterns, memory_available, frozenset()
    )
    if plan is None:
        return _per_rank_fallback(
            engine, patterns, op, "independent-tier", payloads
        )
    if any(d.lender_node is not None for d in plan.domains):
        return _per_rank_fallback(
            engine, patterns, op, "lender-domains", payloads
        )
    if plan.n_groups < 2:
        return _per_rank_fallback(engine, patterns, op, "single-group", payloads)
    host_groups: dict[int, set[int]] = {}
    for d in plan.domains:
        host = comm.placement[d.aggregator_rank]
        host_groups.setdefault(host, set()).add(d.group_id)
    if any(len(gids) > 1 for gids in host_groups.values()):
        return _per_rank_fallback(
            engine, patterns, op, "shared-aggregator-host", payloads
        )

    n_jobs = runner.jobs if runner is not None else resolve_jobs(jobs)
    parts = plan.partition_groups(max(1, n_jobs))

    seq = engine._advance_seq()
    stats = engine._make_collector(op, plan, tier, reason_txt, cached)
    stats.record_execution_mode("sharded")

    tracer = comm.env.tracer
    pattern_list = tuple(patterns[r] for r in range(comm.size))
    avail = tuple(node.memory.available for node in comm.cluster.nodes)
    specs = [
        _ShardSpec(
            cluster_spec=comm.cluster.spec,
            placement=tuple(comm.placement),
            memory_available=avail,
            metadata_bandwidth=comm.metadata_bandwidth,
            retry=engine.pfs.retry,
            strategy=engine.name,
            op=op,
            op_seq=seq,
            intra_node_aggregation=engine.config.intra_node_aggregation,
            patterns=pattern_list,
            domains=tuple(plan.domains[did] for did in part),
            senders=tuple(plan.senders[did] for did in part),
            n_groups=len({plan.domains[did].group_id for did in part}),
            want_trace=bool(tracer.enabled),
        )
        for part in parts
    ]

    own_runner = runner is None
    if own_runner:
        runner = ParallelRunner(jobs=n_jobs)
    try:
        results = runner.map(_run_shard, specs)
    finally:
        if own_runner:
            runner.close()

    merged = CollectiveStats.merge([r["stats"] for r in results])

    # replay the merged accounting into the parent collector so
    # finalize() — and the attached conservation auditor — see one
    # coherent operation, exactly as a single-process run would report it
    stats.mark_start(0.0)
    stats.mark_end(merged.elapsed)
    stats.record_attempts(comm.size)
    if merged.total_bytes:
        stats.record_bytes(merged.total_bytes)
    if merged.rounds_total:
        stats.record_rounds(merged.rounds_total)
    if merged.shuffle_intra_node_bytes:
        stats.record_shuffle(merged.shuffle_intra_node_bytes, same_node=True)
    if merged.shuffle_inter_node_bytes:
        stats.record_shuffle(
            merged.shuffle_inter_node_bytes, same_node=False
        )
    paged = set()
    for r in results:
        paged.update(r["paged_ranks"])
    for rank in sorted(merged.agg_buffer_bytes):
        stats.record_aggregator(
            rank,
            merged.agg_buffer_bytes[rank],
            paged=rank in paged,
            overcommit_bytes=merged.agg_overcommit_bytes.get(rank, 0),
        )
    for r in results:
        for offset, length in r["extents"]:
            stats.record_io_extent(offset, length)
    stats.n_groups = plan.n_groups
    stats.extra["finishers"] = comm.size
    stats.extra["shards"] = len(parts)

    if tracer.enabled:
        for r in results:
            if r["events"]:
                tracer.absorb(r["events"], offset=tracer.max_ts())

    final = stats.finalize()
    engine.history.append(final)
    return final
