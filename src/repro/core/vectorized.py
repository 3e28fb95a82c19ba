"""Node-level vectorized collective execution (DESIGN.md §11).

The per-rank engine simulates every rank as its own coroutine; at
10^5–10^6 ranks the event count alone makes a sweep intractable.  This
driver runs one whole collective from a *single* simulation process,
carrying per-rank accounting in numpy arrays and charging node-to-node
traffic through the same :class:`~repro.cluster.network.Network`
batched-transfer arithmetic the per-rank path uses for aggregated
shuffles.

Equivalence contract
--------------------
For any fault-free, lease-free, metadata-only collective the vectorized
driver produces a :class:`~repro.core.metrics.CollectiveStats` whose
deterministic accounting fields (bytes, rounds, aggregators, shuffle
locality split, tiers, groups — everything except ``elapsed``, the
plan-cache counters and the execution-mode fields themselves) are
*identical* to the per-rank reference, and feeds the byte-conservation
auditor the same attempt/extent stream.  ``tests/sim`` pins this with a
differential harness; simulated time is pinned separately by the
vectorized golden traces.

When the planner refuses
------------------------
Per-rank coroutines are retained wherever genuinely per-rank behaviour
could diverge.  :func:`run_vectorized_collective` refuses and falls
back to the reference path (counting the refusal in
``CollectiveStats.vectorized_refusals``) when:

* a data plane is attached (payload bytes must really move),
* any watched fault injector carries a non-empty schedule,
* a node is currently failed (degraded-mode timing is per-rank),
* remote-memory leases are outstanding, or the fresh plan itself
  contains lender-backed domains (the borrow protocol is control flow
  between rank coroutines),
* the plan degraded all the way to the independent tier (uncoordinated
  per-rank I/O has no node-level form).

``config.failover = True`` alone does **not** refuse: with no failed
host the per-rank failover check adds no events, so the fault-free
schedule is unchanged — exactly the regime vectorization targets.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.engine import _round_extent, _union_extents
from repro.core.filedomain import rounds_for
from repro.core.metrics import CollectiveStats
from repro.core.pattern_array import PatternArray
from repro.core.request import AccessPattern

__all__ = ["run_vectorized_collective", "vectorization_refusal"]


def vectorization_refusal(engine, payloads=None) -> Optional[str]:
    """Why this collective cannot vectorize right now, or None.

    Pre-plan checks only; the post-plan checks (independent tier,
    lender-backed domains) live in :func:`run_vectorized_collective`
    because they need the plan.
    """
    if engine.pfs.datastore is not None or payloads is not None:
        return "data-plane"
    if any(len(inj.schedule) > 0 for inj in engine._fault_injectors):
        return "fault-schedule"
    if engine.comm.cluster.failed_hosts:
        return "failed-nodes"
    if engine.comm.cluster.memory_ledger.outstanding > 0:
        return "active-leases"
    return None


def _per_rank_fallback(
    engine, patterns, op: str, reason: str, payloads=None
) -> CollectiveStats:
    """Run the reference per-rank path, tagging the refusal on its stats."""
    engine._pending_vec_refusal = reason

    def main(ctx):
        fn = engine.write if op == "write" else engine.read
        payload = payloads[ctx.rank] if payloads is not None else None
        return (yield from fn(ctx, patterns[ctx.rank], payload))

    engine.comm.run_spmd(main)
    return engine.history[-1]


def _meta_allgather_time(comm, patterns) -> float:
    """Time of the pattern-metadata allgather, as the per-rank path charges it."""
    size = comm.size
    hops = max(1, (size - 1).bit_length()) if size > 1 else 0
    if isinstance(patterns, PatternArray):
        max_seg = patterns.max_segment_count
    else:
        max_seg = max(p.segment_count for p in patterns)
    nbytes_max = 32 * (1 + max_seg)
    latency = comm.cluster.spec.node.nic_latency
    return hops * (latency + nbytes_max / comm.metadata_bandwidth)


def _collective_time(comm, nbytes_max: int) -> float:
    """Generic collective metadata charge (allgathers, barriers)."""
    size = comm.size
    hops = max(1, (size - 1).bit_length()) if size > 1 else 0
    latency = comm.cluster.spec.node.nic_latency
    return hops * (latency + nbytes_max / comm.metadata_bandwidth)


def _window_node_traffic(patterns, plan, placement_arr, did, t, window):
    """``[(node_id, [per-rank bytes])]`` of the window's senders, by node.

    Node ids ascend; sizes inside a node follow rank order — the same
    per-message sequence the per-rank path would emit, grouped by the
    sender's host.
    """
    lo, hi = window.offset, window.end
    if isinstance(patterns, PatternArray):
        idx = patterns.senders_in(lo, hi)
        if idx.size == 0:
            return []
        sizes = patterns.bytes_in_many(idx, lo, hi)
        nodes = placement_arr[idx]
        out = []
        for node_id in np.unique(nodes).tolist():
            out.append((node_id, sizes[nodes == node_id].tolist()))
        return out
    senders = plan.schedule(patterns).senders[did][t]
    if not senders:
        return []
    by_node: dict[int, list[int]] = {}
    for r in senders:
        by_node.setdefault(int(placement_arr[r]), []).append(
            patterns[r].bytes_in(lo, hi)
        )
    return sorted(by_node.items())


def _window_union(patterns, plan, did, t, window):
    """Union of the window senders' requested extents (I/O piece list)."""
    if isinstance(patterns, PatternArray):
        idx = patterns.senders_in(window.offset, window.end)
        return patterns.union_extents(idx, window.offset, window.end)
    senders = plan.schedule(patterns).senders[did][t]
    return _union_extents(patterns, senders, window)


def run_vectorized_collective(
    engine,
    patterns: Sequence[AccessPattern],
    op: str,
    payloads=None,
) -> CollectiveStats:
    """Run one collective through the node-level vectorized driver.

    Parameters
    ----------
    engine:
        A :class:`~repro.core.mcio.MemoryConsciousCollectiveIO` (or any
        engine exposing its planning surface).
    patterns:
        All ranks' file views — a :class:`~repro.core.pattern_array.
        PatternArray` for array-speed planning, or any sequence of
        :class:`~repro.core.request.AccessPattern`.
    op:
        ``"write"`` or ``"read"``.
    payloads:
        Optional per-rank data buffers.  Real payload bytes force the
        per-rank path (refusal ``"data-plane"``); the argument exists so
        callers need not branch on the refusal themselves.

    Returns
    -------
    CollectiveStats
        The finalized stats, also appended to ``engine.history``.  When
        vectorization is refused the stats come from the per-rank
        fallback and carry the refusal count/reason.
    """
    if op not in ("write", "read"):
        raise ValueError(f"op must be 'write' or 'read', got {op!r}")
    comm, pfs = engine.comm, engine.pfs
    if len(patterns) != comm.size:
        raise ValueError("patterns length must equal communicator size")

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
        return _per_rank_fallback(engine, patterns, op, "independent-tier", payloads)
    if any(d.lender_node is not None for d in plan.domains):
        return _per_rank_fallback(engine, patterns, op, "lender-domains", payloads)

    seq = engine._advance_seq()
    stats = engine._make_collector(op, plan, tier, reason_txt, cached)
    stats.record_execution_mode("vectorized")

    env = comm.env
    network = comm.cluster.network
    nodes = comm.cluster.nodes
    n_ranks = comm.size
    placement_arr = np.asarray(comm.placement, dtype=np.int64)
    meta_t = _meta_allgather_time(comm, patterns)
    mem_t = _collective_time(comm, 16)
    barrier_t = _collective_time(comm, 0)
    tracer = env.tracer

    def _write_window(did, t, window, agg_node, paged, paged_wire):
        traffic = _window_node_traffic(patterns, plan, placement_arr, did, t, window)
        received = 0
        for node_id, sizes in traffic:
            nbytes = sum(sizes)
            stats.record_shuffle_bulk(nbytes, same_node=node_id == agg_node.node_id)
            yield from network.batched_transfer(
                nodes[node_id], agg_node, sizes, paged_dst=paged_wire
            )
            received += nbytes
        if received == 0:
            return
        yield from agg_node.memcopy(received, paged=paged)
        for piece in _window_union(patterns, plan, did, t, window):
            yield from pfs.write_extent(agg_node, piece, None)
            stats.record_bytes(piece.length)
            stats.record_io_extent(piece.offset, piece.length)

    def _read_window(did, t, window, agg_node, paged, paged_wire):
        traffic = _window_node_traffic(patterns, plan, placement_arr, did, t, window)
        if not traffic:
            return
        total_read = 0
        for piece in _window_union(patterns, plan, did, t, window):
            yield from pfs.read_extent(agg_node, piece)
            total_read += piece.length
            stats.record_bytes(piece.length)
            stats.record_io_extent(piece.offset, piece.length)
        if total_read == 0:
            return
        yield from agg_node.memcopy(total_read, paged=paged)
        for node_id, sizes in traffic:
            stats.record_shuffle_bulk(
                sum(sizes), same_node=node_id == agg_node.node_id
            )
            yield from network.batched_transfer(
                agg_node, nodes[node_id], sizes, paged_dst=paged
            )

    def _driver():
        # the two planning allgathers (pattern metadata, memory state)
        yield env.sleep(meta_t)
        yield env.sleep(mem_t)
        stats.mark_start(env.now)
        stats.record_attempts(n_ranks)
        if tracer.enabled:
            tracer.begin(
                "collective", f"collective.{op}", 0, 0,
                strategy=stats.strategy, seq=seq, granularity="vectorized",
            )
        allocs = []
        paged_flags: dict[int, bool] = {}
        paged_wire: dict[int, bool] = {}
        try:
            # aggregation buffers commit in (rank, domain) order — the
            # same global sequence the per-rank SPMD launch produces
            order = sorted(
                range(len(plan.domains)),
                key=lambda d: (plan.domains[d].aggregator_rank, d),
            )
            for did in order:
                domain = plan.domains[did]
                agg_node = nodes[comm.placement[domain.aggregator_rank]]
                alloc = agg_node.memory.alloc(
                    domain.buffer_bytes, label=f"cb.{seq}.{did}"
                )
                allocs.append((agg_node, alloc))
                paged = alloc.paged or domain.paged
                paged_flags[did] = paged
                overcommit = max(
                    0, agg_node.memory.committed - agg_node.memory.available
                )
                stats.record_aggregator(
                    domain.aggregator_rank, domain.buffer_bytes, paged, overcommit
                )
                stats.record_rounds(
                    rounds_for(domain.extent.length, domain.buffer_bytes)
                )
            for did, domain in enumerate(plan.domains):
                agg_node = nodes[comm.placement[domain.aggregator_rank]]
                paged_wire[did] = domain.paged or agg_node.memory.overcommitted

            run_window = _write_window if op == "write" else _read_window
            for t in range(plan.ntimes):
                procs = []
                for did, domain in enumerate(plan.domains):
                    window = _round_extent(domain, t)
                    if window is None:
                        continue
                    agg_node = nodes[comm.placement[domain.aggregator_rank]]
                    procs.append(
                        env.process(
                            run_window(
                                did, t, window, agg_node,
                                paged_flags[did], paged_wire[did],
                            ),
                            name=f"vec.d{did}.r{t}",
                        )
                    )
                if procs:
                    yield env.all_of(procs)
                # the per-round lockstep barrier
                yield env.sleep(barrier_t)
        finally:
            for agg_node, alloc in allocs:
                agg_node.memory.free(alloc)
            if tracer.enabled:
                tracer.end(0, 0)
        # the collective's closing barrier
        yield env.sleep(barrier_t)
        stats.mark_end(env.now)

    driver = env.process(_driver(), name="vectorized.driver")
    env.run(until=driver)
    stats.extra["finishers"] = n_ranks
    final = stats.finalize()
    engine.history.append(final)
    return final
