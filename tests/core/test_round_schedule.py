"""The compiled round schedule and the array window union vs brute force.

The engine lowers each :class:`~repro.core.engine.ExecutionPlan` once
into a :class:`~repro.core.engine.RoundSchedule` and merges window
unions with array code.  These properties pin both against the scans
they replaced:

* every window, window sender list and per-rank spawn order equals a
  scan over all domains with ``_round_extent`` + ``bytes_in`` — also
  across a mid-run failover that moves an aggregator;
* every union equals ``coalesce_extents`` over the expanded blocks,
  including the ``_UNION_BLOCK_LIMIT`` covering-extent fallback.
"""

from types import SimpleNamespace
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

import repro.core.engine as engine_mod
from repro.core import MCIOConfig, MemoryConsciousCollectiveIO
from repro.core.engine import (
    ExecutionPlan,
    _round_extent,
    _round_slots,
    _RunContext,
    _union_extents,
)
from repro.core.filedomain import FileDomain, rounds_for
from repro.core.pattern_array import union_intervals
from repro.core.request import AccessPattern, Extent, StridedSegment, coalesce_extents
from repro.faults import FaultEvent, FaultInjector, FaultSchedule
from repro.mpi import SimFile, contiguous_view

from tests.helpers import make_stack, rank_payload

KIB = 1024
MIB = 1024 * KIB


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------
@st.composite
def rank_pattern(draw):
    """Ordered, non-overlapping strided segments (gap 0 = touching)."""
    segs = []
    pos = draw(st.integers(0, 300))
    for _ in range(draw(st.integers(0, 4))):
        block = draw(st.integers(1, 40))
        count = draw(st.integers(1, 12))
        # a single block's stride is meaningless: draw anything
        stride = draw(st.integers(block, block + 50) if count > 1 else st.integers(0, 90))
        seg = StridedSegment(pos, block, stride, count)
        segs.append(seg)
        pos = seg.end + draw(st.integers(0, 30))
    return AccessPattern(segs)


@st.composite
def workloads(draw):
    """Per-rank views: independent (overlapping or touching each other)
    or one vector type at chained displacements, the coll_perf shape —
    each rank's blocks start where the previous rank's end; the blocks
    may tile the stride, leave gaps, or overrun it and overlap."""
    n = draw(st.integers(1, 6))
    if draw(st.booleans()):
        return [draw(rank_pattern()) for _ in range(n)]
    blocks = [draw(st.integers(1, 24)) for _ in range(n)]
    stride = draw(st.sampled_from([sum(blocks), max(blocks)])
                  | st.integers(max(blocks), sum(blocks) + 10))
    at = draw(st.integers(0, 100))
    out = []
    for block in blocks:
        count = draw(st.sampled_from([6, draw(st.integers(1, 10))]))
        out.append(AccessPattern((StridedSegment(at, block, stride, count),)))
        at += block
    return out


def reference_union(patterns, senders, window, limit):
    """The clip-and-coalesce union the array union replaced."""
    clips = [patterns[r].clip(window.offset, window.end) for r in senders]
    clips = [q for q in clips if not q.empty]
    if not clips:
        return []
    if sum(q.block_count for q in clips) > limit:
        lo, hi = min(q.start for q in clips), max(q.end for q in clips)
        return [Extent(lo, hi - lo)]
    return coalesce_extents(
        Extent(off, ln) for q in clips for off, ln, _ in q.iter_mapped_extents()
    )


# ---------------------------------------------------------------------------
# window union
# ---------------------------------------------------------------------------
@settings(max_examples=300, deadline=None)
@given(
    patterns=workloads(),
    lo=st.integers(0, 600),
    length=st.integers(1, 400),
    limit=st.sampled_from([1, 3, 8, engine_mod._UNION_BLOCK_LIMIT]),
    data=st.data(),
)
def test_union_matches_coalesced_blocks(patterns, lo, length, limit, data):
    senders = data.draw(st.permutations(range(len(patterns))))
    senders = senders[: data.draw(st.integers(0, len(senders)))]
    window = Extent(lo, length)
    with mock.patch.object(engine_mod, "_UNION_BLOCK_LIMIT", limit):
        got = _union_extents(patterns, senders, window)
    assert got == reference_union(patterns, senders, window, limit)
    for p in patterns:  # O(log n) byte counts agree with the clipped view
        assert p.bytes_in(lo, lo + length) == p.clip(lo, lo + length).nbytes


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 500), st.integers(1, 60)), min_size=1, max_size=40))
def test_union_intervals_matches_coalesce(blocks):
    starts = np.array([s for s, _ in blocks], dtype=np.int64)
    ends = starts + np.array([n for _, n in blocks], dtype=np.int64)
    assert union_intervals(starts, ends) == coalesce_extents(
        Extent(s, n) for s, n in blocks
    )


def test_union_of_single_run_needs_no_arrays():
    pats = [AccessPattern.contiguous(100, 50), AccessPattern.contiguous(150, 10)]
    assert _union_extents(pats, [1, 0], Extent(0, 1000)) == [Extent(100, 60)]
    assert _union_extents(pats, [0], Extent(120, 5)) == [Extent(120, 5)]
    assert _union_extents(pats, [0, 1], Extent(0, 100)) == []


def test_union_fuses_only_trains_that_interleave_exactly():
    """Block trains fuse only at the same stride and count, and only
    while their blocks fit in one stride."""
    cases = [
        # tiles the stride: one run
        [StridedSegment(0, 2, 4, 3), StridedSegment(2, 2, 4, 3)],
        # counts differ: the longer train's tail stays separate
        [StridedSegment(0, 2, 4, 3), StridedSegment(2, 2, 4, 5)],
        # blocks overrun the stride and overlap the next period
        [StridedSegment(0, 3, 4, 2), StridedSegment(3, 3, 4, 2)],
        # strides differ
        [StridedSegment(0, 2, 4, 3), StridedSegment(2, 2, 6, 3)],
    ]
    for segs in cases:
        pats = [AccessPattern((seg,)) for seg in segs]
        for window in (Extent(0, 40), Extent(1, 9), Extent(5, 12)):
            limit = engine_mod._UNION_BLOCK_LIMIT
            assert _union_extents(pats, [0, 1], window) == reference_union(
                pats, [0, 1], window, limit
            ), (segs, window)


# ---------------------------------------------------------------------------
# compiled schedule
# ---------------------------------------------------------------------------
def half_extent(domain, t):
    """The pipelined executor's half-buffer window, or None."""
    w = (domain.buffer_bytes + 1) // 2
    lo = domain.extent.offset + t * w
    if lo >= domain.extent.end:
        return None
    return Extent(lo, min(domain.extent.end, lo + w) - lo)


def brute_slots(run, t, window_of):
    """Spawn order of the former scan over every domain."""
    out = []
    for did, domain in enumerate(run.domains):
        window = window_of(domain, t)
        if window is None:
            continue
        if domain.aggregator_rank == run.ctx.rank:
            out.append((did, 0))
        if run.ctx.rank in run.plan.senders[did] and (
            run.patterns[run.ctx.rank].bytes_in(window.offset, window.end) > 0
        ):
            out.append((did, 1))
    return out


@st.composite
def plans(draw):
    patterns = draw(workloads())
    domains = [
        FileDomain(
            extent=Extent(draw(st.integers(0, 500)), draw(st.integers(1, 300))),
            aggregator_rank=draw(st.integers(0, len(patterns) - 1)),
            buffer_bytes=draw(st.integers(1, 120)),
        )
        for _ in range(draw(st.integers(1, 5)))
    ]
    return patterns, domains


@settings(max_examples=200, deadline=None)
@given(plans())
def test_schedule_matches_domain_scan(case):
    patterns, domains = case
    plan = ExecutionPlan.build(domains, patterns)
    assert plan.senders == tuple(
        tuple(
            r for r, p in enumerate(patterns)
            if p.bytes_in(d.extent.offset, d.extent.end) > 0
        )
        for d in domains
    )
    # a plan rebuilt from its parts (as sharded workers do) compiles alike
    rebuilt = ExecutionPlan(plan.domains, plan.senders)
    for half, window_of in ((False, _round_extent), (True, half_extent)):
        sched = plan.schedule(patterns, half=half)
        assert plan.schedule(patterns, half=half) is sched
        other = rebuilt.schedule(patterns, half=half)
        width = [(d.buffer_bytes + 1) // 2 if half else d.buffer_bytes for d in domains]
        assert sched.ntimes == max(
            rounds_for(d.extent.length, w) for d, w in zip(domains, width)
        )
        for did, domain in enumerate(domains):
            windows = []
            while (w := window_of(domain, len(windows))) is not None:
                windows.append(w)
            assert sched.windows[did] == windows == other.windows[did]
            for t, w in enumerate(windows):
                want = tuple(
                    r for r in plan.senders[did]
                    if patterns[r].bytes_in(w.offset, w.end) > 0
                )
                assert sched.senders[did][t] == want == other.senders[did][t]
        for rank in range(len(patterns)):
            run = _RunContext(
                SimpleNamespace(rank=rank, node=None), None, None, plan,
                patterns, None, "write", 0, None,
            )
            run.sched = sched
            sends = sched.rank_rounds(rank)
            assert sends == other.rank_rounds(rank)
            for t in range(sched.ntimes + 1):
                assert _round_slots(run, t, sends.get(t, ())) == brute_slots(
                    run, t, window_of
                )


def test_failed_host_count_tracks_node_state():
    """The O(1) fault probe: ``Cluster.failed_hosts`` follows
    ``Node.fail``/``Node.recover``, repeated calls included."""
    stack = make_stack()
    nodes, cluster = stack.cluster.nodes, stack.cluster
    assert cluster.failed_hosts == 0
    nodes[0].fail()
    nodes[0].fail(slowdown=4.0)
    nodes[2].fail()
    assert cluster.failed_hosts == 2 == sum(n.failed for n in nodes)
    nodes[0].recover()
    nodes[0].recover()
    nodes[1].recover()
    assert cluster.failed_hosts == 1 == sum(n.failed for n in nodes)


def checked_slots(window_of, seen):
    """`_round_slots`, asserting each call against the domain scan."""

    def slots(run, t, sends):
        got = _round_slots(run, t, sends)
        assert got == brute_slots(run, t, window_of)
        seen.extend(
            (did, run.plan.domains[did].aggregator_rank, run.ctx.rank)
            for did, role in got if role == 0
        )
        return got

    return slots


def test_slots_follow_midrun_failover():
    """An aggregator host dies mid-run: the moved domain's slots follow
    its new aggregator, and every round still spawns in scan order."""
    stack = make_stack(memory_bytes=3 * 10**6)
    engine = MemoryConsciousCollectiveIO(
        stack.comm, stack.pfs,
        MCIOConfig(msg_ind=4 * MIB, mem_min=0, nah=4, cb_buffer_size=64 * KIB,
                   failover=True, fallback_chain=True),
    )
    injector = FaultInjector(
        stack.env, stack.cluster, stack.pfs,
        FaultSchedule([FaultEvent(time=0.05, kind="node_failure", target=0,
                                  magnitude=16.0)]),
    )
    injector.start()
    seen = []
    chunk, nbytes = 64 * KIB, 1 * MIB

    def main(ctx):
        pattern = AccessPattern((StridedSegment(
            ctx.rank * chunk, chunk, stack.comm.size * chunk, nbytes // chunk),))
        yield from engine.write(ctx, pattern, rank_payload(ctx.rank, nbytes))

    with mock.patch.object(
        engine_mod, "_round_slots", checked_slots(_round_extent, seen)
    ):
        stack.run_spmd(main)
    injector.stop()
    assert engine.history[-1].failovers >= 1
    # some aggregator slot ran on a rank the plan did not assign it to
    assert any(planned != rank for _did, planned, rank in seen)


def test_pipelined_slots_follow_midrun_failover():
    """Same contract on the pipelined executor's half-windows, across
    its drain-then-failover degradation."""
    block = 500_000
    stack = make_stack(
        n_ranks=16, n_nodes=16, cores=1,
        nic_bandwidth=1e6, server_bandwidth=1e6, servers=4,
    )
    stack.cluster.set_memory_availability((3_000_000,) * 2 + (100_000,) * 14)
    engine = MemoryConsciousCollectiveIO(
        stack.comm, stack.pfs,
        MCIOConfig(msg_group=10**9, msg_ind=256 * KIB, mem_min=200_000, nah=4,
                   min_buffer=1, cb_buffer_size=64 * KIB, failover=True),
    )
    fh = SimFile.open(stack.comm, engine)
    injector = FaultInjector(
        stack.env, stack.cluster, stack.pfs,
        FaultSchedule([FaultEvent(time=5.0, kind="node_failure", target=0,
                                  duration=None, magnitude=4.0)]),
    )
    injector.start()
    seen = []

    def main(ctx):
        fh.set_view(ctx, contiguous_view(ctx.rank * block, block))
        pc = fh.write_all_init(ctx, overlap=True)
        pc.start(ctx, rank_payload(ctx.rank, block))
        yield from pc.wait(ctx)

    with mock.patch.object(
        engine_mod, "_round_slots", checked_slots(half_extent, seen)
    ):
        stack.run_spmd(main)
    injector.stop()
    stats = engine.history[-1]
    assert "pipeline_drained_at" in stats.extra
    assert stats.failovers >= 1
    assert any(planned != rank for _did, planned, rank in seen)

