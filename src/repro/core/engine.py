"""Shared two-phase execution machinery.

Both collective-I/O strategies (ROMIO baseline and MCIO) reduce to the
same runtime skeleton once planning is done: a list of
:class:`~repro.core.filedomain.FileDomain` assignments executed by SPMD
rank processes.  This module implements that skeleton.

Write (collective write = shuffle then I/O, per round):

* every rank clips its file view against each domain's current round
  window and sends the covered bytes to the domain's aggregator;
* the aggregator receives all contributions, assembles them into its
  aggregation buffer (a memory-system copy, paying the paging penalty if
  the buffer spilled), and writes the union of the requested extents to
  the parallel file system.

Read runs the phases in reverse.  Payloads are optional: with payloads
attached the data movement is byte-accurate and verifiable; without, only
sizes flow (metadata-only mode for large benchmark runs).

Round synchronisation.  ROMIO's ``ADIOI_Exch_and_write`` loops a global
``ntimes = max(rounds over aggregators)`` with an all-to-all exchange per
iteration, so every rank advances through buffer rounds in lockstep; a
slow aggregator (paged buffer, contended server) stalls *everyone* each
round.  Every per-rank executor reproduces exactly that.  The round
structure is compiled once per plan into a :class:`RoundSchedule`
(every domain's windows, each window's senders, and a per-rank index of
the (round, domain) slots a rank sends to), so each rank still runs all
``ntimes`` rounds and barriers, but spawns work only for its own slots
instead of rescanning every domain every round.  Intra-node aggregation
and the pipelined executor keep the same lockstep rounds; they change
how a round's shuffle crosses the wire and when its PFS stage runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.core.borrow import (
    acquire_leases,
    borrow_round_check,
    check_acquisition,
    release_leases,
)
from repro.core.failover import replace_failed_domains
from repro.core.filedomain import FileDomain, rounds_for
from repro.core.metrics import StatsCollector
from repro.core.pattern_array import PatternArray, union_intervals
# coalesce_extents is unused here but stays a module attribute:
# perfbench/spans.py wraps it by name on this module
from repro.core.request import AccessPattern, Extent, coalesce_extents  # noqa: F401
from repro.mpi.comm import RankContext, SimComm
from repro.obs.tracer import PID_PIPELINE
from repro.pfs.filesystem import ParallelFileSystem

__all__ = ["ExecutionPlan", "execute_collective"]

#: Safety valve: when the exact union of requested extents inside one
#: round would expand more blocks than this, fall back to the covering
#: extent (requests in our workloads tile their domains, so this only
#: guards pathological synthetic patterns).
_UNION_BLOCK_LIMIT = 200_000


@dataclass(frozen=True)
class ExecutionPlan:
    """Everything the runtime needs: domains plus per-domain sender lists."""

    domains: tuple[FileDomain, ...]
    #: ``senders[i]`` = ranks (ascending) with data inside ``domains[i]``.
    senders: tuple[tuple[int, ...], ...]
    n_groups: int = 1

    def __post_init__(self) -> None:
        if len(self.domains) != len(self.senders):
            raise ValueError("domains and senders length mismatch")
        agg_slots: dict[int, tuple[int, ...]] = {}
        for did, domain in enumerate(self.domains):
            r = domain.aggregator_rank
            agg_slots[r] = agg_slots.get(r, ()) + (did,)
        #: rank -> domain ids it aggregates, ascending
        object.__setattr__(self, "_agg_slots", agg_slots)
        #: compiled round schedules by window geometry (full or half
        #: buffer), shared by every rank running this plan
        object.__setattr__(self, "_schedules", {})
        #: (segment table, domain-segment incidence) kept for compiling
        object.__setattr__(self, "_segments", None)

    def schedule(
        self, patterns: Sequence[AccessPattern], half: bool = False
    ) -> "RoundSchedule":
        """This plan's :class:`RoundSchedule`, compiled on first use.

        A plan always runs against the patterns it was planned from
        (the plan cache keys on them by value), so one compilation
        serves every rank, every persistent replay and every cache hit.
        `half` selects the pipelined executor's half-buffer windows.
        """
        sched = self._schedules.get(half)
        if sched is None:
            if self._segments is None:
                table = _segment_table(patterns)
                object.__setattr__(
                    self, "_segments", (table, _incidence(self.domains, table))
                )
            sched = self._schedules[half] = RoundSchedule(
                self.domains, len(patterns), *self._segments, half
            )
        return sched

    @classmethod
    def build(
        cls,
        domains: Sequence[FileDomain],
        patterns: Sequence[AccessPattern],
        n_groups: int = 1,
    ) -> "ExecutionPlan":
        """Derive sender lists from the ranks' file views."""
        if isinstance(patterns, PatternArray):
            senders = tuple(
                tuple(
                    patterns.senders_in(d.extent.offset, d.extent.end).tolist()
                )
                for d in domains
            )
            return cls(tuple(domains), senders, n_groups)
        # the full-buffer schedule is compiled here: a rank has bytes in
        # a domain exactly when it has bytes in one of its windows
        table = _segment_table(patterns)
        incidence = _incidence(domains, table)
        sched = RoundSchedule(domains, len(patterns), table, incidence, False)
        senders = tuple(tuple(sorted(set().union(*ws))) for ws in sched.senders)
        plan = cls(tuple(domains), senders, n_groups)
        object.__setattr__(plan, "_segments", (table, incidence))
        plan._schedules[False] = sched
        return plan

    @property
    def aggregator_ranks(self) -> tuple[int, ...]:
        """Distinct aggregator ranks, sorted."""
        return tuple(sorted({d.aggregator_rank for d in self.domains}))

    def partition_groups(self, n_parts: int) -> tuple[tuple[int, ...], ...]:
        """Group-aligned domain-index partitions for sharded execution.

        Whole aggregation groups are dealt round-robin (in ascending
        ``group_id`` order) onto ``min(n_parts, n_groups)`` partitions;
        inside a partition, domain indices stay in ascending plan order,
        so each shard replays its domains in the same relative sequence
        the unsharded run would.  The split depends only on the plan and
        `n_parts` — never on worker identity or scheduling — which is
        what makes sharded results order- and worker-count-independent.
        """
        if n_parts < 1:
            raise ValueError("n_parts must be >= 1")
        by_group: dict[int, list[int]] = {}
        for did, domain in enumerate(self.domains):
            by_group.setdefault(domain.group_id, []).append(did)
        groups = [by_group[gid] for gid in sorted(by_group)]
        n = min(n_parts, len(groups))
        if n == 0:
            return ()
        parts: list[list[int]] = [[] for _ in range(n)]
        for i, dids in enumerate(groups):
            parts[i % n].extend(dids)
        return tuple(tuple(sorted(p)) for p in parts)

    @property
    def ntimes(self) -> int:
        """Global round count (max over domains), ROMIO's ``ntimes``."""
        if not self.domains:
            return 0
        return max(
            rounds_for(d.extent.length, d.buffer_bytes) for d in self.domains
        )


class RoundSchedule:
    """One plan's rounds lowered to flat arrays (DESIGN.md §7).

    ``windows[d][t]`` is round `t`'s window of domain `d`, and
    ``senders[d][t]`` the ranks, ascending, with bytes in it;
    ``ntimes`` is the lockstep round count.  A CSR index over
    ``(rank, round, domain)`` lists each rank's sender slots, so a rank
    walks only the windows it sends to (:meth:`rank_rounds`).  Failover
    keeps every domain's extent and buffer, so the schedule never
    changes under it; only the aggregator slots move.
    """

    __slots__ = ("ntimes", "windows", "senders", "_ptr", "_slot_t", "_slot_d",
                 "_node_groups")

    def __init__(self, domains, n_ranks, table, incidence, half):
        dom, seg = incidence
        rank, off, block, stride, count = table[:, seg]
        lo = np.array([d.extent.offset for d in domains], dtype=np.int64)
        length = np.array([d.extent.length for d in domains], dtype=np.int64)
        width = np.array([d.buffer_bytes for d in domains], dtype=np.int64)
        if half:
            width = (width + 1) // 2
        self.ntimes = max(
            (rounds_for(n, w) for n, w in zip(length.tolist(), width.tolist())),
            default=0,
        )
        self.windows = [
            [Extent(o + t * w, min(w, n - t * w)) for t in range(-(-n // w))]
            for o, n, w in zip(lo.tolist(), length.tolist(), width.tolist())
        ]
        # each (domain, segment) pair spans the rounds from its first to
        # its last block in the domain; keep the rounds whose window
        # holds some of the segment's blocks
        base, w, end = lo[dom], width[dom], (lo + length)[dom]
        i0 = np.maximum(0, (base - off - block + stride) // stride)
        i1 = np.minimum(count - 1, (end - 1 - off) // stride)
        first = (np.maximum(off + i0 * stride, base) - base) // w
        last = (np.minimum(off + i1 * stride + block, end) - 1 - base) // w
        pair, t = _ranges(first, last - first + 1)
        wlo = base[pair] + t * w[pair]
        hit = _meets(
            off[pair], block[pair], stride[pair], count[pair],
            wlo, np.minimum(wlo + w[pair], end[pair]),
        )
        # distinct (domain, round, rank) sender slots, in that order
        dom, t, rank = dom[pair[hit]], t[hit], rank[pair[hit]]
        order = np.lexsort((rank, t, dom))
        dom, t, rank = dom[order], t[order], rank[order]
        new_win = np.ones(dom.size, dtype=bool)
        new_win[1:] = (dom[1:] != dom[:-1]) | (t[1:] != t[:-1])
        keep = new_win.copy()
        keep[1:] |= rank[1:] != rank[:-1]
        dom, t, rank, new_win = dom[keep], t[keep], rank[keep], new_win[keep]
        self.senders = [[()] * len(ws) for ws in self.windows]
        cuts = [*np.flatnonzero(new_win).tolist(), dom.size]
        dl, tl, rl = dom.tolist(), t.tolist(), rank.tolist()
        for a, b in zip(cuts[:-1], cuts[1:]):
            self.senders[dl[a]][tl[a]] = tuple(rl[a:b])
        order = np.lexsort((dom, t, rank))
        self._ptr = np.searchsorted(rank[order], np.arange(n_ranks + 1)).tolist()
        self._slot_t, self._slot_d = t[order], dom[order]
        self._node_groups: dict = {}

    def rank_rounds(self, rank: int) -> dict[int, list[int]]:
        """``{round: [domain ids, ascending]}`` that `rank` sends to."""
        a, b = self._ptr[rank], self._ptr[rank + 1]
        out: dict[int, list[int]] = {}
        for t, did in zip(self._slot_t[a:b].tolist(), self._slot_d[a:b].tolist()):
            out.setdefault(t, []).append(did)
        return out

    def node_groups(
        self, did: int, t: int, placement: Sequence[int]
    ) -> dict[int, list[int]]:
        """Window senders grouped by hosting node, memoized.

        ``{node_id: [ranks]}`` with ranks ascending inside each node —
        the first rank of a group is that node's shuffle leader under
        intra-node aggregation.  Shared across ranks; treat as
        immutable.
        """
        groups = self._node_groups.get((did, t))
        if groups is None:
            groups = self._node_groups[(did, t)] = {}
            for r in self.senders[did][t]:
                groups.setdefault(placement[r], []).append(r)
        return groups


def _segment_table(patterns: Sequence[AccessPattern]) -> np.ndarray:
    """Every rank's segments as int64 rows ``rank, offset, block, stride,
    count`` (transposed to columns); a single block's stride is its size."""
    rows = [
        (r, s.offset, s.block, s.stride if s.count > 1 else s.block, s.count)
        for r, p in enumerate(patterns)
        for s in p.segments
    ]
    return np.array(rows, dtype=np.int64).reshape(-1, 5).T


def _meets(off, block, stride, count, lo, hi) -> np.ndarray:
    """Vectorized ``StridedSegment.bytes_in(lo, hi) > 0`` over table rows."""
    first = np.maximum(0, (lo - off - block + stride) // stride)
    return np.minimum(count - 1, (hi - 1 - off) // stride) >= first


def _incidence(domains, table) -> tuple[np.ndarray, np.ndarray]:
    """``(domain ids, segment rows)`` of every segment with bytes in a
    domain, ordered by domain, then rank and file order."""
    _rank, off, block, stride, count = table
    end = off + (count - 1) * stride + block
    lo = np.array([d.extent.offset for d in domains], dtype=np.int64)
    hi = lo + np.array([d.extent.length for d in domains], dtype=np.int64)
    # (domains x segments) span-overlap masks, a bounded slab at a time
    step = max(1, (1 << 22) // max(1, off.size))
    dom, seg = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)]
    for a in range(0, len(domains), step):
        d, sg = np.nonzero((off < hi[a:a + step, None]) & (end > lo[a:a + step, None]))
        dom.append(d + a)
        seg.append(sg)
    dom, seg = np.concatenate(dom), np.concatenate(seg)
    # a strided segment can span a domain without a block in it
    keep = (lo[dom] < hi[dom]) & _meets(
        off[seg], block[seg], stride[seg], count[seg], lo[dom], hi[dom]
    )
    return dom[keep], seg[keep]


def _ranges(first: np.ndarray, counts: np.ndarray):
    """``(owner, value)``: the concatenated ``arange(first[i], first[i] +
    counts[i])`` with the index `i` each value came from."""
    owner = np.repeat(np.arange(counts.size), counts)
    start = np.cumsum(counts) - counts
    return owner, first[owner] + np.arange(owner.size) - start[owner]


@dataclass(frozen=True)
class _IntraNodeBundle:
    """Leader-coalesced shuffle payload: one wire message, many slices.

    ``parts`` is a rank-ascending tuple of ``(rank, nbytes, data)`` — the
    per-rank window slices a node leader pooled (write: toward an
    aggregator; read: from an aggregator toward a node's members).
    """

    parts: tuple


def _union_extents(
    patterns: Sequence[AccessPattern], senders: Sequence[int], window: Extent
) -> list[Extent]:
    """Exact union of the senders' requested extents inside `window`.

    Each segment meeting the window is cut to the run of blocks it has
    there, in O(1).  When every piece is one contiguous run — the usual
    case — the runs merge in one pass, sorted first only if out of
    order.  Pieces of several separate blocks ("trains") first fuse
    where they interleave exactly; what is left is expanded to block
    arrays and merged by :func:`~repro.core.pattern_array.
    union_intervals`.  Past ``_UNION_BLOCK_LIMIT`` blocks the union
    degrades to the covering extent.
    """
    lo, hi = window.offset, window.end
    runs: list[tuple[int, int]] = []  # contiguous pieces: (start, end)
    trains: list[tuple[int, int, int, int]] = []  # (first, block, stride, n)
    blocks = 0
    for r in senders:
        for seg in patterns[r].segments_in(lo, hi):
            off, block = seg.offset, seg.block
            stride = seg.stride if seg.count > 1 else block
            i0 = max(0, (lo - off - block + stride) // stride)
            i1 = min(seg.count - 1, (hi - 1 - off) // stride)
            if i1 < i0:
                continue
            first = off + i0 * stride
            if i0 == i1 or stride == block:
                blocks += 1
                runs.append((max(lo, first), min(hi, off + i1 * stride + block)))
            else:
                blocks += i1 - i0 + 1
                trains.append((first, block, stride, i1 - i0 + 1))
    if not (runs or trains):
        return []
    if blocks > _UNION_BLOCK_LIMIT:
        starts = [s for s, _ in runs] + [max(lo, f) for f, *_ in trains]
        ends = [e for _, e in runs] + [min(hi, f + (n - 1) * st + b)
                                       for f, b, st, n in trains]
        return [Extent(min(starts), max(ends) - min(starts))]
    if trains:
        # interleaved views (ranks at successive displacements of one
        # vector type) leave trains that fuse: same stride and count,
        # each starting where the previous one's blocks end; a train
        # whose blocks then touch is one run
        trains.sort(key=lambda tr: (tr[2], tr[3], tr[0]))
        fused = [trains[0]]
        for tr in trains[1:]:
            f, b, st, n = fused[-1]
            if tr[2] == st and tr[3] == n and tr[0] == f + b and b + tr[1] <= st:
                fused[-1] = (f, b + tr[1], st, n)
            else:
                fused.append(tr)
        trains = [tr for tr in fused if tr[1] < tr[2]]
        runs += [(max(lo, f), min(hi, f + n * st)) for f, b, st, n in fused if b == st]
    if trains:
        first, block, stride, n = np.array(trains, dtype=np.int64).T
        owner, k = _ranges(np.zeros_like(n), n)
        at = first[owner] + k * stride[owner]
        pieces = np.array(runs, dtype=np.int64).reshape(-1, 2)
        return union_intervals(
            np.concatenate((pieces[:, 0], np.maximum(at, lo))),
            np.concatenate((pieces[:, 1], np.minimum(at + block[owner], hi))),
        )
    if any(b[0] < a[0] for a, b in zip(runs, runs[1:])):
        runs.sort()
    out: list[Extent] = []
    start, end = runs[0]
    for s, e in runs[1:]:
        if s > end:
            out.append(Extent(start, end - start))
            start = s
        end = max(end, e)
    out.append(Extent(start, end - start))
    return out


def _pack_payload(
    pattern: AccessPattern, payload: np.ndarray, clipped: AccessPattern
) -> np.ndarray:
    """Gather the bytes of `clipped` (a sub-pattern) out of `payload`."""
    out = np.empty(clipped.nbytes, dtype=np.uint8)
    for off, ln, qbuf in clipped.iter_mapped_extents():
        src = pattern.buffer_position(off)
        out[qbuf : qbuf + ln] = payload[src : src + ln]
    return out


def _slice_for(run, rank: int, window: Extent, buffer) -> tuple[int, object]:
    """``(nbytes, packed bytes or None)`` of `rank`'s part of `window`,
    gathered from the aggregation `buffer`; metadata-only runs (no
    buffer) need only the count, not the clipped view."""
    pattern = run.patterns[rank]
    if buffer is None:
        return pattern.bytes_in(window.offset, window.end), None
    q = pattern.clip(window.offset, window.end)
    data = np.empty(q.nbytes, dtype=np.uint8)
    for off, ln, qbuf in q.iter_mapped_extents():
        rel = off - window.offset
        data[qbuf : qbuf + ln] = buffer[rel : rel + ln]
    return q.nbytes, data


def _unpack_payload(
    pattern: AccessPattern,
    payload: np.ndarray,
    clipped: AccessPattern,
    packed: np.ndarray,
) -> None:
    """Scatter `packed` (bytes of `clipped`) back into `payload`."""
    for off, ln, qbuf in clipped.iter_mapped_extents():
        dst = pattern.buffer_position(off)
        payload[dst : dst + ln] = packed[qbuf : qbuf + ln]


class _RunContext:
    """Per-collective state shared by one rank's role coroutines."""

    __slots__ = (
        "ctx", "comm", "pfs", "plan", "patterns", "stats", "op", "op_seq",
        "payload", "node", "domains", "agg_dids", "sched", "allocs",
        "paged_flags", "failover_config", "borrow",
    )

    def __init__(self, ctx, comm, pfs, plan, patterns, stats, op, op_seq, payload):
        self.ctx = ctx
        self.comm = comm
        self.pfs = pfs
        self.plan = plan
        self.patterns = patterns
        self.stats = stats
        self.op = op
        self.op_seq = op_seq
        self.payload = payload
        self.node = ctx.node
        #: Mutable view of the plan's domains: failover swaps aggregators
        #: here while the frozen plan keeps the original assignment.
        self.domains = list(plan.domains)
        #: Domain ids this rank aggregates, ascending (its aggregator
        #: slots), rebuilt only when failover moves a domain.
        self.agg_dids = plan._agg_slots.get(ctx.rank, ())
        #: The plan's compiled :class:`RoundSchedule` (round executors).
        self.sched = None
        #: This rank's live aggregation-buffer allocations, by domain id.
        self.allocs: dict[int, object] = {}
        self.paged_flags: dict[int, bool] = {}
        self.failover_config = None
        #: Active :class:`~repro.core.borrow.BorrowSession`, or None.
        self.borrow = None


def execute_collective(
    ctx: RankContext,
    comm: SimComm,
    pfs: ParallelFileSystem,
    plan: ExecutionPlan,
    patterns: Sequence[AccessPattern],
    stats: StatsCollector,
    op: str,
    op_seq: int,
    payload: Optional[np.ndarray] = None,
    failover_config=None,
    intra_node_aggregation: bool = False,
    borrow=None,
    pipelined: bool = False,
):
    """Process generator: one rank's role in a planned collective op.

    Parameters
    ----------
    ctx:
        The calling rank's context.
    comm, pfs:
        Runtime substrates.
    plan:
        The strategy's output (identical on every rank).
    patterns:
        All ranks' file views (from the planning allgather).
    stats:
        Shared collector.
    op:
        ``"write"`` or ``"read"``.
    op_seq:
        Engine-level sequence number, namespacing message tags.
    payload:
        This rank's data buffer (write: source, read: destination), or
        None for metadata-only runs.
    failover_config:
        An :class:`~repro.core.config.MCIOConfig` to enable mid-run
        aggregator failover (between lockstep rounds), or None for
        fault-oblivious execution.  With no failed hosts the check adds
        no simulation events, so fault-free timing is unchanged.
    intra_node_aggregation:
        Leader-coalesced shuffle: one rank per (node, domain, window)
        pools its co-located ranks' slices and exchanges a single wire
        message per aggregator node, cutting per-round inter-node
        messages from O(ranks touching the window) to O(nodes touching
        the window).  Disengages (the plain lockstep path runs instead)
        whenever fault machinery is armed — `failover_config` given or
        hosts already failed — and when the plan borrows or pipelines.
    borrow:
        A :class:`~repro.core.borrow.BorrowSession` when the plan
        contains lender-backed domains, else None.  Disables intra-node
        aggregation and pipelining (a borrowed buffer needs the
        per-message control points).  Lease acquisition runs before
        round 0; an acquisition failure or a mid-run unsound lease
        raises :class:`~repro.core.borrow.BorrowDegraded` on every rank
        after local teardown — the caller re-plans without borrowing.
    pipelined:
        Overlap the shuffle stage of window t with the PFS-service
        stage of window t-1 (write: window t-1 drains to the OSTs
        behind the next exchange; read: window t+1 prefetches from the
        OSTs behind the current scatter), double-buffering inside each
        *planned* aggregation buffer as two half-sized slots — no
        memory beyond the plan's budget is ever committed.  Same
        bytes, same nominal round accounting, shorter critical path.
        Falls back to the exact blocking path — with
        the reason recorded in ``stats.extra["pipeline_fallback"]`` —
        when hosts are already failed or the plan borrows remote
        memory; a failure landing *mid*-pipeline drains the in-flight
        windows at the next round boundary and hands the remaining
        rounds to the lockstep path with `failover_config` re-armed.

    Returns
    -------
    The rank's payload (reads fill it in place), or None.
    """
    if op not in ("write", "read"):
        raise ValueError(f"op must be 'write' or 'read', got {op!r}")
    # leader bundling has no per-message hooks for mid-run failover,
    # degraded hosts or a borrowed buffer; those runs stay per-message
    intra_node = (
        intra_node_aggregation
        and failover_config is None
        and not comm.cluster.failed_hosts
        and borrow is None
    )
    if pipelined:
        # the overlapped path needs healthy hosts and local buffers to
        # start; it handles failures *arising* mid-run itself (drain,
        # then lockstep + failover), but never starts degraded
        if borrow is not None:
            pipelined = False
            stats.extra["pipeline_fallback"] = "borrow-lease"
        elif comm.cluster.failed_hosts:
            pipelined = False
            stats.extra["pipeline_fallback"] = "failed-nodes"
        else:
            intra_node = False
    env = ctx.env
    stats.mark_start(env.now)
    stats.record_attempt()
    run = _RunContext(ctx, comm, pfs, plan, patterns, stats, op, op_seq, payload)
    run.borrow = borrow
    if not pipelined:
        # the pipelined executor arms failover itself once it degrades
        run.failover_config = failover_config
    run.sched = plan.schedule(patterns, half=pipelined)

    tracer = env.tracer
    pid = comm.placement[ctx.rank]
    if tracer.enabled:
        path = (
            "pipelined" if pipelined
            else "intra-node" if intra_node
            else "lockstep"
        )
        tracer.begin(
            "collective", f"collective.{op}", pid, ctx.rank,
            strategy=stats.strategy, seq=op_seq, path=path,
        )
    try:
        # allocate this rank's aggregation buffers for the whole operation
        for did in run.agg_dids:
            domain = run.domains[did]
            if borrow is not None and domain.lender_node is not None:
                # the buffer lives on the lender once the lease lands
                # (recorded at grant time); only the round count is known now
                run.paged_flags[did] = False
                stats.record_rounds(
                    rounds_for(domain.extent.length, domain.buffer_bytes)
                )
                continue
            _alloc_aggregator_buffer(run, did, domain)
            stats.record_rounds(
                rounds_for(domain.extent.length, domain.buffer_bytes)
            )

        try:
            if borrow is not None:
                yield from acquire_leases(run, borrow)
                # make grant outcomes common knowledge before round 0
                yield from comm.barrier(ctx)
                check_acquisition(run, borrow)
            if pipelined:
                yield from _run_pipelined(run, failover_config)
            elif intra_node:
                yield from _run_lockstep(run, _aggregator_window_ina, None)
            else:
                yield from _run_lockstep(run, _aggregator_window, _member_window)
            if borrow is not None:
                release_leases(run, borrow)
        finally:
            for alloc in run.allocs.values():
                ctx.node.memory.free(alloc)
            run.allocs.clear()
        yield from comm.barrier(ctx)
        stats.mark_end(env.now)
    finally:
        if tracer.enabled:
            tracer.end(pid, ctx.rank)
    return payload


def _alloc_aggregator_buffer(run: _RunContext, did: int, domain: FileDomain):
    """Commit this rank's aggregation buffer for `domain` and record it."""
    ctx = run.ctx
    alloc = ctx.node.memory.alloc(
        domain.buffer_bytes, label=f"cb.{run.op_seq}.{did}"
    )
    run.allocs[did] = alloc
    paged = alloc.paged or domain.paged
    run.paged_flags[did] = paged
    overcommit = max(0, ctx.node.memory.committed - ctx.node.memory.available)
    run.stats.record_aggregator(ctx.rank, domain.buffer_bytes, paged, overcommit)
    return paged


# ---------------------------------------------------------------------------
# lockstep execution (ROMIO's ntimes loop)
# ---------------------------------------------------------------------------
def _run_lockstep(run: _RunContext, agg_role, member_role):
    """ROMIO's ntimes loop, walking only this rank's compiled slots.

    Every rank runs all ``ntimes`` rounds, each closed by a barrier, but
    spawns window processes only for the slots it holds (see
    :func:`_round_slots`): `agg_role` for a domain it aggregates,
    `member_role` for a window it sends to.  With `member_role` None
    (intra-node aggregation) the round's sender slots run instead as one
    :func:`_member_round_ina` process after the aggregator windows.
    """
    ctx, comm, sched = run.ctx, run.comm, run.sched
    tracer = ctx.env.tracer
    pid = comm.placement[ctx.rank]
    sends_by_round = sched.rank_rounds(ctx.rank)
    for t in range(sched.ntimes):
        if tracer.enabled:
            tracer.begin("shuffle", "shuffle.round", pid, ctx.rank, round=t)
        try:
            if run.borrow is not None:
                # lease health first: a borrowed domain cannot be failed
                # over (its buffer is remote), so borrow aborts preempt
                # the failover machinery for those domains
                borrow_round_check(run, run.borrow, t)
            if run.failover_config is not None and comm.cluster.failed_hosts:
                yield from _failover_check(run, t)
            sends = sends_by_round.get(t, ())
            procs = []
            for did, role in _round_slots(run, t, sends if member_role else ()):
                window = sched.windows[did][t]
                if role == 0:
                    procs.append(
                        ctx.spawn(
                            agg_role(run, did, window, t, run.paged_flags[did]),
                            name=f"rank{ctx.rank}.agg{did}.r{t}",
                        )
                    )
                else:
                    procs.append(
                        ctx.spawn(
                            member_role(run, did, window, t),
                            name=f"rank{ctx.rank}.m{did}.r{t}",
                        )
                    )
            if member_role is None and sends:
                procs.append(
                    ctx.spawn(
                        _member_round_ina(run, t, sends),
                        name=f"rank{ctx.rank}.ina.r{t}",
                    )
                )
            if procs:
                yield ctx.env.all_of(procs)
            # ROMIO's per-round synchronisation: the exchange of the next
            # round cannot start before everyone finished this one
            yield from comm.barrier(ctx)
        finally:
            if tracer.enabled:
                tracer.end(pid, ctx.rank, round=t)


def _round_slots(run: _RunContext, t: int, sends) -> list[tuple[int, int]]:
    """This rank's ``(did, role)`` slots of round `t`, in spawn order.

    Role 0 aggregates the domain's window, role 1 sends to it.  Domain
    order, the aggregator role first: the order a scan over every
    domain would spawn them in.
    """
    windows = run.sched.windows
    slots = [(did, 0) for did in run.agg_dids if t < len(windows[did])]
    if not slots:
        return [(did, 1) for did in sends]
    slots.extend((did, 1) for did in sends)
    slots.sort()
    return slots


def _failover_check(run: _RunContext, t: int):
    """Between-rounds failover: re-place domains whose host failed.

    Every rank reaches a round boundary at the same simulated instant
    (the preceding barrier guarantees it), reads the same cluster state,
    and therefore takes the same branch: either all ranks return
    immediately (no failed aggregator hosts — no events created, so the
    fault-free schedule is untouched), or all ranks join a memory
    allgather (charging the re-coordination time) and compute an
    identical replacement via :func:`replace_failed_domains`.  Callers
    enter it only while ``Cluster.failed_hosts`` is non-zero, so the
    fault-free probe is one integer test per rank-round.
    """
    ctx, comm = run.ctx, run.comm
    orphaned = any(
        comm.node_of_rank(d.aggregator_rank).failed for d in run.domains
    )
    if not orphaned:
        return
    failed_nodes = frozenset(
        node.node_id for node in comm.cluster.nodes if node.failed
    )
    # fresh memory snapshot: identical values on every rank, and the
    # allgather itself charges the failover's coordination cost
    mem_pairs = yield from comm.allgather(
        ctx, (ctx.node.node_id, ctx.node.memory.free_available), nbytes=16
    )
    memory_available: dict[int, int] = {}
    for node_id, avail in mem_pairs:
        memory_available.setdefault(node_id, avail)
    decision = replace_failed_domains(
        run.domains,
        run.patterns,
        comm.placement,
        memory_available,
        run.failover_config,
        failed_nodes,
    )
    if decision.moved:
        run.agg_dids = [
            did for did, d in enumerate(decision.domains)
            if d.aggregator_rank == ctx.rank
        ]
    for did in decision.moved:
        old = run.domains[did]
        new = decision.domains[did]
        if old.aggregator_rank == ctx.rank and did in run.allocs:
            ctx.node.memory.free(run.allocs.pop(did))
            run.paged_flags.pop(did, None)
        run.domains[did] = new
        if new.aggregator_rank == ctx.rank:
            _alloc_aggregator_buffer(run, did, new)
            run.stats.record_failover()
            run.stats.extra.setdefault("failover_rounds", []).append(t)
            run.stats.extra.setdefault("failover_targets", []).append(
                new.aggregator_rank
            )
            tracer = ctx.env.tracer
            if tracer.enabled:
                tracer.instant(
                    "failover", "failover.move",
                    comm.placement[ctx.rank], ctx.rank,
                    domain=did, round=t, from_rank=old.aggregator_rank,
                )
    if decision.kept and ctx.rank == comm.world.ranks[0]:
        run.stats.extra["failover_kept"] = (
            run.stats.extra.get("failover_kept", 0) + len(decision.kept)
        )


# ---------------------------------------------------------------------------
# pipelined execution (lockstep shuffle, PFS service overlapped)
# ---------------------------------------------------------------------------
def _run_pipelined(run: _RunContext, failover_config):
    """Lockstep sub-rounds with the PFS stage running behind the shuffle.

    Memory-conscious double buffering: each aggregator splits its
    *planned* aggregation buffer into two half-sized slots and walks the
    domain in half-windows, so two windows are in flight inside the
    footprint the planner already budgeted — nothing extra is committed
    against node memory, in any regime.  Each half-window's work is a
    *shuffle* stage (exchange + buffer assembly, in-round) and a
    *PFS-service* stage (drain to / prefetch from the OSTs) running as a
    background process across the round barrier.  Window t lands in slot
    ``t % 2`` and must wait for the service of window t-2 (which used
    the same slot) before reusing it; only the tail window's PFS service
    is exposed on the critical path.  Bytes, message totals, and the
    nominal (planned) round count are identical to the blocking path —
    only the overlap structure differs.

    The half-windows come from the plan's half-buffer
    :class:`RoundSchedule`.  A host failure noticed at a round boundary
    degrades the rest of the run in place: in-flight write drains are
    awaited (already-prefetched read windows are consumed, never
    re-read), `failover_config` is re-armed so :func:`_failover_check`
    guards the remaining sub-rounds, and each remaining window runs its
    PFS stage inline — the blocking behaviour, at half-window
    granularity.
    """
    ctx, comm, sched = run.ctx, run.comm, run.sched
    env = ctx.env
    tracer = env.tracer
    pid = comm.placement[ctx.rank]
    sends_by_round = sched.rank_rounds(ctx.rank)
    #: (did, window) -> in-flight background PFS-service process
    service: dict[tuple[int, int], object] = {}
    degraded = False
    for t in range(sched.ntimes):
        if tracer.enabled:
            tracer.begin("shuffle", "shuffle.round", pid, ctx.rank, round=t)
        try:
            if not degraded and comm.cluster.failed_hosts:
                # drain the in-flight windows, then run the rest of
                # the operation at blocking fidelity with failover
                degraded = True
                run.failover_config = failover_config
                if run.op == "write":
                    pending = [
                        p for p in service.values() if not p.triggered
                    ]
                    if pending:
                        yield env.all_of(pending)
                    service.clear()
                run.stats.extra.setdefault("pipeline_drained_at", t)
            if run.failover_config is not None and comm.cluster.failed_hosts:
                yield from _failover_check(run, t)
            procs = []
            for did, role in _round_slots(run, t, sends_by_round.get(t, ())):
                window = sched.windows[did][t]
                if role == 0:
                    procs.append(
                        ctx.spawn(
                            _pipeline_aggregator_window(
                                run, did, window, t, service, degraded
                            ),
                            name=f"rank{ctx.rank}.pagg{did}.r{t}",
                        )
                    )
                else:
                    procs.append(
                        ctx.spawn(
                            _member_window(run, did, window, t),
                            name=f"rank{ctx.rank}.m{did}.r{t}",
                        )
                    )
            if procs:
                yield ctx.env.all_of(procs)
            yield from comm.barrier(ctx)
        finally:
            if tracer.enabled:
                tracer.end(pid, ctx.rank, round=t)
    # tail: the last windows' PFS service is still in flight
    pending = [p for p in service.values() if not p.triggered]
    if pending:
        yield env.all_of(pending)


def _pipeline_aggregator_window(
    run: _RunContext, did: int, window: Extent, t: int,
    service: dict, degraded: bool,
):
    if run.op == "write":
        yield from _pipeline_collect(run, did, window, t, service, degraded)
    else:
        yield from _pipeline_scatter(run, did, window, t, service, degraded)


def _pipeline_collect(
    run: _RunContext, did: int, window: Extent, t: int,
    service: dict, degraded: bool,
):
    """Shuffle stage of one write window; the drain runs in background."""
    ctx, comm = run.ctx, run.comm
    # double buffering: window t reuses the slot window t-2 drained from
    prev = service.pop((did, t - 2), None)
    if prev is not None:
        yield prev
    expected = run.sched.senders[did][t]
    buffer: Optional[np.ndarray] = None
    received = 0
    for _ in range(len(expected)):
        msg = yield from comm.recv(ctx, tag=(run.op_seq, did, t))
        received += msg.nbytes
        if msg.payload is None:
            continue
        if buffer is None:
            buffer = np.zeros(window.length, dtype=np.uint8)
        q = run.patterns[msg.source].clip(window.offset, window.end)
        for off, ln, qbuf in q.iter_mapped_extents():
            rel = off - window.offset
            buffer[rel : rel + ln] = msg.payload[qbuf : qbuf + ln]
    if received == 0:
        return
    # both half-slots live inside the planned (primary) buffer
    paged = run.paged_flags.get(did, False)
    yield from run.node.memcopy(received, paged=paged)
    if degraded:
        yield from _pipeline_drain(run, did, window, t, buffer, expected)
        return
    run.stats.extra["pipeline_overlapped"] = (
        run.stats.extra.get("pipeline_overlapped", 0) + 1
    )
    service[(did, t)] = ctx.spawn(
        _pipeline_drain(run, did, window, t, buffer, expected),
        name=f"rank{ctx.rank}.drain{did}.r{t}",
    )


def _pipeline_drain(
    run: _RunContext, did: int, window: Extent, t: int, buffer, expected
):
    """PFS-service stage of one write window."""
    ctx = run.ctx
    tracer = ctx.env.tracer
    t0 = tracer.now() if tracer.enabled else 0.0
    pieces = _union_extents(run.patterns, expected, window)
    for piece in pieces:
        data = None
        if buffer is not None:
            rel = piece.offset - window.offset
            data = buffer[rel : rel + piece.length]
        yield from run.pfs.write_extent(run.node, piece, data)
        run.stats.record_bytes(piece.length)
        run.stats.record_io_extent(piece.offset, piece.length)
    if tracer.enabled:
        tracer.complete(
            "pipeline", "pipeline.overlap", PID_PIPELINE,
            ctx.rank * 2 + (t % 2), t0, tracer.now() - t0,
            stage="drain", rank=ctx.rank, domain=did, window=t,
            bytes=sum(p.length for p in pieces),
        )


def _pipeline_scatter(
    run: _RunContext, did: int, window: Extent, t: int,
    service: dict, degraded: bool,
):
    """Shuffle-out stage of one read window; prefetches run in background."""
    ctx, comm, env = run.ctx, run.comm, run.ctx.env
    windows = run.sched.windows[did]
    pf = service.pop((did, t), None)
    if pf is None:
        # round 0, or degraded mode: fetch this window inline
        pf = ctx.spawn(
            _pipeline_prefetch(run, did, window, t),
            name=f"rank{ctx.rank}.pf{did}.r{t}",
        )
    yield pf
    buffer, total_read = pf.value
    nxt = None if degraded or t + 1 >= len(windows) else windows[t + 1]
    if nxt is not None and (did, t + 1) not in service:
        # prefetch the next window into the other slot: the OST reads
        # run behind this window's scatter
        run.stats.extra["pipeline_overlapped"] = (
            run.stats.extra.get("pipeline_overlapped", 0) + 1
        )
        service[(did, t + 1)] = ctx.spawn(
            _pipeline_prefetch(run, did, nxt, t + 1),
            name=f"rank{ctx.rank}.pf{did}.r{t + 1}",
        )
    if total_read == 0:
        return
    paged = run.paged_flags.get(did, False)
    yield from run.node.memcopy(total_read, paged=paged)
    expected = run.sched.senders[did][t]
    sends = []
    for r in expected:
        nbytes, data = _slice_for(run, r, window, buffer)
        sends.append(
            comm.isend(
                ctx, r, nbytes, tag=(run.op_seq, did, t),
                payload=data, paged_dst=paged,
            )
        )
    if sends:
        yield env.all_of(sends)


def _pipeline_prefetch(run: _RunContext, did: int, window: Extent, t: int):
    """PFS-service stage of one read window; value = (buffer, bytes read)."""
    ctx = run.ctx
    tracer = ctx.env.tracer
    t0 = tracer.now() if tracer.enabled else 0.0
    expected = run.sched.senders[did][t]
    if not expected:
        return None, 0
    buffer: Optional[np.ndarray] = (
        np.zeros(window.length, dtype=np.uint8)
        if run.pfs.datastore is not None
        else None
    )
    total = 0
    pieces = _union_extents(run.patterns, expected, window)
    for piece in pieces:
        data = yield from run.pfs.read_extent(run.node, piece)
        total += piece.length
        run.stats.record_bytes(piece.length)
        run.stats.record_io_extent(piece.offset, piece.length)
        if buffer is not None and data is not None:
            rel = piece.offset - window.offset
            buffer[rel : rel + piece.length] = data
    if tracer.enabled:
        tracer.complete(
            "pipeline", "pipeline.overlap", PID_PIPELINE,
            ctx.rank * 2 + (t % 2), t0, tracer.now() - t0,
            stage="prefetch", rank=ctx.rank, domain=did, window=t,
            bytes=total,
        )
    return buffer, total


# ---------------------------------------------------------------------------
# intra-node aggregation (lockstep rounds, leader-coalesced shuffle)
# ---------------------------------------------------------------------------
#
# Same round structure, barrier discipline, and bytes delivered as plain
# lockstep, but for every (node, domain, window) with the aggregator on a
# *different* node, the node's lowest-ranked window sender acts as leader:
# on writes the co-located senders hand their slices to the leader over
# the shared-memory path and the leader ships one :class:`_IntraNodeBundle`
# per aggregator; on reads the aggregator sends the leader one bundle and
# the leader fans the slices out locally.  Co-located members keep the
# per-rank path.  Leader staging memory is committed against the node's
# available memory for the life of the pooled transfer, so the
# memory-conscious accounting still sees the coalesced buffers.
# ---------------------------------------------------------------------------
def _ina_groups(run: _RunContext, did: int, t: int) -> dict[int, list[int]]:
    return run.sched.node_groups(did, t, run.comm.placement)


def _ina_message_count(
    run: _RunContext, did: int, t: int, failed_nodes: frozenset = frozenset()
) -> int:
    """Messages the aggregator drains for window `t`: locals + one per node.

    Nodes in `failed_nodes` ship per-rank (leader bundling is degraded
    there — see :func:`_member_round_ina_write`), so they count like the
    aggregator's own node: one message per member.
    """
    agg_node = run.comm.node_id_of_rank(run.domains[did].aggregator_rank)
    n = 0
    for nid, ranks in _ina_groups(run, did, t).items():
        n += len(ranks) if (nid == agg_node or nid in failed_nodes) else 1
    return n


def _ina_leader_count(run: _RunContext, t: int, node_id: int) -> int:
    """Distinct leader ranks `node_id` fields in round `t` (write side)."""
    comm = run.comm
    leaders = set()
    for did, domain in enumerate(run.domains):
        if t >= len(run.sched.windows[did]):
            continue
        if comm.node_id_of_rank(domain.aggregator_rank) == node_id:
            continue
        local = _ina_groups(run, did, t).get(node_id)
        if local:
            leaders.add(local[0])
    return len(leaders)


def _aggregator_window_ina(
    run: _RunContext, did: int, window: Extent, t: int, paged: bool
):
    snap = run.stats.failed_nodes_snapshot((run.op_seq, t), run.comm.cluster)
    if run.op == "write":
        yield from _collect_and_write(
            run, did, window, t, paged,
            n_msgs=_ina_message_count(run, did, t, snap),
        )
    else:
        yield from _read_and_scatter(
            run, did, window, t, paged, intra_node=True, failed_nodes=snap
        )


def _member_round_ina(run: _RunContext, t: int, sends_to):
    if run.op == "write":
        yield from _member_round_ina_write(run, t, sends_to)
    else:
        yield from _member_round_ina_read(run, t, sends_to)


def _member_round_ina_write(run: _RunContext, t: int, sends_to):
    """One rank's whole write-shuffle round under intra-node aggregation.

    Slices bound for a co-located aggregator go straight to it; slices
    bound for remote aggregators go to this node's per-domain leader
    (lowest sender rank) over the shared-memory path, and each leader
    deposits its pooled bundles into one node-wide
    :meth:`~repro.mpi.comm.SimComm.staged_batched_send` rendezvous, so
    the node's entire round leaves the NIC as one shipment with one
    wire message per (domain, window).

    If this rank's *own node* failed (between leader election and ship),
    funnelling the round through a crippled leader would serialize every
    co-located sender behind the failure slowdown — so the node's ranks
    degrade to per-rank direct sends for the round, and the would-be
    leader counts the degradation.
    """
    ctx, comm = run.ctx, run.comm
    my_pattern = run.patterns[ctx.rank]
    my_node = comm.node_id_of_rank(ctx.rank)
    env = ctx.env
    snap = run.stats.failed_nodes_snapshot((run.op_seq, t), comm.cluster)
    sends = []
    duties = []  # (did, local senders, my slice, packed data, wire paged flag)
    for did in sends_to:
        domain = run.domains[did]
        window = run.sched.windows[did][t]
        q = my_pattern.clip(window.offset, window.end)
        agg = domain.aggregator_rank
        same_node = comm.node_id_of_rank(agg) == my_node
        data = (
            _pack_payload(my_pattern, run.payload, q)
            if run.payload is not None
            else None
        )
        run.stats.record_shuffle(q.nbytes, same_node=same_node)
        paged_wire = domain.paged or comm.node_of_rank(agg).memory.overcommitted
        if same_node:
            sends.append(
                comm.isend(
                    ctx, agg, q.nbytes, tag=(run.op_seq, did, t),
                    payload=data, paged_dst=paged_wire,
                )
            )
            continue
        local = _ina_groups(run, did, t)[my_node]
        if my_node in snap:
            sends.append(
                comm.isend(
                    ctx, agg, q.nbytes, tag=(run.op_seq, did, t),
                    payload=data, paged_dst=paged_wire,
                )
            )
            if ctx.rank == local[0]:
                run.stats.record_ina_fallback()
                tracer = env.tracer
                if tracer.enabled:
                    tracer.instant(
                        "shuffle", "shuffle.ina.leader_fallback",
                        my_node, ctx.rank, domain=did, round=t,
                    )
            continue
        if ctx.rank != local[0]:
            # hand the slice to this node's leader (shared-memory hop)
            sends.append(
                comm.isend(
                    ctx, local[0], q.nbytes,
                    tag=("ina", run.op_seq, did, t), payload=data,
                )
            )
        else:
            duties.append((did, local, q, data, paged_wire))
    if duties:
        tracer = env.tracer
        lead_t0 = tracer.now() if tracer.enabled else 0.0
        n_leaders = _ina_leader_count(run, t, my_node)
        items = []
        staging = []
        paged_map: dict[int, bool] = {}
        for did, local, q, data, paged_wire in duties:
            agg = run.domains[did].aggregator_rank
            parts = [(ctx.rank, q.nbytes, data)]
            if len(local) > 1:
                msgs = yield from comm.recv_many(
                    ctx, len(local) - 1, tag=("ina", run.op_seq, did, t)
                )
                parts.extend((m.source, m.nbytes, m.payload) for m in msgs)
            parts.sort(key=lambda p: p[0])
            total = sum(p[1] for p in parts)
            # the pooled slices occupy leader memory until shipped —
            # charged against the node's available memory
            staging.append(
                ctx.node.memory.alloc(
                    total, label=f"ina.{run.op_seq}.{did}.{t}"
                )
            )
            agg_node = comm.node_id_of_rank(agg)
            paged_map[agg_node] = paged_map.get(agg_node, False) or paged_wire
            items.append(
                (ctx.rank, agg, total, (run.op_seq, did, t),
                 _IntraNodeBundle(tuple(parts)))
            )
        yield from comm.staged_batched_send(
            ctx, ("ina", run.op_seq, t, my_node), n_leaders, items,
            paged_dst=paged_map,
        )
        for alloc in staging:
            ctx.node.memory.free(alloc)
        if tracer.enabled:
            tracer.complete(
                "shuffle", "shuffle.ina.lead", my_node, ctx.rank,
                lead_t0, tracer.now() - lead_t0,
                round=t, domains=len(duties),
                bytes=sum(it[2] for it in items),
            )
    if sends:
        yield env.all_of(sends)


def _member_round_ina_read(run: _RunContext, t: int, sends_to):
    """One rank's whole read-shuffle round under intra-node aggregation.

    Slices from a co-located aggregator arrive per-rank as usual; each
    remote aggregator sends this node's leader one bundle, which the
    leader unpacks (its own slice) and fans out to the co-located
    members over the shared-memory path.  Blocking waits only ever
    chain toward lower-ranked leaders on the same node, so the
    per-domain recv order cannot deadlock.

    A failed node receives per-rank instead (mirroring the write-side
    degradation): the aggregator skipped the bundle for it, so each
    member posts a plain receive and the would-be leader counts the
    degradation.
    """
    ctx, comm = run.ctx, run.comm
    my_pattern = run.patterns[ctx.rank]
    my_node = comm.node_id_of_rank(ctx.rank)
    env = ctx.env
    snap = run.stats.failed_nodes_snapshot((run.op_seq, t), comm.cluster)
    forwards = []
    staging = []
    for did in sends_to:
        domain = run.domains[did]
        window = run.sched.windows[did][t]
        agg = domain.aggregator_rank
        same_node = comm.node_id_of_rank(agg) == my_node
        q = my_pattern.clip(window.offset, window.end)
        tag = (run.op_seq, did, t)
        if same_node:
            msg = yield from comm.recv(ctx, source=agg, tag=tag)
            run.stats.record_shuffle(msg.nbytes, same_node=True)
            if run.payload is not None and msg.payload is not None:
                _unpack_payload(my_pattern, run.payload, q, msg.payload)
            continue
        local = _ina_groups(run, did, t)[my_node]
        if my_node in snap:
            msg = yield from comm.recv(ctx, source=agg, tag=tag)
            run.stats.record_shuffle(msg.nbytes, same_node=False)
            if run.payload is not None and msg.payload is not None:
                _unpack_payload(my_pattern, run.payload, q, msg.payload)
            if ctx.rank == local[0]:
                run.stats.record_ina_fallback()
                tracer = env.tracer
                if tracer.enabled:
                    tracer.instant(
                        "shuffle", "shuffle.ina.leader_fallback",
                        my_node, ctx.rank, domain=did, round=t,
                    )
            continue
        if ctx.rank == local[0]:
            msg = yield from comm.recv(ctx, source=agg, tag=tag)
            parts = (
                msg.payload.parts
                if isinstance(msg.payload, _IntraNodeBundle)
                else ((ctx.rank, msg.nbytes, msg.payload),)
            )
            remote_total = sum(nb for r, nb, _ in parts if r != ctx.rank)
            if remote_total:
                staging.append(
                    ctx.node.memory.alloc(
                        remote_total, label=f"ina.{run.op_seq}.{did}.{t}"
                    )
                )
            for r, nb, data in parts:
                if r == ctx.rank:
                    run.stats.record_shuffle(nb, same_node=False)
                    if run.payload is not None and data is not None:
                        _unpack_payload(my_pattern, run.payload, q, data)
                else:
                    forwards.append(
                        comm.isend(
                            ctx, r, nb,
                            tag=("inaf", run.op_seq, did, t), payload=data,
                        )
                    )
        else:
            msg = yield from comm.recv(
                ctx, source=local[0], tag=("inaf", run.op_seq, did, t)
            )
            run.stats.record_shuffle(msg.nbytes, same_node=False)
            if run.payload is not None and msg.payload is not None:
                _unpack_payload(my_pattern, run.payload, q, msg.payload)
    if forwards:
        yield env.all_of(forwards)
    for alloc in staging:
        ctx.node.memory.free(alloc)


# ---------------------------------------------------------------------------
# member side
# ---------------------------------------------------------------------------
def _member_window(run: _RunContext, did: int, window: Extent, t: int):
    """Send (write) or receive (read) this rank's bytes of `window`."""
    ctx, comm = run.ctx, run.comm
    domain = run.domains[did]
    my_pattern = run.patterns[ctx.rank]
    agg = domain.aggregator_rank
    same_node = comm.node_id_of_rank(agg) == comm.node_id_of_rank(ctx.rank)
    lo, hi = window.offset, window.end
    # metadata-only runs need just the byte count, not the clipped view
    nbytes = my_pattern.bytes_in(lo, hi)
    if not nbytes:
        return
    tag = (run.op_seq, did, t)
    if run.op == "write":
        data = (
            _pack_payload(my_pattern, run.payload, my_pattern.clip(lo, hi))
            if run.payload is not None
            else None
        )
        run.stats.record_shuffle(nbytes, same_node=same_node)
        # physical effect, not a planning decision: if the aggregator's
        # node is overcommitted, inbound data lands at paging speed
        agg_node = comm.node_of_rank(agg)
        paged_wire = domain.paged or agg_node.memory.overcommitted
        yield from comm.send(
            ctx, agg, nbytes, tag=tag, payload=data, paged_dst=paged_wire
        )
    else:
        msg = yield from comm.recv(ctx, source=agg, tag=tag)
        run.stats.record_shuffle(msg.nbytes, same_node=same_node)
        if run.payload is not None and msg.payload is not None:
            _unpack_payload(
                my_pattern, run.payload, my_pattern.clip(lo, hi), msg.payload
            )


# ---------------------------------------------------------------------------
# aggregator side
# ---------------------------------------------------------------------------
def _borrow_stage(run: _RunContext, did: int, lease, nbytes: int, inbound: bool):
    """Move `nbytes` between the aggregator and its leased remote buffer.

    A borrowed aggregation buffer lives on the lender node, so buffer
    assembly (`inbound`) and drain (outbound) cross the fabric at α–β
    cost instead of the local memory bus.  A lender that failed mid-round
    slows the transfer through the network's failure model; the lease
    itself is only revoked at the next round boundary.
    """
    ctx, comm = run.ctx, run.comm
    lender = comm.cluster.node_of(lease.lender_node)
    tracer = ctx.env.tracer
    t0 = tracer.now() if tracer.enabled else 0.0
    if inbound:
        yield from comm.cluster.network.transfer(ctx.node, lender, nbytes)
    else:
        yield from comm.cluster.network.transfer(lender, ctx.node, nbytes)
    run.stats.record_borrow_bytes(nbytes)
    if tracer.enabled:
        tracer.complete(
            "borrow", "borrow.stage" if inbound else "borrow.fetch",
            comm.placement[ctx.rank], ctx.rank, t0, tracer.now() - t0,
            domain=did, lender=lease.lender_node, bytes=nbytes,
        )


def _aggregator_window(
    run: _RunContext, did: int, window: Extent, t: int, paged: bool
):
    """One buffer round of one domain: exchange + I/O for `window`."""
    if run.op == "write":
        yield from _collect_and_write(run, did, window, t, paged)
    else:
        yield from _read_and_scatter(run, did, window, t, paged)


def _collect_and_write(run, did, window, t, paged, n_msgs=None):
    """Receive all contributions for `window`, assemble, write to the PFS.

    `n_msgs` is set when senders coalesce (intra-node aggregation: one
    :class:`_IntraNodeBundle` per remote node instead of one message per
    remote rank); those messages are drained with one counting
    :meth:`~repro.mpi.comm.SimComm.recv_many` instead of one posted
    receive per message (same arrival order, same completion time —
    unpacking costs no simulated time — but one resume per round).
    """
    ctx, comm, pfs = run.ctx, run.comm, run.pfs
    expected = run.sched.senders[did][t]
    tag = (run.op_seq, did, t)
    if n_msgs is not None:
        msgs = yield from comm.recv_many(ctx, n_msgs, tag=tag)
    else:
        msgs = []
        for _ in range(len(expected)):
            msg = yield from comm.recv(ctx, tag=tag)
            msgs.append(msg)
    buffer: Optional[np.ndarray] = None
    received = 0
    for msg in msgs:
        received += msg.nbytes
        parts = (
            msg.payload.parts
            if isinstance(msg.payload, _IntraNodeBundle)
            else ((msg.source, msg.nbytes, msg.payload),)
        )
        for src_rank, _nb, data in parts:
            if data is None:
                continue
            if buffer is None:
                buffer = np.zeros(window.length, dtype=np.uint8)
            q = run.patterns[src_rank].clip(window.offset, window.end)
            for off, ln, qbuf in q.iter_mapped_extents():
                rel = off - window.offset
                buffer[rel : rel + ln] = data[qbuf : qbuf + ln]
    if received == 0:
        return
    lease = run.borrow.lease_for(did) if run.borrow is not None else None
    if lease is not None:
        # assembly lands in the lender's leased buffer: α–β fabric cost
        # instead of the local memory bus
        yield from _borrow_stage(run, did, lease, received, inbound=True)
    else:
        # assemble the collective buffer: off-chip memory traffic,
        # throttled for paged buffers
        yield from run.node.memcopy(received, paged=paged)

    pieces = _union_extents(run.patterns, expected, window)
    if lease is not None and pieces:
        # pull the assembled round back from the lender for the write
        yield from _borrow_stage(
            run, did, lease, sum(p.length for p in pieces), inbound=False
        )
    for piece in pieces:
        data = None
        if buffer is not None:
            rel = piece.offset - window.offset
            data = buffer[rel : rel + piece.length]
        yield from pfs.write_extent(run.node, piece, data)
        run.stats.record_bytes(piece.length)
        run.stats.record_io_extent(piece.offset, piece.length)


def _read_and_scatter(
    run, did, window, t, paged, intra_node=False, failed_nodes=frozenset()
):
    """Read `window`'s requested extents, then send each rank its bytes.

    With `intra_node`, each remote node gets a single
    :class:`_IntraNodeBundle` addressed to its leader (lowest member
    rank), who fans the slices out locally — one wire message per node.
    Nodes in `failed_nodes` are never bundled: their would-be leader is
    crippled, so their members get plain per-rank sends instead.
    """
    ctx, comm, pfs, env = run.ctx, run.comm, run.pfs, run.ctx.env
    expected = run.sched.senders[did][t]
    if not expected:
        return
    buffer: Optional[np.ndarray] = (
        np.zeros(window.length, dtype=np.uint8) if pfs.datastore is not None else None
    )
    total_read = 0
    for piece in _union_extents(run.patterns, expected, window):
        data = yield from pfs.read_extent(run.node, piece)
        total_read += piece.length
        run.stats.record_bytes(piece.length)
        run.stats.record_io_extent(piece.offset, piece.length)
        if buffer is not None and data is not None:
            rel = piece.offset - window.offset
            buffer[rel : rel + piece.length] = data
    if total_read == 0:
        return
    lease = run.borrow.lease_for(did) if run.borrow is not None else None
    if lease is not None:
        # park the fresh read in the lender's leased buffer, then pull
        # it back for the scatter — both legs cross the fabric
        yield from _borrow_stage(run, did, lease, total_read, inbound=True)
        yield from _borrow_stage(run, did, lease, total_read, inbound=False)
    else:
        # stage the buffer through the memory system before scattering
        yield from run.node.memcopy(total_read, paged=paged)

    sends = []
    by_node: dict[int, list] = {}
    my_node = comm.node_id_of_rank(ctx.rank)
    tag = (run.op_seq, did, t)
    for r in expected:
        nbytes, data = _slice_for(run, r, window, buffer)
        dest_node = comm.node_id_of_rank(r)
        if intra_node and dest_node != my_node and dest_node not in failed_nodes:
            by_node.setdefault(dest_node, []).append((r, nbytes, data))
            continue
        sends.append(
            comm.isend(
                ctx, r, nbytes, tag=tag, payload=data, paged_dst=paged
            )
        )
    for dest_node in sorted(by_node):
        # one bundle to the node's leader; expected is rank-ordered,
        # so parts[0] is the lowest member rank on that node
        parts = by_node[dest_node]
        sends.append(
            comm.isend(
                ctx, parts[0][0], sum(p[1] for p in parts), tag=tag,
                payload=_IntraNodeBundle(tuple(parts)), paged_dst=paged,
            )
        )
    if sends:
        yield env.all_of(sends)
