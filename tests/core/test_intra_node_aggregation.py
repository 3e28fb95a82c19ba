"""Intra-node request aggregation: correctness + wire-message reduction.

With ``intra_node_aggregation=True`` each (node, file domain, window)
elects one leader rank; non-leaders hand their window slices to the
leader over the zero-wire intra-node fabric, and only the leader talks
to the aggregator.  These tests pin

* byte-exact file contents and read-back payloads vs the per-rank
  exchange, for both MCIO and the two-phase baseline;
* identical *logical* shuffle statistics (each rank still accounts for
  its own slice) while the *physical* inter-node message counter drops
  by the ranks-per-node factor;
* leader staging memory charged against the node and fully released;
* graceful fallback to the per-rank path whenever fault machinery is
  armed (failover enabled, failed nodes);
* composition with the plan cache.
"""

import hashlib

import numpy as np
import pytest

from repro.core import (
    MCIOConfig,
    MemoryConsciousCollectiveIO,
    TwoPhaseCollectiveIO,
    TwoPhaseConfig,
)
from repro.core.request import AccessPattern, StridedSegment

from tests.helpers import make_stack, rank_payload

KIB = 1024

N_RANKS = 16
N_NODES = 4
CORES = 4


def mcio_cfg(**kw):
    defaults = dict(
        msg_group=16 * KIB, msg_ind=2 * KIB, mem_min=0, nah=2,
        cb_buffer_size=2 * KIB, min_buffer=1, failover=False,
    )
    defaults.update(kw)
    return MCIOConfig(**defaults)


def interleaved(rank: int, n: int = N_RANKS) -> AccessPattern:
    block = 64
    return AccessPattern(
        (StridedSegment(rank * block, block, block * n, 8),)
    )


def _build(strategy: str, intra_node: bool, **cfg_kw):
    stack = make_stack(n_ranks=N_RANKS, n_nodes=N_NODES, cores=CORES)
    if strategy == "mcio":
        engine = MemoryConsciousCollectiveIO(
            stack.comm, stack.pfs,
            mcio_cfg(intra_node_aggregation=intra_node, **cfg_kw),
        )
    else:
        engine = TwoPhaseCollectiveIO(
            stack.comm, stack.pfs,
            TwoPhaseConfig(cb_buffer_size=2 * KIB,
                           intra_node_aggregation=intra_node, **cfg_kw),
        )
    return stack, engine


def _write_once(stack, engine):
    def main(ctx):
        pattern = interleaved(ctx.rank)
        yield from engine.write(
            ctx, pattern, rank_payload(ctx.rank, pattern.nbytes)
        )

    stack.run_spmd(main)


def _read_once(stack, engine):
    end = max(interleaved(r).end for r in range(N_RANKS))
    idx = np.arange(end, dtype=np.int64)
    stack.pfs.datastore.write(0, ((idx * 31 + 7) % 251).astype(np.uint8))

    def main(ctx):
        data = yield from engine.read(ctx, interleaved(ctx.rank))
        return data

    return stack.run_spmd(main)


def _image(stack) -> bytes:
    end = max(interleaved(r).end for r in range(N_RANKS))
    return np.asarray(
        stack.pfs.datastore.read(0, end), dtype=np.uint8
    ).tobytes()


@pytest.mark.parametrize("strategy", ["mcio", "two-phase"])
class TestByteEquivalence:
    def test_write_contents_identical(self, strategy):
        images = {}
        for intra_node in (False, True):
            stack, engine = _build(strategy, intra_node)
            _write_once(stack, engine)
            images[intra_node] = _image(stack)
        assert images[True] == images[False]

    def test_read_payloads_identical(self, strategy):
        payloads = {}
        for intra_node in (False, True):
            stack, engine = _build(strategy, intra_node)
            results = _read_once(stack, engine)
            payloads[intra_node] = [
                hashlib.sha256(
                    np.asarray(results[r], dtype=np.uint8).tobytes()
                ).hexdigest()
                for r in range(N_RANKS)
            ]
        assert payloads[True] == payloads[False]

    def test_logical_stats_identical(self, strategy):
        """Each rank still accounts for its own slice: same shuffle stats."""
        stats = {}
        for intra_node in (False, True):
            stack, engine = _build(strategy, intra_node)
            _write_once(stack, engine)
            h = engine.history[0]
            stats[intra_node] = (
                h.total_bytes,
                h.shuffle_intra_node_bytes + h.shuffle_inter_node_bytes,
                h.rounds_total,
                h.aggregator_ranks,
            )
        assert stats[True] == stats[False]


@pytest.mark.parametrize("strategy", ["mcio", "two-phase"])
class TestWireMessages:
    def test_write_and_read_message_factor(self, strategy):
        """Per-round wire messages drop by the ranks-per-node factor.

        Every rank touches every window of every domain in the fully
        interleaved workload, so the per-rank path sends one message per
        (sender, domain-window) while the aggregated path sends one per
        (sender *node*, domain-window): exactly CORES times fewer.
        """
        counts = {}
        for intra_node in (False, True):
            stack, engine = _build(strategy, intra_node)
            _write_once(stack, engine)
            _read_once(stack, engine)
            counts[intra_node] = stack.cluster.network.inter_node_messages
        assert counts[True] > 0
        assert counts[False] == CORES * counts[True]


class TestMemoryAndFallback:
    def test_leader_staging_memory_released(self):
        stack, engine = _build("mcio", intra_node=True)
        _write_once(stack, engine)
        assert all(
            node.memory.committed == 0 for node in stack.cluster.nodes
        )
        assert all(
            node.memory.peak_committed > 0 for node in stack.cluster.nodes
        )

    def test_failover_enabled_falls_back_to_per_rank(self):
        """With fault machinery armed the per-rank round path runs."""
        clocks = {}
        for intra_node in (False, True):
            stack, engine = _build("mcio", intra_node, failover=True)
            _write_once(stack, engine)
            clocks[intra_node] = (
                float(stack.env.now).hex(),
                stack.cluster.network.inter_node_messages,
            )
        assert clocks[True] == clocks[False]

    def test_failed_node_falls_back_to_per_rank(self):
        counts = {}
        for intra_node in (False, True):
            stack, engine = _build("mcio", intra_node)
            stack.cluster.nodes[N_NODES - 1].fail()
            _write_once(stack, engine)
            counts[intra_node] = stack.cluster.network.inter_node_messages
        assert counts[True] == counts[False]

    # mid-run death tests need genuinely *multi-round* domains: the
    # failed-node snapshot is pinned once per lockstep round, so a fault
    # can only flip rounds whose snapshot lands after it.  Deep per-rank
    # patterns + memory-tight hosts give 4 rounds at ~elapsed/4 spacing;
    # a fault at 0.4x elapsed leaves the last two rounds to degrade.
    DEEP_REPS = 128

    @classmethod
    def _deep(cls, rank):
        block = 64
        return AccessPattern(
            (StridedSegment(rank * block, block, block * N_RANKS, cls.DEEP_REPS),)
        )

    @classmethod
    def _build_tight(cls, intra_node):
        stack = make_stack(n_ranks=N_RANKS, n_nodes=N_NODES, cores=CORES)
        for node in stack.cluster.nodes:
            node.memory.set_available(8 * KIB)
        engine = MemoryConsciousCollectiveIO(
            stack.comm, stack.pfs,
            mcio_cfg(
                msg_group=1 << 30,
                intra_node_aggregation=intra_node,
            ),
        )
        return stack, engine

    def test_mid_run_leader_node_death_degrades_to_per_rank(self):
        """A leader host dying *between election and ship* must not bundle.

        Leaders are elected per (node, domain, window) at planning time;
        if their host fails mid-collective, later windows on that node
        ship per-rank straight to the aggregator (the bundle would ride
        a dead leader).  The write must still complete with the exact
        bytes of the per-rank path, and the degradation must be counted.
        """
        probe_stack, probe_engine = self._build_tight(intra_node=True)

        def probe_main(ctx):
            pattern = self._deep(ctx.rank)
            yield from probe_engine.write(
                ctx, pattern, rank_payload(ctx.rank, pattern.nbytes)
            )

        probe_stack.run_spmd(probe_main)
        fault_at = probe_engine.history[0].elapsed * 0.4
        end = max(self._deep(r).end for r in range(N_RANKS))
        clean_image = bytes(
            np.asarray(probe_stack.pfs.datastore.read(0, end), dtype=np.uint8)
        )

        images = {}
        fallbacks = {}
        for intra_node in (False, True):
            stack, engine = self._build_tight(intra_node)
            victim = stack.cluster.nodes[0]

            def main(ctx):
                if ctx.rank == 0:
                    def saboteur():
                        yield ctx.env.sleep(fault_at)
                        victim.fail()
                    ctx.spawn(saboteur(), name="leader-killer")
                pattern = self._deep(ctx.rank)
                yield from engine.write(
                    ctx, pattern, rank_payload(ctx.rank, pattern.nbytes)
                )

            stack.run_spmd(main)
            images[intra_node] = bytes(
                np.asarray(stack.pfs.datastore.read(0, end), dtype=np.uint8)
            )
            fallbacks[intra_node] = engine.history[0].ina_fallbacks
            assert all(
                node.memory.committed == 0 for node in stack.cluster.nodes
            )
        assert images[True] == images[False] == clean_image
        assert fallbacks[True] > 0, "expected counted per-rank degradations"
        assert fallbacks[False] == 0

    def test_mid_run_leader_node_death_degrades_reads_too(self):
        probe_stack, probe_engine = self._build_tight(intra_node=True)
        end = max(self._deep(r).end for r in range(N_RANKS))
        idx = np.arange(end, dtype=np.int64)
        file_bytes = ((idx * 31 + 7) % 251).astype(np.uint8)
        probe_stack.pfs.datastore.write(0, file_bytes)

        def probe_main(ctx):
            data = yield from probe_engine.read(ctx, self._deep(ctx.rank))
            return data

        probe_stack.run_spmd(probe_main)
        fault_at = probe_engine.history[0].elapsed * 0.4

        payloads = {}
        fallbacks = {}
        for intra_node in (False, True):
            stack, engine = self._build_tight(intra_node)
            victim = stack.cluster.nodes[0]
            stack.pfs.datastore.write(0, file_bytes)

            def main(ctx):
                if ctx.rank == 0:
                    def saboteur():
                        yield ctx.env.sleep(fault_at)
                        victim.fail()
                    ctx.spawn(saboteur(), name="leader-killer")
                data = yield from engine.read(ctx, self._deep(ctx.rank))
                return data

            results = stack.run_spmd(main)
            payloads[intra_node] = [
                hashlib.sha256(
                    np.asarray(results[r], dtype=np.uint8).tobytes()
                ).hexdigest()
                for r in range(N_RANKS)
            ]
            fallbacks[intra_node] = engine.history[0].ina_fallbacks
        assert payloads[True] == payloads[False]
        assert fallbacks[True] > 0
        assert fallbacks[False] == 0

    def test_composes_with_plan_cache(self):
        stack, engine = _build("mcio", intra_node=True, plan_cache=True)

        def main(ctx):
            pattern = interleaved(ctx.rank)
            data = rank_payload(ctx.rank, pattern.nbytes)
            for _ in range(3):
                yield from engine.write(ctx, pattern, data.copy())

        stack.run_spmd(main)
        assert engine.plan_cache.stats.hits == 2
        base_stack, base_engine = _build("mcio", intra_node=True)
        _write_once(base_stack, base_engine)
        per_op = base_stack.cluster.network.inter_node_messages
        assert stack.cluster.network.inter_node_messages == 3 * per_op
