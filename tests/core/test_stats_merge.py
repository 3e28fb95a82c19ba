"""CollectiveStats.merge: the shard-fold the parallel driver relies on.

The merge must mirror how a single StatsCollector would have
accumulated the same run — counters sum, per-rank gauges max-merge,
sim-time maxes, cumulative engine counters max-merge — and must be an
identity on a single shard, so that sharded execution degenerates
gracefully at one worker.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core import MCIOConfig, MemoryConsciousCollectiveIO
from repro.core.metrics import CollectiveStats, StatsCollector
from repro.core.request import AccessPattern

from tests.helpers import EQUIVALENT_FIELDS, EXCLUDED_FIELDS, make_stack

KIB = 1024


def _collector_stats(
    op="write",
    n_ranks=4,
    total_bytes=0,
    rounds=0,
    intra=0,
    inter=0,
    aggs=(),
    paged=(),
    mode=None,
) -> CollectiveStats:
    """A finalized CollectiveStats with given counts."""
    c = StatsCollector("mcio", op, n_ranks=n_ranks)
    c.mark_start(0.0)
    if total_bytes:
        c.record_bytes(total_bytes)
    if rounds:
        c.record_rounds(rounds)
    if intra:
        c.record_shuffle(intra, same_node=True)
    if inter:
        c.record_shuffle(inter, same_node=False)
    for rank, nbytes in aggs:
        c.record_aggregator(rank, nbytes, paged=rank in paged)
    if mode is not None:
        c.record_execution_mode(mode)
    c.mark_end(1.0)
    return c.finalize()


class TestEdgeCases:
    def test_empty_shard_list_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            CollectiveStats.merge([])

    def test_single_shard_is_identity(self):
        s = _collector_stats(
            total_bytes=8 * KIB, rounds=3, intra=4 * KIB, inter=4 * KIB,
            aggs=((0, 2 * KIB), (2, KIB)), paged=(2,),
        )
        m = CollectiveStats.merge([s])
        assert m.to_json() == s.to_json()

    def test_merge_is_idempotent_on_merged_output(self):
        """merge([merge(shards)]) == merge(shards), counters
        included — re-folding never double-counts."""
        a = _collector_stats(total_bytes=KIB, rounds=1, intra=KIB,
                             aggs=((0, KIB),))
        b = _collector_stats(total_bytes=3 * KIB, rounds=2, inter=2 * KIB,
                             aggs=((5, 2 * KIB),))
        once = CollectiveStats.merge([a, b])
        again = CollectiveStats.merge([once])
        assert again.to_json() == once.to_json()

    def test_disagreeing_identity_fields_rejected(self):
        a = _collector_stats(op="write")
        b = _collector_stats(op="read")
        with pytest.raises(ValueError, match="disagree on op"):
            CollectiveStats.merge([a, b])
        c = _collector_stats(n_ranks=8)
        with pytest.raises(ValueError, match="disagree on n_ranks"):
            CollectiveStats.merge([_collector_stats(n_ranks=4), c])

    def test_inputs_not_mutated(self):
        a = _collector_stats(total_bytes=KIB, aggs=((0, KIB),))
        b = _collector_stats(total_bytes=KIB, aggs=((1, KIB),))
        before = (a.to_json(), b.to_json())
        CollectiveStats.merge([a, b])
        assert (a.to_json(), b.to_json()) == before


class TestFieldClasses:
    def test_counters_sum_and_gauges_max(self):
        a = _collector_stats(
            total_bytes=4 * KIB, rounds=2, intra=2 * KIB, inter=KIB,
            aggs=((0, 2 * KIB), (2, KIB)), paged=(2,),
        )
        b = _collector_stats(
            total_bytes=8 * KIB, rounds=3, intra=KIB, inter=4 * KIB,
            aggs=((0, 3 * KIB), (5, KIB)), paged=(),
        )
        m = CollectiveStats.merge([a, b])
        assert m.total_bytes == 12 * KIB
        assert m.rounds_total == 5
        assert m.shuffle_intra_node_bytes == 3 * KIB
        assert m.shuffle_inter_node_bytes == 5 * KIB
        # gauge: rank 0 appears in both shards — keep the peak, not sum
        assert m.agg_buffer_bytes == {0: 3 * KIB, 2: KIB, 5: KIB}
        assert m.aggregator_ranks == (0, 2, 5)
        assert m.n_aggregators == 3
        assert m.paged_aggregators == 1
        # sim-time: concurrent shards → the slowest one
        assert m.elapsed == max(a.elapsed, b.elapsed)

    def test_mixed_execution_modes(self):
        """A vectorized-mode shard merged with a per-rank one → "mixed"
        (n.b. real sharded runs are uniform; this pins the contract)."""
        a = _collector_stats(mode="vectorized")
        b = _collector_stats()  # finalize default: "per-rank"
        m = CollectiveStats.merge([a, b])
        assert m.execution_mode == "mixed"
        uniform = CollectiveStats.merge([a, _collector_stats(mode="vectorized")])
        assert uniform.execution_mode == "vectorized"

    def test_n_groups_sums_across_shards(self):
        a = CollectiveStats.from_json(
            dict(_collector_stats().to_json(), n_groups=2)
        )
        b = CollectiveStats.from_json(
            dict(_collector_stats().to_json(), n_groups=3)
        )
        m = CollectiveStats.merge([a, b])
        assert m.n_groups == 5

    def test_plan_cache_counters_max_merge(self):
        a = CollectiveStats.from_json(
            dict(_collector_stats().to_json(), plan_cache_hits=3,
                 planning_tree_queries=10)
        )
        b = CollectiveStats.from_json(
            dict(_collector_stats().to_json(), plan_cache_hits=1,
                 planning_tree_queries=10)
        )
        m = CollectiveStats.merge([a, b])
        assert m.plan_cache_hits == 3
        assert m.planning_tree_queries == 10


    def test_every_field_merges_by_its_rule(self):
        common = dict(strategy="mcio", op="write", n_ranks=8,
                      degraded_tier=None)
        a = CollectiveStats(
            **common, total_bytes=100, elapsed=1.0, n_aggregators=2,
            aggregator_ranks=(0, 2), agg_buffer_bytes={0: 10, 2: 30},
            agg_overcommit_bytes={0: 5, 2: 0}, paged_aggregators=1,
            rounds_total=2, shuffle_intra_node_bytes=10,
            shuffle_inter_node_bytes=20, shuffle_inter_group_bytes=1,
            n_groups=2, extra={"a": 1, "k": "x"}, io_retries=1,
            io_abandons=0, failovers=1, plan_cached=False,
            plan_cache_hits=3, plan_cache_misses=1,
            plan_cache_invalidations=0, planning_tree_queries=10,
            leases_granted=1, leases_renewed=0, leases_revoked=1,
            leases_expired=0, borrow_bytes=100, borrow_fallbacks=0,
            ina_fallbacks=1, execution_mode="sharded",
            vectorized_refusals=0, sharding_refusals=1,
        )
        b = CollectiveStats(
            **common, total_bytes=50, elapsed=2.5, n_aggregators=2,
            aggregator_ranks=(2, 5), agg_buffer_bytes={2: 20, 5: 40},
            agg_overcommit_bytes={2: 7, 5: 1}, paged_aggregators=2,
            rounds_total=3, shuffle_intra_node_bytes=1,
            shuffle_inter_node_bytes=2, shuffle_inter_group_bytes=3,
            n_groups=1, extra={"k": "y", "b": 2}, io_retries=2,
            io_abandons=1, failovers=0, plan_cached=True,
            plan_cache_hits=2, plan_cache_misses=4,
            plan_cache_invalidations=1, planning_tree_queries=7,
            leases_granted=0, leases_renewed=2, leases_revoked=0,
            leases_expired=3, borrow_bytes=1, borrow_fallbacks=1,
            ina_fallbacks=0, execution_mode="per-rank",
            vectorized_refusals=1, sharding_refusals=0,
        )
        expected = dict(
            **common, total_bytes=150, elapsed=2.5, n_aggregators=3,
            aggregator_ranks=(0, 2, 5),
            agg_buffer_bytes={0: 10, 2: 30, 5: 40},
            agg_overcommit_bytes={0: 5, 2: 7, 5: 1}, paged_aggregators=3,
            rounds_total=5, shuffle_intra_node_bytes=11,
            shuffle_inter_node_bytes=22, shuffle_inter_group_bytes=4,
            n_groups=3, extra={"a": 1, "k": "y", "b": 2}, io_retries=3,
            io_abandons=1, failovers=1, plan_cached=True,
            plan_cache_hits=3, plan_cache_misses=4,
            plan_cache_invalidations=1, planning_tree_queries=10,
            leases_granted=1, leases_renewed=2, leases_revoked=1,
            leases_expired=3, borrow_bytes=101, borrow_fallbacks=1,
            ina_fallbacks=1, execution_mode="mixed",
            vectorized_refusals=1, sharding_refusals=1,
        )
        names = {f.name for f in dataclasses.fields(CollectiveStats)}
        assert set(expected) == names
        m = CollectiveStats.merge([a, b])
        assert {name: getattr(m, name) for name in names} == expected
        with pytest.raises(ValueError, match="disagree on degraded_tier"):
            CollectiveStats.merge(
                [a, dataclasses.replace(b, degraded_tier="two-phase")]
            )


class TestCollector:
    def test_record_methods_accumulate(self):
        c = StatsCollector("mcio", "write", n_ranks=4)
        c.record_bytes(1000)
        c.record_bytes(24)
        c.record_shuffle(500, same_node=True)
        c.record_shuffle(300, same_node=False)
        c.record_shuffle(200, same_node=False, same_group=False)
        c.record_rounds(3)
        c.record_failover()
        c.record_aggregator(2, 4096, paged=True, overcommit_bytes=128)
        c.record_aggregator(2, 1024, paged=False)
        c.record_lease("granted")
        c.record_lease("expired")

        assert c.total_bytes == 1024
        assert c.shuffle_intra_node_bytes == 500
        assert c.shuffle_inter_node_bytes == 500
        assert c.shuffle_inter_group_bytes == 200
        assert c.rounds_total == 3
        assert c.failovers == 1
        assert c.agg_buffer_bytes == {2: 4096}  # peak, not last
        assert c.agg_overcommit_bytes == {2: 128}
        assert c.paged_aggregators == {2}
        assert (c.leases_granted, c.leases_expired) == (1, 1)

    def test_finalize_folds_attributes(self):
        c = StatsCollector("mcio", "write", n_ranks=4)
        c.mark_start(0.0)
        c.mark_end(1.0)
        c.record_bytes(77)
        c.record_aggregator(1, 10, paged=True)
        c.record_aggregator(4, 20, paged=False)
        stats = c.finalize()
        assert stats.total_bytes == 77
        assert stats.elapsed == 1.0
        assert stats.aggregator_ranks == (1, 4)
        assert stats.n_aggregators == 2
        assert stats.agg_buffer_bytes == {1: 10, 4: 20}
        assert stats.paged_aggregators == 1
        # the summary owns its containers
        c.record_aggregator(7, 5, paged=False)
        assert stats.agg_buffer_bytes == {1: 10, 4: 20}


def test_differential_fields_cover_schema():
    """A new CollectiveStats field must be compared by the vectorized and
    sharded differential harnesses, or excluded from them by name."""
    names = [f.name for f in dataclasses.fields(CollectiveStats)]
    assert not set(EQUIVALENT_FIELDS) & set(EXCLUDED_FIELDS)
    assert sorted(names) == sorted(EQUIVALENT_FIELDS + EXCLUDED_FIELDS)


class TestAgainstRealRun:
    def test_merge_of_real_shard_stats_matches_unsharded_run(self):
        """Two real quarter-runs merged equal one full run's counters.

        Runs the same 4-group workload once whole and once as two
        engine-level halves (disjoint rank pattern subsets padded with
        empty views), then checks the additive fields line up — the
        micro version of the sharded driver's equivalence contract.
        """
        n_ranks = 8
        pats = [
            AccessPattern.contiguous(r * 4 * KIB, 4 * KIB)
            for r in range(n_ranks)
        ]
        cfg = MCIOConfig(
            msg_group=8 * KIB, msg_ind=2 * KIB, mem_min=0, nah=1,
            cb_buffer_size=1024, min_buffer=1,
        )

        def run_once(patterns):
            stack = make_stack(
                n_ranks=n_ranks, n_nodes=4, cores=2, with_data=False
            )
            engine = MemoryConsciousCollectiveIO(stack.comm, stack.pfs, cfg)

            def main(ctx):
                yield from engine.write(ctx, patterns[ctx.rank])

            stack.run_spmd(main)
            return engine.history[-1]

        whole = run_once(pats)
        empty = AccessPattern(())
        lo = run_once([p if r < 4 else empty for r, p in enumerate(pats)])
        hi = run_once([p if r >= 4 else empty for r, p in enumerate(pats)])
        merged = CollectiveStats.merge([lo, hi])
        assert merged.total_bytes == whole.total_bytes
        assert merged.rounds_total == whole.rounds_total
        assert merged.n_groups == whole.n_groups
        assert merged.agg_buffer_bytes == whole.agg_buffer_bytes
        assert merged.aggregator_ranks == whole.aggregator_ranks
        assert (
            merged.shuffle_intra_node_bytes + merged.shuffle_inter_node_bytes
            == whole.shuffle_intra_node_bytes + whole.shuffle_inter_node_bytes
        )
