"""Differential harness: per-rank reference vs group-sharded driver.

The equivalence contract (DESIGN.md §12): for plans the sharded driver
accepts — fault-free, lease-free, metadata-only collectives whose
aggregation groups do not share hosts — the merged stats must reproduce
every deterministic accounting field of the per-rank reference, and
must feed the byte-conservation auditor an identical
attempt/extent/shuffle record.  Only ``elapsed`` (the max over shard
chains), the plan-cache counters, and the execution-mode fields may
differ.

The golden cluster cases go through the same harness: their single-node
aggregator concentration makes most of them *refuse* (sharding is
partition-sensitive where vectorization is not), but equality must hold
either way — a refused cell is exactly the per-rank run.

``REPRO_TEST_JOBS`` sets the worker count (default 2) so CI can pin
both --jobs 2 and --jobs 4.
"""

from __future__ import annotations

import os

import pytest

from repro.core import MCIOConfig
from repro.core.request import AccessPattern, StridedSegment
from repro.parallel import ParallelRunner

from tests.goldens.cases import CLUSTER_CASES, build_patterns
from tests.helpers import assert_stats_equivalent, run_differential

KIB = 1024
JOBS = int(os.environ.get("REPRO_TEST_JOBS", "2"))
CASES = {c.name: c for c in CLUSTER_CASES}

#: Shard refusal reasons a golden case may legitimately hit (they pile
#: aggregators onto few nodes); anything else is a bug.
GOLDEN_REFUSALS = {"single-group", "shared-aggregator-host"}


@pytest.fixture(scope="module")
def runner():
    """One shared worker pool for the whole module (start-up amortised)."""
    with ParallelRunner(jobs=JOBS) as r:
        yield r


def multi_group_setup(n_ranks=8, n_nodes=4, cores=2, tile=4 * KIB):
    """A workload/config pair that genuinely shards: one serial tile per
    rank, group size = two tiles, one aggregator per node."""
    patterns = [
        AccessPattern.contiguous(r * tile, tile) for r in range(n_ranks)
    ]
    config = MCIOConfig(
        msg_group=2 * tile, msg_ind=tile // 2, mem_min=0, nah=1,
        cb_buffer_size=1024, min_buffer=1,
    )
    return patterns, config, dict(n_ranks=n_ranks, n_nodes=n_nodes, cores=cores)


class TestMultiGroupSharding:
    @pytest.mark.parametrize("op", ["write", "read"])
    def test_stats_equivalent_and_really_sharded(self, op, runner):
        patterns, config, shape = multi_group_setup()
        ref, cand, _, _ = run_differential(
            patterns, config, op=op, candidate_mode="sharded",
            runner=runner, **shape,
        )
        assert ref.execution_mode == "per-rank"
        assert cand.execution_mode == "sharded"
        assert cand.sharding_refusals == 0
        assert cand.extra["shards"] == min(JOBS, cand.n_groups)
        assert cand.n_groups >= 2
        assert_stats_equivalent(ref, cand)

    @pytest.mark.parametrize("op", ["write", "read"])
    def test_audit_records_equivalent(self, op, runner):
        patterns, config, shape = multi_group_setup()
        ref, cand, ref_aud, cand_aud = run_differential(
            patterns, config, op=op, candidate_mode="sharded",
            runner=runner, **shape,
        )
        ref_rec = ref_aud.verify(patterns)
        cand_rec = cand_aud.verify(patterns)
        assert ref_rec.attempts == cand_rec.attempts == 1
        assert ref_rec.extents == cand_rec.extents
        assert ref_rec.final_attempt_shuffle == cand_rec.final_attempt_shuffle

    def test_jobs_count_does_not_change_results(self):
        """1, 2, and 4 workers produce identical merged stats (the
        determinism contract: partitioning must not leak into counters)."""
        patterns, config, shape = multi_group_setup()
        outs = []
        for jobs in (1, 2, 4):
            _, cand, _, _ = run_differential(
                patterns, config, op="write", candidate_mode="sharded",
                jobs=jobs, **shape,
            )
            assert cand.execution_mode == "sharded"
            j = cand.to_json()
            # elapsed is the max over shard chains, so it legitimately
            # depends on the partitioning; everything else must not
            j.pop("elapsed")
            j["extra"] = {
                k: v for k, v in j["extra"].items() if k != "shards"
            }
            outs.append(j)
        assert outs[0] == outs[1] == outs[2]

    def test_interleaved_multi_group_workload(self, runner):
        """Groups fed by many ranks across nodes (inter-node shuffle)."""
        n_ranks, n_nodes, cores = 8, 4, 2
        chunk = KIB
        # each rank strides across the whole file: every group receives
        # data from every node
        patterns = [
            AccessPattern(
                (StridedSegment(r * chunk, chunk, n_ranks * chunk, 4),)
            )
            for r in range(n_ranks)
        ]
        # msg_ind == msg_group: one aggregator per group, so the four
        # groups land on four distinct nodes (nah=1) and sharding holds
        config = MCIOConfig(
            msg_group=8 * KIB, msg_ind=8 * KIB, mem_min=0, nah=1,
            cb_buffer_size=2 * KIB, min_buffer=1,
        )
        ref, cand, ref_aud, cand_aud = run_differential(
            patterns, config, op="write", candidate_mode="sharded",
            runner=runner, n_ranks=n_ranks, n_nodes=n_nodes, cores=cores,
        )
        assert cand.execution_mode == "sharded"
        assert cand.shuffle_inter_node_bytes > 0
        assert_stats_equivalent(ref, cand)
        assert ref_aud.verify(patterns).extents == \
            cand_aud.verify(patterns).extents


class TestGoldenMatrix:
    @pytest.mark.parametrize("case_name", sorted(CASES))
    @pytest.mark.parametrize("op", ["write", "read"])
    def test_stats_equivalent_on_golden_matrix(self, case_name, op, runner):
        """Sharded-or-refused, every golden case equals the reference."""
        case = CASES[case_name]
        patterns = build_patterns(case)
        config = MCIOConfig(
            msg_group=16 * KIB, msg_ind=2 * KIB, mem_min=0, nah=2,
            cb_buffer_size=case.cb_buffer_size, min_buffer=1,
        )
        ref, cand, ref_aud, cand_aud = run_differential(
            patterns, config, op=op,
            n_ranks=case.n_ranks, n_nodes=case.n_nodes, cores=case.cores,
            memory_availability=case.memory_availability,
            stripe_size=case.stripe_size,
            candidate_mode="sharded", runner=runner,
        )
        assert_stats_equivalent(ref, cand)
        if cand.execution_mode == "sharded":
            assert cand.sharding_refusals == 0
        else:
            assert cand.execution_mode == "per-rank"
            assert cand.sharding_refusals == 1
            assert cand.extra["sharding_refusal"] in GOLDEN_REFUSALS
        ref_rec = ref_aud.verify(patterns)
        cand_rec = cand_aud.verify(patterns)
        assert ref_rec.extents == cand_rec.extents
        assert ref_rec.final_attempt_shuffle == cand_rec.final_attempt_shuffle


class TestTraceAbsorption:
    def test_worker_timelines_land_on_parent_tracer(self):
        """With tracing enabled, shard events come home (absorbed with an
        offset) instead of vanishing in the worker processes."""
        from repro.core import MemoryConsciousCollectiveIO
        from repro.obs import Tracer
        from repro.parallel import run_sharded_collective

        from tests.helpers import make_stack

        patterns, config, shape = multi_group_setup()
        stack = make_stack(
            n_ranks=shape["n_ranks"], n_nodes=shape["n_nodes"],
            cores=shape["cores"], with_data=False,
        )
        tracer = Tracer()
        tracer.install(stack.env)
        engine = MemoryConsciousCollectiveIO(stack.comm, stack.pfs, config)
        stats = run_sharded_collective(engine, patterns, "write", jobs=2)
        assert stats.execution_mode == "sharded"
        events = list(tracer.events())
        assert events, "sharded run recorded no trace events"
        # rank-track events from the workers' sub-simulations made it home
        assert {e.pid for e in events if e.pid >= 0}, "no node-track events"


class TestHarnessDispatch:
    def test_sharded_mode_routes_through_run_collective(self):
        from repro.cluster import ClusterSpec, NodeSpec, StorageSpec
        from repro.core import MemoryConsciousCollectiveIO
        from repro.experiments.harness import Platform, run_collective

        patterns, config, shape = multi_group_setup()
        spec = ClusterSpec(
            nodes=shape["n_nodes"],
            node=NodeSpec(
                cores=shape["cores"], memory_bytes=10**9,
                memory_bandwidth=1e8, memory_channels=2,
                nic_bandwidth=1e7, nic_latency=1e-6,
            ),
            storage=StorageSpec(
                servers=4, server_bandwidth=1e6,
                request_overhead=1e-3, stripe_size=256,
            ),
        )
        platform = Platform.build(spec, shape["n_ranks"], with_data=False)
        from dataclasses import replace

        engine = MemoryConsciousCollectiveIO(
            platform.comm, platform.pfs,
            replace(config, execution_mode="sharded"),
        )
        stats = run_collective(platform, engine, patterns, ops=("write",))
        assert stats[0].execution_mode == "sharded"
