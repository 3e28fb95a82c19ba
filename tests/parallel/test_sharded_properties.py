"""Property-based per-rank vs sharded equivalence (seeded hypothesis).

The process-pool sibling of ``test_vectorized_properties``: hypothesis
draws whole configurations — workload shape, rank and node counts,
memory regime, placement policy, intra-node aggregation, op — and every drawn cell must satisfy the sharded
equivalence contract: identical I/O extents and offsets, identical
shuffle byte split, and the same refusal-or-shard decision at every
worker count.  Refused cells serve per-rank and must *still* equal the
reference bit-for-bit.

``derandomize=True`` keeps CI deterministic; the example budget (120)
covers the issue's floor of 100 generated configurations.  A single
module-scoped worker pool is shared across examples so the suite pays
pool start-up once, not per-example.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MCIOConfig
from repro.core.request import AccessPattern, StridedSegment
from repro.parallel import ParallelRunner

from tests.helpers import assert_stats_equivalent, run_differential

KIB = 1024
JOBS = int(os.environ.get("REPRO_TEST_JOBS", "2"))

#: Reasons a fault-free, lease-capable drawn cell may refuse sharding.
VALID_REFUSALS = {
    "single-group",
    "shared-aggregator-host",
    "lender-domains",
    "independent-tier",
}


@pytest.fixture(scope="module")
def runner():
    with ParallelRunner(jobs=JOBS) as r:
        yield r


@st.composite
def workloads(draw):
    """A small cluster shape plus per-rank file views."""
    n_nodes = draw(st.integers(min_value=1, max_value=4))
    cores = draw(st.integers(min_value=1, max_value=4))
    n_ranks = draw(st.integers(min_value=1, max_value=n_nodes * cores))
    shape = draw(st.sampled_from(["serial", "interleaved", "sparse"]))
    block = draw(st.sampled_from([96, 256, 700, 2048]))
    if shape == "serial":
        gap = draw(st.integers(min_value=0, max_value=64))
        patterns, pos = [], 0
        for r in range(n_ranks):
            length = block + 17 * (r % 5)
            patterns.append(AccessPattern.contiguous(pos, length))
            pos += length + gap
    elif shape == "interleaved":
        count = draw(st.integers(min_value=2, max_value=6))
        stride = block * n_ranks
        patterns = [
            AccessPattern((StridedSegment(r * block, block, stride, count),))
            for r in range(n_ranks)
        ]
    else:
        # sparse: some ranks have no data at all
        keep_mod = draw(st.integers(min_value=2, max_value=3))
        patterns = [
            AccessPattern.contiguous(r * 2 * block, block)
            if r % keep_mod == 0
            else AccessPattern(())
            for r in range(n_ranks)
        ]
    return n_ranks, n_nodes, cores, patterns


@st.composite
def configs(draw):
    """An MCIOConfig spanning policies, buffers, and execution knobs.

    ``msg_group`` skews smaller than the vectorized twin so a healthy
    fraction of drawn plans actually split into several groups and
    exercise the worker path, not just the refusal fallback.
    """
    msg_group = draw(st.sampled_from([2 * KIB, 4 * KIB, 16 * KIB, 1 << 30]))
    return dict(
        msg_group=msg_group,
        # the config forbids msg_ind > msg_group
        msg_ind=min(draw(st.sampled_from([512, 2 * KIB, 8 * KIB])), msg_group),
        cb_buffer_size=draw(st.sampled_from([256, 1024, 8 * KIB])),
        mem_min=0,
        nah=draw(st.integers(min_value=1, max_value=3)),
        min_buffer=1,
        adaptive_buffer=draw(st.booleans()),
        placement_policy=draw(st.sampled_from(["remerge", "hybrid"])),
        intra_node_aggregation=draw(st.booleans()),
        failover=draw(st.booleans()),
    )


@st.composite
def shardable_workloads(draw):
    """Node-filling serial tiles with per-node group size: these plans
    split into one group per node, so (unlike the broad draw above,
    which mostly refuses) every example exercises the worker path."""
    n_nodes = draw(st.integers(min_value=2, max_value=4))
    cores = draw(st.integers(min_value=1, max_value=4))
    n_ranks = n_nodes * cores
    tile = draw(st.sampled_from([2 * KIB, 4 * KIB, 8 * KIB]))
    patterns = [
        AccessPattern.contiguous(r * tile, tile) for r in range(n_ranks)
    ]
    config = dict(
        msg_group=tile * cores,
        msg_ind=draw(st.sampled_from([tile // 2, tile])),
        mem_min=0,
        nah=1,
        cb_buffer_size=draw(st.sampled_from([1024, 2 * KIB])),
        min_buffer=1,
        adaptive_buffer=draw(st.booleans()),
        intra_node_aggregation=draw(st.booleans()),
    )
    return n_ranks, n_nodes, cores, patterns, config


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    workload=workloads(),
    config=configs(),
    memory_regime=st.sampled_from(["rich", "tight", "skewed"]),
    op=st.sampled_from(["write", "read"]),
)
def test_sharded_matches_per_rank(workload, config, memory_regime, op, runner):
    n_ranks, n_nodes, cores, patterns = workload
    memory = {
        "rich": None,
        "tight": tuple(3 * KIB for _ in range(n_nodes)),
        "skewed": tuple(
            10**9 if n % 2 == 0 else 2 * KIB for n in range(n_nodes)
        ),
    }[memory_regime]

    ref, cand, ref_aud, cand_aud = run_differential(
        patterns,
        MCIOConfig(**config),
        op=op,
        n_ranks=n_ranks,
        n_nodes=n_nodes,
        cores=cores,
        memory_availability=memory,
        candidate_mode="sharded",
        runner=runner,
    )

    # stats contract: every deterministic accounting field agrees —
    # including offsets/extents (via total_bytes + the audit records),
    # shuffle byte split, lease counters, and the degraded_tier decision
    assert_stats_equivalent(ref, cand)

    # the sharded path either runs clean or refuses for a known reason
    # and serves the collective per-rank
    if cand.execution_mode == "sharded":
        assert cand.sharding_refusals == 0
        assert cand.n_groups >= 2
        assert 1 <= cand.extra["shards"] <= min(JOBS, cand.n_groups)
    else:
        assert cand.execution_mode == "per-rank"
        assert cand.sharding_refusals == 1
        assert cand.extra["sharding_refusal"] in VALID_REFUSALS

    # byte-conservation audit on both paths, with identical records
    active = [p for p in patterns if not p.empty]
    if active:
        ref_rec = ref_aud.verify(patterns)
        cand_rec = cand_aud.verify(patterns)
        assert ref_rec.extents == cand_rec.extents
        assert ref_rec.final_attempt_shuffle == cand_rec.final_attempt_shuffle
        assert ref_rec.attempts == cand_rec.attempts

    # lease-ledger balance on the candidate stack (hygiene even when
    # the run was refused and served per-rank)
    assert cand_aud is not None
    assert not cand_aud._ledger_violations()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(workload=shardable_workloads(), op=st.sampled_from(["write", "read"]))
def test_shard_friendly_plans_run_sharded_and_match(workload, op, runner):
    """Every shard-friendly draw must take the worker path — no silent
    degradation to the per-rank fallback — and still match exactly."""
    n_ranks, n_nodes, cores, patterns, config = workload
    ref, cand, ref_aud, cand_aud = run_differential(
        patterns,
        MCIOConfig(**config),
        op=op,
        n_ranks=n_ranks,
        n_nodes=n_nodes,
        cores=cores,
        candidate_mode="sharded",
        runner=runner,
    )
    assert cand.execution_mode == "sharded"
    assert cand.sharding_refusals == 0
    assert 2 <= cand.n_groups <= n_nodes
    assert_stats_equivalent(ref, cand)
    ref_rec = ref_aud.verify(patterns)
    cand_rec = cand_aud.verify(patterns)
    assert ref_rec.extents == cand_rec.extents
    assert ref_rec.final_attempt_shuffle == cand_rec.final_attempt_shuffle
