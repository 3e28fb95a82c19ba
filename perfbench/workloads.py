"""The benchmark's four workloads: inputs, the timed batch, the output check.

Every workload is a closed batch: a fixed set of collectives run back to
back in one process, serially (no worker pool), with no arrival rate in
host time.  A workload has three steps:

``setup(seed)``
    Build the inputs: access patterns or tenant jobs, platforms, the
    seeded memory-availability draw, engines and tenancy hosts.  Timed
    as ``setup_s``.
``run(inputs)``
    Run the collectives.  Timed as ``wall_s``.
``check(inputs, result)``
    Turn the simulated outputs into :class:`Group` records: each holds
    the canonical simulated output the digest gate compares and the
    problems the invariant checks found.

The seed drives the memory-availability draw (the figure and vectorized
workloads) and the tenancy arrival stream (``tenants-shared``); nothing
else is random.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field

import numpy as np

from repro.cluster import MIB, ClusterSpec, NodeSpec, StorageSpec, ross13_testbed
from repro.core import (
    MCIOConfig,
    MemoryConsciousCollectiveIO,
    TwoPhaseCollectiveIO,
    TwoPhaseConfig,
)
from repro.core import vectorized
from repro.core.pattern_array import PatternArray
from repro.experiments import harness
from repro.experiments.scale_sweep import build_spec
from repro.parallel import cell_seed
from repro.tenancy import TenancyHost, jobs_from_arrivals, resolve_policy
from repro.tenancy import host as tenancy_host
from repro.workloads import CollPerfWorkload, IORWorkload, PoissonArrivals

__all__ = ["Group", "WORKLOADS"]

KIB = 1024
OPS = ("write", "read")


@dataclass
class Group:
    """One checked unit of simulated output.

    A group is one collective, or one tenancy cell (a shared run plus its
    isolated baselines); a digest mismatch or a problem fails all of its
    ``collectives``.
    """

    label: str
    collectives: int
    output: object
    problems: list[str] = field(default_factory=list)


def sim_output(stats) -> dict:
    """The simulated fields of one collective that the digest covers."""
    return {
        "strategy": stats.strategy,
        "op": stats.op,
        "total_bytes": stats.total_bytes,
        "elapsed": stats.elapsed,
        "bandwidth_mib": stats.bandwidth_mib,
        "n_aggregators": stats.n_aggregators,
        "aggregator_ranks": list(stats.aggregator_ranks),
        "rounds_total": stats.rounds_total,
        "shuffle_intra_node_bytes": stats.shuffle_intra_node_bytes,
        "shuffle_inter_node_bytes": stats.shuffle_inter_node_bytes,
        "shuffle_inter_group_bytes": stats.shuffle_inter_group_bytes,
    }


def stats_problems(stats, total_bytes: int, mode: str) -> list[str]:
    """Invariant violations of one collective's stats."""
    problems = []
    if stats.total_bytes != total_bytes:
        problems.append(f"total_bytes {stats.total_bytes} != {total_bytes}")
    if stats.execution_mode != mode:
        problems.append(f"execution_mode {stats.execution_mode!r} != {mode!r}")
    if mode == "vectorized" and stats.vectorized_refusals:
        problems.append(f"{stats.vectorized_refusals} vectorized refusal(s)")
    if not stats.elapsed > 0:
        problems.append(f"elapsed {stats.elapsed!r} is not positive")
    return problems


def stats_groups(label: str, stats_list, total_bytes: int, mode: str) -> list[Group]:
    return [
        Group(
            label=f"{label}/{stats.op}",
            collectives=1,
            output=sim_output(stats),
            problems=stats_problems(stats, total_bytes, mode),
        )
        for stats in stats_list
    ]


def draw_availability(cluster, mean_bytes: float, sigma_bytes: float, seed: int):
    """Seeded per-node available memory from N(mean, sigma), stratified.

    The values are the node count's evenly spaced quantiles of the
    normal distribution, clipped like
    ``Cluster.sample_memory_availability`` (1 MiB up to the node's
    memory), dealt to the nodes in a seeded random order.  Each node's
    value is still a draw from the paper's distribution, but every seed
    sees the same set of values, so the amount of planning and shuffle
    work moves much less between seeds than with independent draws.
    """
    n = len(cluster.nodes)
    dist = statistics.NormalDist(mean_bytes, sigma_bytes)
    values = np.clip(
        [dist.inv_cdf((i + 0.5) / n) for i in range(n)],
        1 * MIB, cluster.spec.node.memory_bytes,
    ).astype(np.int64)
    cluster.set_memory_availability(values[np.random.default_rng(seed).permutation(n)])


# ----------------------------------------------------------------------
# collperf-strided and ior-1080: one buffer point of a paper figure
# ----------------------------------------------------------------------
class FigurePoint:
    """Two-phase and MCIO, write+read, at one buffer point of a figure.

    Both strategies run on fresh platforms built from the same seed, so
    they see the same memory-availability draw (the figures' paired
    comparison).  The per-rank executor runs every collective.
    """

    collectives = 4

    def __init__(self, name, nodes, workload, buffer_bytes, mcio):
        self.name = name
        self.nodes = nodes
        self.workload = workload
        self.buffer_bytes = buffer_bytes
        self.mcio = mcio

    def setup(self, seed: int):
        spec = ross13_testbed(nodes=self.nodes)
        patterns = self.workload.patterns()
        cells = []
        for strategy in ("two-phase", "mcio"):
            platform = harness.Platform.build(spec, len(patterns), seed=seed)
            draw_availability(platform.cluster, self.buffer_bytes, 50 * MIB, seed)
            if strategy == "two-phase":
                engine = TwoPhaseCollectiveIO(
                    platform.comm, platform.pfs,
                    TwoPhaseConfig(cb_buffer_size=self.buffer_bytes),
                )
            else:
                engine = MemoryConsciousCollectiveIO(
                    platform.comm, platform.pfs, self.mcio
                )
            cells.append((strategy, platform, engine))
        return patterns, cells

    def run(self, inputs):
        patterns, cells = inputs
        return [
            harness.run_collective(platform, engine, patterns, ops=OPS)
            for _strategy, platform, engine in cells
        ]

    def check(self, inputs, result) -> list[Group]:
        patterns, cells = inputs
        total = sum(p.nbytes for p in patterns)
        groups = []
        for (strategy, _platform, _engine), stats_list in zip(cells, result):
            groups += stats_groups(strategy, stats_list, total, "per-rank")
        return groups


# ----------------------------------------------------------------------
# checkpoint-vectorized: the scale_sweep ladder on the node-level driver
# ----------------------------------------------------------------------
class CheckpointVectorized:
    """Tiled checkpoint, write+read, up a rank ladder, vectorized."""

    name = "checkpoint-vectorized"
    LADDER = (1_000, 10_000, 100_000)
    RANKS_PER_NODE = 64
    BYTES_PER_RANK = 1 * MIB
    BUFFER = 64 * MIB
    collectives = len(LADDER) * len(OPS)

    def setup(self, seed: int):
        cells = []
        for n_ranks in self.LADDER:
            n_nodes = -(-n_ranks // self.RANKS_PER_NODE)
            platform = harness.Platform.build(
                build_spec(n_nodes, self.RANKS_PER_NODE), n_ranks, seed=seed
            )
            draw_availability(platform.cluster, 2 * self.BUFFER, 50 * MIB, seed)
            patterns = PatternArray.tiled(n_ranks, self.BYTES_PER_RANK)
            engine = MemoryConsciousCollectiveIO(
                platform.comm,
                platform.pfs,
                MCIOConfig(
                    msg_group=1 << 40,
                    msg_ind=64 * MIB,
                    mem_min=0,
                    nah=4,
                    cb_buffer_size=self.BUFFER,
                    min_buffer=1 * MIB,
                    execution_mode="vectorized",
                ),
            )
            cells.append((n_ranks, patterns, engine))
        return cells

    def run(self, inputs):
        # looked up on the module at call time, so a traced run sees
        # the wrapped driver
        return [
            [
                vectorized.run_vectorized_collective(engine, patterns, op)
                for op in OPS
            ]
            for _n, patterns, engine in inputs
        ]

    def check(self, inputs, result) -> list[Group]:
        groups = []
        for (n_ranks, patterns, _engine), stats_list in zip(inputs, result):
            groups += stats_groups(
                f"{n_ranks}-ranks", stats_list, patterns.total_bytes, "vectorized"
            )
        return groups


# ----------------------------------------------------------------------
# tenants-shared: concurrent tenants on one shared PFS
# ----------------------------------------------------------------------
class TenantsShared:
    """8 tenants under the ``variance`` memory regime, byte-accurate data.

    The grid crosses admission policy x placement strategy x job mode;
    every cell sees the same seeded Poisson arrival stream and runs each
    job again alone (``run_isolated``) as its slowdown baseline.  The
    platform and job shapes are those of the tenancy experiment, pinned
    here so the benchmark's inputs do not move with that module.
    """

    name = "tenants-shared"
    TENANTS = 8
    STEPS = 8
    RANKS_PER_JOB = 4
    N_NODES = 8
    BLOCK = 256 * KIB
    RATE = 2.0
    RICH, POOR = 3_000_000, 100_000
    POLICIES = ("free-for-all", "ost-throttle")
    STRATEGIES = ("mcio", "oblivious")
    MODES = ("blocking", "persistent")
    # every job runs STEPS collectives, shared and again isolated
    collectives = len(POLICIES) * len(STRATEGIES) * len(MODES) * TENANTS * STEPS * 2

    def _spec(self):
        return ClusterSpec(
            nodes=self.N_NODES,
            node=NodeSpec(
                cores=1,
                memory_bytes=10**9,
                memory_bandwidth=1e8,
                memory_channels=2,
                nic_bandwidth=1e6,
                nic_latency=1e-6,
            ),
            storage=StorageSpec(
                servers=4,
                server_bandwidth=5e5,
                request_overhead=1e-3,
                stripe_size=64 * KIB,
            ),
        )

    def _config(self, strategy: str) -> MCIOConfig:
        return MCIOConfig(
            msg_group=10**9,
            msg_ind=256 * KIB,
            mem_min=200_000,
            nah=4,
            min_buffer=1,
            cb_buffer_size=64 * KIB,
            memory_oblivious=(strategy == "oblivious"),
        )

    def setup(self, seed: int):
        spec = self._spec()
        availability = (self.RICH,) * 2 + (self.POOR,) * (self.N_NODES - 2)
        arrivals = PoissonArrivals(
            rate=self.RATE,
            n_jobs=self.TENANTS,
            seed=cell_seed(seed, "tenants-shared"),
            read_fraction=0.25,
            n_ranks=self.RANKS_PER_JOB,
            blocks=(self.BLOCK,),
            steps=(self.STEPS,),
        ).jobs()
        cells = []
        for policy in self.POLICIES:
            for strategy in self.STRATEGIES:
                for mode in self.MODES:
                    jobs = jobs_from_arrivals(
                        arrivals,
                        n_nodes=self.N_NODES,
                        layout="striped",
                        config=self._config(strategy),
                        mode=mode,
                    )
                    host = TenancyHost(
                        spec, seed=seed, policy=resolve_policy(policy)
                    )
                    host.cluster.set_memory_availability(availability)
                    for job in jobs:
                        host.submit(job)
                    label = f"{policy}/{strategy}/{mode}"
                    cells.append((label, host, jobs))
        return spec, availability, seed, cells

    def run(self, inputs):
        spec, availability, seed, cells = inputs
        out = []
        for _label, host, jobs in cells:
            records = host.run()
            baselines = [
                tenancy_host.run_isolated(
                    spec, job, seed=seed, availability=availability
                )
                for job in jobs
            ]
            out.append((records, baselines))
        return out

    def check(self, inputs, result) -> list[Group]:
        _spec, _avail, _seed, cells = inputs
        groups = []
        for (label, host, jobs), (records, baselines) in zip(cells, result):
            problems = []
            output = []
            collectives = 0
            for job, rec, base in zip(jobs, records, baselines):
                history = host.engines[job.name].history
                collectives += len(history) + base.collectives
                for r in (rec, base):
                    if r.collectives != job.steps:
                        problems.append(
                            f"{job.name}: {r.collectives} collectives != {job.steps}"
                        )
                    if not r.finished > r.admitted >= r.arrived:
                        problems.append(f"{job.name}: bad lifecycle {r.to_json()}")
                for stats in history:
                    problems += stats_problems(stats, job.region_bytes, "per-rank")
                if job.op == "write":
                    store = host.pfs.datastore
                    for rank in range(job.n_ranks):
                        got = store.read(job.offset + rank * job.block, job.block)
                        if not np.array_equal(got, job.payload(rank)):
                            problems.append(f"{job.name}: rank {rank} data differs")
                output.append(
                    {
                        "job": job.name,
                        "shared": _record_output(rec),
                        "isolated": _record_output(base),
                        "collectives": [sim_output(s) for s in history],
                    }
                )
            groups.append(Group(label, collectives, output, problems))
        return groups


def _record_output(rec) -> dict:
    return {
        "op": rec.op,
        "arrived": rec.arrived,
        "admitted": rec.admitted,
        "finished": rec.finished,
        "total_bytes": rec.total_bytes,
    }


WORKLOADS = {
    w.name: w
    for w in (
        # Figure 6 small geometry: strided noncontiguous views (extent
        # algebra dominates host time)
        FigurePoint(
            "collperf-strided",
            nodes=10,
            workload=CollPerfWorkload(
                array_shape=(512, 512, 1024), n_ranks=120, elem_size=4
            ),
            buffer_bytes=16 * MIB,
            mcio=MCIOConfig(
                msg_group=384 * MIB, msg_ind=32 * MIB, mem_min=0, nah=2,
                min_buffer=1 * MIB, cb_buffer_size=16 * MIB,
            ),
        ),
        # Figure 8 small geometry: many ranks x many rounds (the per-rank
        # lockstep executor dominates host time)
        FigurePoint(
            "ior-1080",
            nodes=90,
            workload=IORWorkload(n_ranks=1080, block_size=2 * MIB, segments=4),
            buffer_bytes=4 * MIB,
            mcio=MCIOConfig(
                msg_group=384 * MIB, msg_ind=96 * MIB, mem_min=0, nah=4,
                min_buffer=1 * MIB, cb_buffer_size=4 * MIB,
            ),
        ),
        CheckpointVectorized(),
        TenantsShared(),
    )
}
