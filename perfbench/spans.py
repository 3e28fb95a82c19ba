"""Layer spans for the traced run, recorded from the benchmark's own files.

:class:`SpanRecorder` wraps the simulator's public functions where their
callers look them up (module attributes, class attributes, and every
module that imported a name by value) and times each call, or each
generator resume for process generators.  Generators spawned with
``Environment.process`` are resumed by the kernel itself, so each one is
wrapped as it is spawned, in a span of the layer whose module defines it
(:data:`PROCESS_LAYERS`).  Spans nest on one stack, so a
span's self time is its duration minus the time its child spans cover,
and ``covered`` is the time spent inside any top-level span.  Spans are
kept in memory as per-name totals (calls, total, self) and read when the
run ends; nothing under ``src/`` is modified and the simulator's own
``repro.obs`` tracer stays off.

A span's name is ``<layer>.<function>``; the layer is the metric prefix
that ``run.py`` reports (``plan``, ``extent``, ``exec``, ``vec``,
``comm``, ``net``, ``pfs``, ``sim``, ``tenancy``).
"""

from __future__ import annotations

import collections
import time

from repro.cluster import network
from repro.core import (
    aggregator_selection,
    audit,
    engine,
    failover,
    group_division,
    mcio,
    metrics,
    pattern_array,
    request,
    two_phase,
    vectorized,
)
from repro.mpi import comm
from repro.parallel import groups
from repro.pfs import filesystem
from repro.sim import engine as sim_engine
import repro.tenancy
from repro.tenancy import host, job

__all__ = ["SpanRecorder"]

#: Module prefix -> layer of the process generators it defines (first
#: match wins).  The kernel resumes a spawned process directly, so each
#: resume is a span of that layer; generators defined elsewhere stay in
#: the kernel's (``sim``) self time.
PROCESS_LAYERS = (
    ("repro.core.vectorized", "vec"),
    ("repro.core.", "exec"),  # the engine's window and aggregator processes
    ("repro.experiments.", "exec"),  # rank mains that drive a collective
    ("repro.parallel.", "exec"),
    ("repro.mpi.", "comm"),
    ("repro.cluster.network", "net"),
    ("repro.pfs.", "pfs"),
    ("repro.tenancy.", "tenancy"),
)


class SpanRecorder:
    """Per-name span totals plus deterministic work counters."""

    def __init__(self):
        self.clock = time.perf_counter
        #: Root frame: ``root[0]`` accumulates top-level span time.
        self._root = [0.0]
        self._stack = [self._root]
        #: ``name -> [calls, total_s, self_s]``.
        self.spans: dict[str, list] = {}
        self.counts: collections.Counter = collections.Counter()
        #: Parallel file systems built while installed (for request counts).
        self.filesystems: list = []
        self._undo: list = []

    @property
    def covered(self) -> float:
        """Host seconds spent inside any top-level span."""
        return self._root[0]

    def reset(self) -> None:
        """Zero every total and counter (the wrappers stay installed and
        the file-system registry is kept)."""
        self._root[0] = 0.0
        for stat in self.spans.values():
            stat[:] = [0, 0.0, 0.0]
        self.counts.clear()

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------
    def call(self, name, fn, after=None):
        """Wrap `fn` so every call is one span; ``after(args, result)``
        runs outside the span to update counters."""
        stack, clock = self._stack, self.clock
        stat = self.spans.setdefault(name, [0, 0.0, 0.0])

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                d = clock() - t0
                stack.pop()
                stat[0] += 1
                stat[1] += d
                stat[2] += d - frame[0]
                stack[-1][0] += d
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def timed(self, name, gen):
        """A generator that drives `gen`, timing every resume as one span."""
        stack, clock = self._stack, self.clock
        stat = self.spans.setdefault(name, [0, 0.0, 0.0])
        send, throw = gen.send, gen.throw
        value = exc = None
        while True:
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                target = send(value) if exc is None else throw(exc)
            except StopIteration as stop:
                return stop.value
            finally:
                d = clock() - t0
                stack.pop()
                stat[0] += 1
                stat[1] += d
                stat[2] += d - frame[0]
                stack[-1][0] += d
            try:
                value = yield target
                exc = None
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as e:  # delivered into the generator
                value, exc = None, e

    def resumes(self, name, genfn, on_call=None):
        """Wrap process-generator function `genfn` so every resume of
        the generator it returns is one span; ``on_call(args, kwargs)``
        runs once per call to update counters."""
        timed = self.timed
        self.spans.setdefault(name, [0, 0.0, 0.0])

        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            return timed(name, genfn(*args, **kwargs))

        wrapper.__wrapped__ = genfn
        return wrapper

    def _patch(self, owners, attr, wrapper) -> None:
        """Point `attr` on every owner (module or class) at `wrapper`."""
        for owner in owners:
            original = owner.__dict__[attr]
            self._undo.append((owner, attr, original))
            if isinstance(original, classmethod):
                setattr(owner, attr, staticmethod(wrapper))
            else:
                setattr(owner, attr, wrapper)

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every layer boundary the benchmark reports."""
        counts = self.counts

        # plan: the two planners, group division, placement, plan build
        def count_plan(args, _result):
            counts["plan.calls"] += 1
            counts["plan.tree_queries"] += getattr(
                args[0], "last_plan_tree_queries", 0
            )

        for cls in (mcio.MemoryConsciousCollectiveIO, two_phase.TwoPhaseCollectiveIO):
            self._patch([cls], "plan", self.call("plan.plan", cls.plan, count_plan))
        self._patch(
            [group_division, mcio], "divide_groups",
            self.call("plan.divide_groups", group_division.divide_groups),
        )
        self._patch(
            [aggregator_selection, mcio, failover], "place_aggregators",
            self.call("plan.place_aggregators", aggregator_selection.place_aggregators),
        )
        self._patch(
            [engine.ExecutionPlan], "build",
            self.call("plan.ExecutionPlan.build", engine.ExecutionPlan.build),
        )

        # extent: interval algebra over access patterns
        coalesce = request.coalesce_extents

        def counted_coalesce(extents):
            extents = extents if isinstance(extents, list) else list(extents)
            out = coalesce(extents)
            counts["extent.coalesce_calls"] += 1
            counts["extent.extents_in"] += len(extents)
            counts["extent.extents_out"] += len(out)
            return out

        self._patch(
            [request, engine, audit], "coalesce_extents",
            self.call("extent.coalesce_extents", counted_coalesce),
        )
        self._patch(
            [engine, vectorized], "_union_extents",
            self.call("extent._union_extents", engine._union_extents),
        )
        for cls, attrs in (
            (request.AccessPattern, ("clip", "bytes_in")),
            (pattern_array.PatternArray, ("union_extents", "sum_bytes_in")),
        ):
            for attr in attrs:
                self._patch(
                    [cls], attr,
                    self.call(f"extent.{cls.__name__}.{attr}", getattr(cls, attr)),
                )

        # exec: every resume of one rank's role in a planned collective
        self._patch(
            [engine, mcio, two_phase, groups], "execute_collective",
            self.resumes("exec.execute_collective", engine.execute_collective),
        )

        # vec: the node-level vectorized driver
        self._patch(
            [vectorized], "run_vectorized_collective",
            self.call("vec.run_vectorized_collective",
                      vectorized.run_vectorized_collective),
        )

        # comm: point-to-point sends and receives
        def count_send(_args, _kwargs):
            counts["comm.messages"] += 1

        def count_batch(args, kwargs):
            counts["comm.messages"] += len(args[2] if len(args) > 2 else kwargs["items"])

        for attr, on_call in (
            ("send", count_send),
            ("batched_send", count_batch),
            ("staged_batched_send", None),  # ships through batched_send
            ("recv", None),
            ("recv_many", None),
        ):
            self._patch(
                [comm.SimComm], attr,
                self.resumes(f"comm.{attr}", getattr(comm.SimComm, attr), on_call),
            )

        # net: wire transfers
        def count_transfer(_args, _kwargs):
            counts["net.transfers"] += 1

        for attr in ("transfer", "batched_transfer"):
            self._patch(
                [network.Network], attr,
                self.resumes(f"net.{attr}", getattr(network.Network, attr),
                             count_transfer),
            )

        # pfs: client reads and writes (requests come from server_stats)
        pfs_cls = filesystem.ParallelFileSystem
        for attr in ("write_extent", "read_extent", "write_pattern", "read_pattern"):
            self._patch(
                [pfs_cls], attr,
                self.resumes(f"pfs.{attr}", getattr(pfs_cls, attr)),
            )
        pfs_init = pfs_cls.__init__
        registry = self.filesystems

        def registering_init(fs, *args, **kwargs):
            pfs_init(fs, *args, **kwargs)
            registry.append(fs)

        self._patch([pfs_cls], "__init__", registering_init)

        # spawned processes: every resume is a span of the layer whose
        # module defines the generator
        env_process = sim_engine.Environment.process
        timed = self.timed
        layers: dict = {}

        def layer_of(module):
            if module not in layers:
                layers[module] = next(
                    (layer for prefix, layer in PROCESS_LAYERS
                     if module.startswith(prefix)),
                    None,
                )
            return layers[module]

        def layered_process(env, generator, name=""):
            frame = getattr(generator, "gi_frame", None)
            layer = frame and layer_of(frame.f_globals.get("__name__", ""))
            if layer:
                fn_name = generator.__name__
                generator = timed(f"{layer}.{fn_name}", generator)
                name = name or fn_name
            return env_process(env, generator, name)

        self._patch([sim_engine.Environment], "process", layered_process)

        # sim: the DES kernel's run loop (events = sequence-counter delta)
        env_run = sim_engine.Environment.run

        def counted_run(env, *args, **kwargs):
            seq0 = env._seq
            try:
                return env_run(env, *args, **kwargs)
            finally:
                counts["sim.events"] += env._seq - seq0

        self._patch(
            [sim_engine.Environment], "run", self.call("sim.run", counted_run)
        )

        # tenancy: the host's run loop, isolated baselines, payload bytes
        def count_jobs(_args, records):
            counts["tenancy.jobs"] += len(records)
            counts["tenancy.wait_sim_s"] += sum(r.wait for r in records)

        self._patch(
            [host.TenancyHost], "run",
            self.call("tenancy.TenancyHost.run", host.TenancyHost.run, count_jobs),
        )
        self._patch(
            [host, repro.tenancy], "run_isolated",
            self.call("tenancy.run_isolated", host.run_isolated),
        )
        self._patch(
            [job.TenantJob], "payload",
            self.call("tenancy.payload", job.TenantJob.payload),
        )

        # per-rank collectives' rounds and inter-node shuffle bytes, read
        # from each collective's finalized stats
        finalize = metrics.StatsCollector.finalize

        def tapped_finalize(collector):
            stats = finalize(collector)
            if stats.execution_mode != "vectorized":
                counts["exec.rounds"] += stats.rounds_total
                counts["comm.inter_node_bytes"] += stats.shuffle_inter_node_bytes
            return stats

        self._patch([metrics.StatsCollector], "finalize", tapped_finalize)

    def uninstall(self) -> None:
        """Restore every patched attribute."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def pfs_totals(self) -> tuple[int, int]:
        """``(requests, bytes)`` served by every file system built."""
        requests = nbytes = 0
        for fs in self.filesystems:
            for _sid, served, reqs in fs.server_stats():
                requests += reqs
                nbytes += served
        return requests, nbytes
