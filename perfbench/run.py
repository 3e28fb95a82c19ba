"""Host-time benchmark of the collective-I/O simulator.

Run from the repository root (no build step; the simulator is imported
from ``src/``)::

    python3 perfbench/run.py --workload collperf-strided --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (median host
seconds of one batch of the workload's collectives), ``setup_s`` (median
host seconds to build the batch's inputs), ``peak_rss_mib`` and
``passed_ops`` (share of collectives that ran and passed the output
check; the count that did not is ``failed_ops``).  Host times are
rescaled to a nominal machine speed measured while they run (see
:class:`SpeedProbe`); the raw seconds are printed beside them.
``--trace 1`` runs untraced batches for the same time, then two batches
with layer spans installed (``spans.py``) and reports the per-layer
metrics, the top layer by self time, and the tracing overhead.  Either
way the last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 0 only when
every collective passed.

The output check fails a collective whose stats break an invariant
(bytes moved, execution mode, vectorized refusals), whose simulated
output differs between batches of the run, or whose digest differs from
the one ``digests.json`` records for the workload and seed (see
``record_digests.py``).  The traced run also fails when a work counter
differs between its two traced batches.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAMES = ("collperf-strided", "ior-1080", "checkpoint-vectorized", "tenants-shared")
DIGESTS = HERE / "digests.json"
#: Setups timed per run at least, and host seconds spent timing them.
MIN_SETUPS = 11
SETUP_SECONDS = 1.0
#: Seconds between speed-probe samples while a timed region runs, and
#: the probe pass's duration at the nominal speed every reported host
#: time is rescaled to (see :class:`SpeedProbe`).
PROBE_PERIOD_S = 0.05
PROBE_NOMINAL_S = 330e-6
#: Traced batches per ``--trace 1`` run; their work counters must agree.
TRACED_BATCHES = 2
#: The layer expected to take the most self time, where the issue that
#: defined the benchmark predicted one.
PREDICTED_TOP = {"collperf-strided": "extent", "ior-1080": "exec"}
LAYERS = ("plan", "extent", "exec", "vec", "comm", "net", "pfs", "sim", "tenancy")
MIB = 1 << 20


def digest(output) -> str:
    """Canonical digest of one group's simulated output."""
    text = json.dumps(output, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_recorded(name: str, seed: int):
    """The recorded digests of `name` at `seed`, or None."""
    if not DIGESTS.exists():
        return None
    return json.loads(DIGESTS.read_text()).get(name, {}).get(str(seed))


class Tally:
    """Collectives attempted and failed, with the reasons."""

    def __init__(self, recorded):
        self.recorded = recorded
        self.first = None
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def fail(self, n: int, reason: str) -> None:
        self.attempted += n
        self.failed += n
        self.reasons.append(reason)

    def check(self, groups) -> None:
        digests = [digest(g.output) for g in groups]
        if self.first is None:
            self.first = digests
        if len(digests) != len(self.first) or (
            self.recorded is not None and len(digests) != len(self.recorded)
        ):
            self.fail(sum(g.collectives for g in groups), "group count changed")
            return
        for i, (group, d) in enumerate(zip(groups, digests)):
            bad = list(group.problems)
            if d != self.first[i]:
                bad.append("simulated output differs between batches")
            if self.recorded is not None and d != self.recorded[i]:
                bad.append(f"digest {d} != recorded {self.recorded[i]}")
            if bad:
                self.fail(group.collectives, f"{group.label}: {'; '.join(bad)}")
            else:
                self.attempted += group.collectives


def probe_pass(n: int = 3000) -> float:
    """Host seconds of one fixed pure-Python pass (dict updates)."""
    table = {}
    t0 = time.perf_counter()
    for i in range(n):
        table[i & 63] = table.get(i & 63, 0) + i
    return time.perf_counter() - t0


class SpeedProbe:
    """Samples the machine's speed while a timed region runs.

    The host's speed moves by tens of percent within seconds when other
    work shares its cores, so host times are rescaled to a nominal
    speed: every `PROBE_PERIOD_S` a timer signal runs one `probe_pass`
    (about 1 % of the host time), and ``scale`` is the nominal pass time
    over the median pass time seen during the region.  The pass runs
    none of the simulator's code, so a change to the program moves the
    rescaled time the way it moves the raw time.
    """

    def __enter__(self):
        self.samples: list[float] = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc_info):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:  # region shorter than one period
            self.samples.append(probe_pass())

    def _sample(self, _signum, _frame) -> None:
        self.samples.append(probe_pass())

    @property
    def scale(self) -> float:
        return PROBE_NOMINAL_S / statistics.median(self.samples)


def run_batch(workload, seed, tally, recorder=None):
    """Set up, run and check one batch.

    Returns the raw host seconds of the run, the speed scale measured
    while it ran, and the span snapshot when `recorder` is installed.
    """
    if recorder is not None:
        recorder.filesystems.clear()
    gc.collect()
    inputs = workload.setup(seed)
    gc.collect()
    if recorder is not None:
        recorder.reset()
    with SpeedProbe() as speed:
        t0 = time.perf_counter()
        result = workload.run(inputs)
        wall_s = time.perf_counter() - t0
    snapshot = None
    if recorder is not None:
        snapshot = {
            "wall": wall_s,
            "scale": speed.scale,
            "covered": recorder.covered,
            "spans": {k: list(v) for k, v in recorder.spans.items()},
            "counts": dict(recorder.counts),
            "pfs": recorder.pfs_totals(),
        }
        recorder.filesystems.clear()
    tally.check(workload.check(inputs, result))
    return wall_s, speed.scale, snapshot


def measure(workload, seed, seconds, tally):
    """Untraced batches for up to `seconds` (at least one), then setups.

    Another batch starts only if it should end within `seconds`.  Setup
    is cheap, so it is timed on its own afterwards until `MIN_SETUPS`
    samples and `SETUP_SECONDS` of setup time are in hand.  Returns the
    rescaled setup and batch times and the raw batch times.
    """
    walls, raw = [], []
    start = time.perf_counter()
    while True:
        wall_s, scale, _ = run_batch(workload, seed, tally)
        raw.append(wall_s)
        walls.append(wall_s * scale)
        if time.perf_counter() - start + statistics.median(raw) > seconds:
            break
    setups, spent = [], 0.0
    with SpeedProbe() as speed:
        while len(setups) < MIN_SETUPS or spent < SETUP_SECONDS:
            gc.collect()
            t0 = time.perf_counter()
            inputs = workload.setup(seed)
            setups.append(time.perf_counter() - t0)
            spent += setups[-1]
            del inputs
    return [x * speed.scale for x in setups], walls, raw


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


# ----------------------------------------------------------------------
# per-layer metrics from one traced batch
# ----------------------------------------------------------------------
#: ``name -> unit``; units other than ``s`` and ``us`` are work, not host
#: time, and must repeat exactly between traced batches.
LAYER_UNITS = {
    "plan.host_s": "s", "plan.calls": "count", "plan.tree_queries": "count",
    "extent.host_s": "s", "extent.coalesce_calls": "count",
    "extent.extents_in": "count", "extent.merge_ratio": "ratio",
    "exec.self_host_s": "s", "exec.resumes": "count", "exec.rounds": "count",
    "vec.host_s": "s",
    "comm.host_s": "s", "comm.messages": "count", "comm.inter_node_mib": "MiB",
    "net.host_s": "s", "net.transfers": "count",
    "pfs.host_s": "s", "pfs.requests": "count", "pfs.mib_per_request": "MiB",
    "sim.self_host_s": "s", "sim.events": "count", "sim.host_us_per_event": "us",
    "tenancy.host_s": "s", "tenancy.payload_host_s": "s",
    "tenancy.jobs": "count", "tenancy.wait_sim_s": "sim_s",
    "other.host_s": "s", "trace.overhead_ratio": "ratio",
}
HOST_UNITS = ("s", "us")


def layer_self(snap) -> dict:
    """Rescaled self host seconds per layer, plus ``other`` (outside
    every span)."""
    scale = snap["scale"]
    out = dict.fromkeys(LAYERS, 0.0)
    for name, (_calls, _total, self_s) in snap["spans"].items():
        out[name.split(".", 1)[0]] += self_s * scale
    out["other"] = (snap["wall"] - snap["covered"]) * scale
    return out


def layer_metrics(snap, untraced_wall: float) -> dict:
    selfs = layer_self(snap)
    c = snap["counts"]
    spans = snap["spans"]
    requests, served = snap["pfs"]
    events = c.get("sim.events", 0)
    extents_in = c.get("extent.extents_in", 0)
    return {
        "plan.host_s": selfs["plan"],
        "plan.calls": c.get("plan.calls", 0),
        "plan.tree_queries": c.get("plan.tree_queries", 0),
        "extent.host_s": selfs["extent"],
        "extent.coalesce_calls": c.get("extent.coalesce_calls", 0),
        "extent.extents_in": extents_in,
        "extent.merge_ratio": (
            c.get("extent.extents_out", 0) / extents_in if extents_in else 0.0
        ),
        "exec.self_host_s": selfs["exec"],
        "exec.resumes": sum(
            calls for name, (calls, _t, _s) in spans.items()
            if name.startswith("exec.")
        ),
        "exec.rounds": c.get("exec.rounds", 0),
        "vec.host_s": selfs["vec"],
        "comm.host_s": selfs["comm"],
        "comm.messages": c.get("comm.messages", 0),
        "comm.inter_node_mib": c.get("comm.inter_node_bytes", 0) / MIB,
        "net.host_s": selfs["net"],
        "net.transfers": c.get("net.transfers", 0),
        "pfs.host_s": selfs["pfs"],
        "pfs.requests": requests,
        "pfs.mib_per_request": served / MIB / requests if requests else 0.0,
        "sim.self_host_s": selfs["sim"],
        "sim.events": events,
        "sim.host_us_per_event": selfs["sim"] / events * 1e6 if events else 0.0,
        "tenancy.host_s": selfs["tenancy"],
        "tenancy.payload_host_s": spans["tenancy.payload"][2] * snap["scale"],
        "tenancy.jobs": c.get("tenancy.jobs", 0),
        "tenancy.wait_sim_s": c.get("tenancy.wait_sim_s", 0.0),
        "other.host_s": selfs["other"],
        "trace.overhead_ratio": snap["wall"] * snap["scale"] / untraced_wall,
    }


def traced_run(workload, seed, seconds, tally):
    """Untraced batches for the overhead baseline, then traced batches."""
    from spans import SpanRecorder

    _setups, walls, raw = measure(workload, seed, seconds, tally)
    untraced = statistics.median(walls)
    recorder = SpanRecorder()
    recorder.install()
    try:
        snaps = [
            run_batch(workload, seed, tally, recorder)[2]
            for _ in range(TRACED_BATCHES)
        ]
    finally:
        recorder.uninstall()
    per_batch = [layer_metrics(s, untraced) for s in snaps]
    metrics = {}
    for name, unit in LAYER_UNITS.items():
        values = [m[name] for m in per_batch]
        if unit in HOST_UNITS or name == "trace.overhead_ratio":
            metrics[name] = statistics.fmean(values)
        else:
            if any(v != values[0] for v in values):
                tally.reasons.append(f"work counter {name} differs: {values}")
            metrics[name] = values[0]
    wall = statistics.fmean(s["wall"] * s["scale"] for s in snaps)
    selfs = [layer_self(s) for s in snaps]
    shares = {
        layer: statistics.fmean(s[layer] for s in selfs) / wall
        for layer in selfs[0]
    }
    return metrics, shares, untraced, len(raw)


# ----------------------------------------------------------------------
def provenance(name: str, seed: int) -> dict:
    import numpy

    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30, check=False,
            )
            commit = out.stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "workload": name,
        "seed": seed,
        "commit": commit,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def run_one(args) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: simulator sources not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    recorded = load_recorded(args.workload, args.seed)
    tally = Tally(recorded)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}"
          f"  trace {args.trace}")
    metrics = {}
    try:
        if args.trace:
            layer, shares, untraced, n = traced_run(
                workload, args.seed, args.seconds, tally
            )
            for name, value in layer.items():
                unit = LAYER_UNITS[name]
                metrics[name] = {"value": value, "unit": unit}
                print(f"  {name:<24} {value:>14.6g} {unit}")
            top = max(shares, key=shares.get)
            predicted = PREDICTED_TOP.get(args.workload)
            print("self-time share by layer: " + ", ".join(
                f"{k} {v:.1%}" for k, v in sorted(shares.items(), key=lambda kv: -kv[1])
            ))
            print(f"attribution: top layer {top} ({shares[top]:.1%} of traced wall);"
                  f" predicted {predicted or 'none'}"
                  + ("" if predicted is None else
                     f" -> {'match' if top == predicted else 'MISMATCH'}"))
            print(f"untraced wall_s baseline {untraced:.4f} s over {n} batch(es)")
        else:
            setups, walls, raw = measure(workload, args.seed, args.seconds, tally)
            w_q1, w_q3 = quartiles(walls)
            s_q1, s_q3 = quartiles(setups)
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics = {
                "wall_s": {"value": statistics.median(walls), "unit": "s"},
                "setup_s": {"value": statistics.median(setups), "unit": "s"},
                "peak_rss_mib": {"value": rss, "unit": "MiB"},
            }
            spread = (f"median of {len(walls)} batches; q1 {w_q1:.4f}, q3 {w_q3:.4f}"
                      if len(walls) > 1 else "1 batch; no quartiles")
            print(f"  wall_s        {metrics['wall_s']['value']:.4f} s  ({spread})")
            print(f"  setup_s       {metrics['setup_s']['value']:.5f} s"
                  f"  (median of {len(setups)}; q1 {s_q1:.5f}, q3 {s_q3:.5f})")
            print(f"  peak_rss_mib  {rss:.1f} MiB")
            print("  raw batch host seconds " + " ".join(f"{w:.4f}" for w in raw)
                  + f" (wall_s rescaled to a {PROBE_NOMINAL_S * 1e6:.0f} us probe pass)")
    except Exception:  # a crashed batch fails the whole run, reported below
        traceback.print_exc()
        tally.fail(workload.collectives, "batch raised")
    attempted = max(tally.attempted, 1)
    if not args.trace:
        metrics["passed_ops"] = {
            "value": (attempted - tally.failed) / attempted, "unit": "share",
        }
    print(f"  failed_ops    {tally.failed} of {tally.attempted} collectives")
    if recorded is None:
        print(f"digest gate: no digest recorded for seed {args.seed};"
              " invariants and in-run repeatability only")
    else:
        print(f"digest gate: {len(recorded)} recorded group digests compared")
    for reason in tally.reasons:
        print(f"FAILED: {reason}")
    correct = not tally.reasons and bool(metrics)
    print("provenance " + json.dumps(provenance(args.workload, args.seed)))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in turn, each in its own process (own peak RSS)."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"FAILED: {name} printed no result (exit {proc.returncode})")
            return 1
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for key, value in result["metrics"].items():
            metrics[f"{name}.{key}"] = value
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="untraced measuring time; at least one batch runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
