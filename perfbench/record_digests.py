"""Record the simulated-output digests that ``run.py`` gates on.

Runs one untraced batch per workload and seed, checks its invariants,
and stores one digest per output group in ``digests.json`` (merged into
what the file already holds)::

    python3 perfbench/record_digests.py --seeds 0-31

Re-record only in a change that means to move simulated output, and say
so: every later run compares against these digests.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import DIGESTS, HERE, NAMES, ROOT, digest

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))


def parse_seeds(text: str) -> list[int]:
    """``"0-3,7"`` -> ``[0, 1, 2, 3, 7]``."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", required=True, type=parse_seeds)
    args = parser.parse_args(argv)

    table = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    for name in NAMES:
        workload = WORKLOADS[name]
        for seed in args.seeds:
            inputs = workload.setup(seed)
            groups = workload.check(inputs, workload.run(inputs))
            problems = [f"{g.label}: {p}" for g in groups for p in g.problems]
            if problems:
                print(f"{name} seed {seed}: not recorded", *problems, sep="\n  ")
                return 1
            table.setdefault(name, {})[str(seed)] = [digest(g.output) for g in groups]
            print(f"{name} seed {seed}: {len(groups)} group digests", flush=True)
            DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
