"""JSON persistence for experiment results.

Sweep results are plain data; saving them lets a long `--scale paper` run
be rendered, compared, or plotted later without re-simulating.  The
format is stable and self-describing::

    {
      "schema": "repro.sweep/1",
      "figure_id": "...", "description": "...",
      "points": [ {"buffer_bytes": ..., "strategy": "...", "op": "...",
                   "stats": { ...CollectiveStats fields... }}, ... ]
    }
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Optional

from repro.core.metrics import CollectiveStats

from .harness import SweepPoint

__all__ = ["save_points", "load_points"]

_SCHEMA = "repro.sweep/1"


def save_points(
    path: str | Path,
    points: Iterable[SweepPoint],
    figure_id: str = "",
    description: str = "",
) -> None:
    """Write a sweep's points to `path` as JSON."""
    doc = {
        "schema": _SCHEMA,
        "figure_id": figure_id,
        "description": description,
        "points": [
            {
                "buffer_bytes": p.buffer_bytes,
                "strategy": p.strategy,
                "op": p.op,
                "stats": p.stats.to_json(),
            }
            for p in points
        ],
    }
    Path(path).write_text(json.dumps(doc, indent=2))


def load_points(path: str | Path) -> tuple[list[SweepPoint], dict]:
    """Read a sweep back; returns ``(points, metadata)``.

    Raises
    ------
    ValueError
        If the file does not carry the expected schema tag.
    """
    doc = json.loads(Path(path).read_text())
    if doc.get("schema") != _SCHEMA:
        raise ValueError(f"not a {_SCHEMA} file: {path}")
    points = [
        SweepPoint(
            buffer_bytes=p["buffer_bytes"],
            strategy=p["strategy"],
            op=p["op"],
            stats=CollectiveStats.from_json(p["stats"]),
        )
        for p in doc["points"]
    ]
    meta = {k: doc.get(k, "") for k in ("figure_id", "description")}
    return points, meta
