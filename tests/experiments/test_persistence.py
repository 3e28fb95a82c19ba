"""Tests for sweep-result JSON persistence."""

import dataclasses
import json

import pytest

from repro.core.metrics import CollectiveStats, StatsCollector
from repro.experiments.harness import SweepPoint
from repro.experiments.persistence import load_points, save_points
from repro.experiments.report import sweep_rows


def make_stats(strategy="mcio", op="write"):
    c = StatsCollector(strategy, op, n_ranks=8)
    c.mark_start(0.0)
    c.mark_end(2.5)
    c.record_bytes(10_000)
    c.record_aggregator(0, 4096, paged=False, overcommit_bytes=0)
    c.record_aggregator(3, 8192, paged=True, overcommit_bytes=1024)
    c.record_shuffle(5000, same_node=True)
    c.record_shuffle(5000, same_node=False)
    c.record_rounds(7)
    c.n_groups = 2
    c.extra["note"] = "hello"
    return c.finalize()


def test_stats_roundtrip():
    original = make_stats()
    restored = CollectiveStats.from_json(original.to_json())
    assert restored == original


def test_stats_dict_is_json_serializable():
    json.dumps(make_stats().to_json())


#: One non-default value for every CollectiveStats field.
NON_DEFAULT = {
    "strategy": "mcio",
    "op": "read",
    "total_bytes": 12345,
    "elapsed": 0.125,
    "n_ranks": 16,
    "n_aggregators": 2,
    "aggregator_ranks": (3, 9),
    "agg_buffer_bytes": {3: 4096, 9: 8192},
    "agg_overcommit_bytes": {3: 0, 9: 512},
    "paged_aggregators": 1,
    "rounds_total": 7,
    "shuffle_intra_node_bytes": 100,
    "shuffle_inter_node_bytes": 200,
    "shuffle_inter_group_bytes": 50,
    "n_groups": 3,
    "extra": {"note": "hello", "finishers": 16},
    "degraded_tier": "two-phase",
    "io_retries": 2,
    "io_abandons": 1,
    "failovers": 1,
    "plan_cached": True,
    "plan_cache_hits": 4,
    "plan_cache_misses": 5,
    "plan_cache_invalidations": 6,
    "planning_tree_queries": 77,
    "leases_granted": 8,
    "leases_renewed": 9,
    "leases_revoked": 10,
    "leases_expired": 11,
    "borrow_bytes": 4096,
    "borrow_fallbacks": 1,
    "ina_fallbacks": 2,
    "execution_mode": "vectorized",
    "vectorized_refusals": 1,
    "sharding_refusals": 1,
}


def test_every_field_survives_json_roundtrip():
    fields = dataclasses.fields(CollectiveStats)
    assert set(NON_DEFAULT) == {f.name for f in fields}
    for f in fields:
        if f.default is not dataclasses.MISSING:
            assert NON_DEFAULT[f.name] != f.default, f.name
    original = CollectiveStats(**NON_DEFAULT)
    doc = json.loads(json.dumps(original.to_json()))
    assert list(doc) == [f.name for f in fields]  # field order
    assert CollectiveStats.from_json(doc) == original


def test_document_with_only_required_keys_loads_defaults():
    """A file written before the optional fields existed still loads."""
    doc = {
        "strategy": "two-phase",
        "op": "write",
        "total_bytes": 1024,
        "elapsed": 0.5,
        "n_ranks": 4,
        "n_aggregators": 1,
        "aggregator_ranks": [0],
        "agg_buffer_bytes": {"0": 1024},
        "paged_aggregators": 0,
        "rounds_total": 1,
        "shuffle_intra_node_bytes": 512,
        "shuffle_inter_node_bytes": 512,
        "shuffle_inter_group_bytes": 0,
    }
    stats = CollectiveStats.from_json(json.loads(json.dumps(doc)))
    assert stats.aggregator_ranks == (0,)
    assert stats.agg_buffer_bytes == {0: 1024}
    assert stats.agg_overcommit_bytes == {}
    assert stats.extra == {}
    for f in dataclasses.fields(CollectiveStats):
        if f.default is not dataclasses.MISSING:
            assert getattr(stats, f.name) == f.default, f.name
    del doc["rounds_total"]
    with pytest.raises(KeyError, match="rounds_total"):
        CollectiveStats.from_json(doc)


def test_save_load_points(tmp_path):
    points = [
        SweepPoint(16 << 20, "two-phase", "write", make_stats("two-phase")),
        SweepPoint(16 << 20, "mcio", "write", make_stats("mcio")),
        SweepPoint(4 << 20, "two-phase", "read", make_stats("two-phase", "read")),
    ]
    path = tmp_path / "sweep.json"
    save_points(path, points, figure_id="Figure X", description="demo")
    restored, meta = load_points(path)
    assert meta == {"figure_id": "Figure X", "description": "demo"}
    assert len(restored) == 3
    assert restored[0].buffer_bytes == 16 << 20
    assert restored[0].stats == points[0].stats


def test_loaded_points_feed_report(tmp_path):
    points = [
        SweepPoint(8 << 20, "two-phase", "write", make_stats("two-phase")),
        SweepPoint(8 << 20, "mcio", "write", make_stats("mcio")),
    ]
    path = tmp_path / "s.json"
    save_points(path, points)
    restored, _ = load_points(path)
    rows = sweep_rows(restored, "write")
    assert len(rows) == 1


def test_load_rejects_foreign_json(tmp_path):
    path = tmp_path / "bogus.json"
    path.write_text(json.dumps({"hello": "world"}))
    with pytest.raises(ValueError):
        load_points(path)


def test_extra_filtered_to_scalars():
    stats = make_stats()
    stats.extra["complex"] = object()
    d = stats.to_json()
    assert "complex" not in d["extra"]
    assert d["extra"]["note"] == "hello"


def test_figure_cli_json_flag(tmp_path, capsys):
    """End-to-end: a micro figure run saved via the CLI flag."""
    from repro.experiments.figures import figure_cli

    from tests.experiments.test_figures import micro_figure

    path = tmp_path / "fig.json"
    figure_cli(
        lambda seed: micro_figure(),
        lambda seed: micro_figure(),
        argv=["--scale", "small", "--json", str(path)],
    )
    out = capsys.readouterr().out
    assert "saved sweep points" in out
    points, meta = load_points(path)
    assert meta["figure_id"] == "micro"
    assert len(points) == 8
