"""tools/bench.py's A/B summary, on made-up result lines.

The tool itself runs the benchmark in a git worktree, which CI's
"Benchmark A/B smoke" step exercises; these tests check only how it
reads results: medians, the parent's quartiles, and wins counted in each
metric's direction.
"""

import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "tools" / "bench.py"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("tools_bench", BENCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def result(rate, p50, failed=0, attempted=100):
    values = {"setup_s": 0.1, "jobs_per_s": rate, "job_p50_ms": p50, "job_p90_ms": 2 * p50,
              "peak_rss_mb": 20.0}
    return {"correct": True, "failed": failed, "attempted": attempted,
            "metrics": {k: {"value": v} for k, v in values.items()}}


def rows(text):
    return {line.split()[0]: line.split() for line in text.splitlines()}


def test_wins_follow_each_metrics_direction(bench, capsys):
    runs = {"parent": [result(100, 1.0), result(110, 1.2), result(90, 0.8, failed=3)],
            "change": [result(120, 0.9), result(105, 1.3), result(95, 0.7)]}
    bench.report(runs)
    out = rows(capsys.readouterr().out)
    # higher is better: 120 > 100 and 95 > 90 win, 105 < 110 loses
    assert out["jobs_per_s"][2:] == ["100", "95-105", "105", "+5.0%", "2/3"]
    # lower is better: 0.9 < 1.0 and 0.7 < 0.8 win, 1.3 > 1.2 loses
    assert out["job_p50_ms"][2:] == ["1", "0.9-1.1", "0.9", "-10.0%", "2/3"]
    # equal values are no win either way
    assert out["setup_s"][-1] == "0/3" and out["peak_rss_mb"][-1] == "0/3"
    assert out["parent"] == ["parent", "failed/attempted:", "3/300"]
    assert out["change"] == ["change", "failed/attempted:", "0/300"]


def test_every_end_to_end_metric_is_reported(bench, capsys):
    bench.report({"parent": [result(100, 1.0)], "change": [result(100, 1.0)]})
    out = rows(capsys.readouterr().out)
    assert [m["name"] for m in bench.SPEC["end_to_end"]] == [
        "setup_s", "jobs_per_s", "job_p50_ms", "job_p90_ms", "peak_rss_mb"]
    for m in bench.SPEC["end_to_end"]:
        assert out[m["name"]][1] == m["better"]
        assert out[m["name"]][3] == f"{out[m['name']][2]}-{out[m['name']][2]}"  # one run: IQR is a point
