"""The arithmetic of tools/bench_pairs.py on canned perfbench summary lines,
and the environment its runs get."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

END_TO_END = [{"name": "cold_s", "better": "lower"}, {"name": "hits", "better": "higher"}]


def _line(cold_s, hits, failed=0):
    return json.dumps({"correct": failed == 0, "attempted": 10, "failed": failed, "metrics": {
        "cold_s": {"value": cold_s, "unit": "s"}, "hits": {"value": hits, "unit": "count"}}})


def _pairs(parent, change, failed=((0, 0),)):
    failed = list(failed) * len(parent)
    return [{"seed": 1 + i, "first": "parent" if i % 2 == 0 else "change",
             "parent": _line(p, p, failed[i][0]), "change": _line(c, c, failed[i][1])}
            for i, (p, c) in enumerate(zip(parent, change))]


def test_quartiles_interpolate_between_order_statistics():
    assert bench_pairs.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == [2.0, 3.0, 4.0]
    # q1 of 1..10 sits a quarter of the way from the 3rd to the 4th value
    assert bench_pairs.quartiles([float(v) for v in range(10, 0, -1)]) == [3.25, 5.5, 7.75]


def test_change_wins_counts_strict_wins_in_the_metric_direction():
    parent, change = [2.0, 2.0, 3.0, 1.0], [1.0, 2.0, 4.0, 0.5]
    assert bench_pairs.change_wins(parent, change, "lower") == 2
    assert bench_pairs.change_wins(parent, change, "higher") == 1


def test_summary_of_canned_pairs():
    parent = [1.0, 1.2, 1.1, 1.4, 1.3]
    change = [0.5, 0.7, 1.2, 0.6, 0.55]
    summary = bench_pairs.summarize(_pairs(parent, change), END_TO_END)
    cold = summary["cold_s"]
    assert cold["parent_q1_median_q3"] == pytest.approx([1.1, 1.2, 1.3])
    assert cold["change_q1_median_q3"] == pytest.approx([0.55, 0.6, 0.7])
    assert cold["change_wins"] == 4
    assert cold["median_ratio"] == pytest.approx(0.5)
    # the same numbers read as a higher-is-better metric: one win
    assert summary["hits"]["change_wins"] == 1
    assert summary["hits"]["median_ratio"] == pytest.approx(0.5)


def test_failed_counts_sum_each_side():
    pairs = _pairs([1.0, 1.0, 1.0], [1.0, 1.0, 1.0], failed=[(0, 2), (1, 0), (0, 3)])
    assert bench_pairs.failed_counts(pairs) == [1, 5]


def test_sides_alternate_which_goes_first():
    assert bench_pairs.alternating(3) == [("parent", "change"), ("change", "parent"), ("parent", "change")]


def test_traced_medians_are_per_side_and_per_metric():
    # three traced pairs: one perturbed run per side must not decide the median
    pairs = _pairs([0.30, 0.31, 0.90], [0.20, 0.95, 0.21])
    medians = bench_pairs.traced_medians(pairs)
    assert medians["parent"] == {"cold_s": 0.31, "hits": 0.31}
    assert medians["change"] == {"cold_s": 0.21, "hits": 0.21}


def test_both_sides_share_one_bytecode_cache_outside_their_roots(tmp_path, monkeypatch):
    calls = []

    def fake_run(cmd, cwd, env, **kwargs):
        calls.append((Path(cwd), env))
        return subprocess.CompletedProcess(cmd, 0, stdout=_line(1.0, 1) + "\n", stderr="")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    roots = [tmp_path / "parent", bench_pairs.ROOT]
    env = bench_pairs.perfbench_env(tmp_path)
    for root in roots:
        assert json.loads(bench_pairs.summary_line(root, "figures", 1, 0, env))["failed"] == 0
    prefixes = {run_env["PYTHONPYCACHEPREFIX"] for _, run_env in calls}
    assert [cwd for cwd, _ in calls] == roots and len(prefixes) == 1
    prefix = Path(prefixes.pop())
    assert prefix.parent == tmp_path
    assert not any(prefix.is_relative_to(root) for root in roots)
