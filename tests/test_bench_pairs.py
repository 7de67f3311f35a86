"""The arithmetic of tools/bench_pairs.py on canned perfbench summary lines,
and the environment its runs get."""

import importlib.util
import io
import json
import subprocess
import tarfile
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


def _tar_of(files: dict[str, bytes]) -> bytes:
    buf = io.BytesIO()
    with tarfile.open(fileobj=buf, mode="w") as tar:
        for name, data in files.items():
            info = tarfile.TarInfo(name)
            info.size = len(data)
            tar.addfile(info, io.BytesIO(data))
    return buf.getvalue()


def test_both_sides_run_from_fresh_exports_with_no_bytecode_prefix(tmp_path, monkeypatch):
    # git is faked: the parent is one archived file, the change two files of
    # the working tree; each perfbench run records where it ran, what it found
    # there and the environment it was given
    runs = []

    def fake_run(cmd, cwd=None, env=None, **kwargs):
        if cmd[:2] == ["git", "archive"]:
            return subprocess.CompletedProcess(cmd, 0, stdout=_tar_of({"README.md": b"parent\n"}))
        if cmd[:2] == ["git", "ls-files"]:
            return subprocess.CompletedProcess(cmd, 0, stdout=b"README.md\0tools/bench_pairs.py\0")
        if cmd[:2] == ["git", "rev-parse"]:
            return subprocess.CompletedProcess(cmd, 0, stdout="abc1234\n")
        root = Path(cwd)
        runs.append((root, sorted(str(p.relative_to(root)) for p in root.rglob("*")), env))
        return subprocess.CompletedProcess(cmd, 0, stdout=_line(1.0, 1) + "\n", stderr="")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    monkeypatch.setattr(bench_pairs, "summarize", lambda pairs, end_to_end: {})
    monkeypatch.setattr("sys.argv", ["bench_pairs.py", "--parent", "HEAD", "--first-seed", "1",
                                     "--traced", "figures", "--workdir", str(tmp_path),
                                     "--out", str(tmp_path / "BENCH.json")])
    assert bench_pairs.main() == 0
    roots = {root for root, _, _ in runs}
    assert len(roots) == 2 and bench_pairs.ROOT not in roots
    for root in roots:
        # a fresh directory of the temporary directory made under --workdir
        assert root.parent.parent == tmp_path and not root.exists()
    found = {root.name: files for root, files, _ in runs}
    assert found == {"parent": ["README.md"], "change": ["README.md", "tools", "tools/bench_pairs.py"]}
    assert all(env is None for _, _, env in runs)
