"""Paired perfbench runs of a parent commit and a change, written as one
``BENCH_<n>.json``.

    python3 tools/bench_pairs.py --parent HEAD~1 --first-seed 1701 --traced cdf_m3 --out BENCH_17.json

Run it from the repository root.  Both sides are exported into one
temporary directory (under ``--workdir`` if given), so nothing is registered
in the repository and an interrupted run leaves nothing behind in it: the
parent's committed files with ``git archive``, and the change as the working
tree's tracked files as they are plus its untracked files that git does not
ignore.  Neither side therefore finds a ``__pycache__`` of its own left by an
earlier run, and both run with this process's environment, so each reads the
installed bytecode of numpy and the standard library as a user's run does
and ``setup_s`` measures the start-up a user pays.  For each workload of
``BENCHMARK.json`` the script runs ten pairs of
``perfbench/run.py --seconds 10 --trace 0``, pair i at seed
``first_seed + i``: even pairs run the parent first, odd pairs the change
first, so a drift in host speed falls on both sides.  It then runs three
``--trace 1`` pairs of the ``--traced`` workload at the first seed, again
alternating which side goes first, so that no single perturbed run decides
the per-layer story.

The file keeps every run's summary line (the last line of standard output)
as printed and, per end-to-end metric of ``BENCHMARK.json``, each side's
quartiles (linear interpolation), the number of pairs the change won and
the ratio of the medians, change over parent; per metric of the traced
runs, each side's median; and, per layer that takes at least 1% of a pass,
each side's median time in it on perfbench's reference-speed scale:
``cold_share.<layer>`` times ``trace.cold_s`` and ``warm_share.<layer>``
times ``trace.warm_s``, where ``<layer>.self_s`` is span wall time that a
phase of host speed can move.  Those layers are printed too.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10
TRACED_PAIRS = 3
SECONDS = 10
# a layer's share of a cold or warm pass from which layer_times reports it
LAYER_SHARE_MIN = 0.01


def quartiles(values: list[float]) -> list[float]:
    """[q1, median, q3] with linear interpolation between order statistics."""
    return statistics.quantiles(values, n=4, method="inclusive")


def change_wins(parent: list[float], change: list[float], better: str) -> int:
    """Pairs in which the change is strictly better than the parent."""
    if better == "lower":
        return sum(c < p for p, c in zip(parent, change))
    return sum(c > p for p, c in zip(parent, change))


def median_ratio(parent: list[float], change: list[float]) -> float:
    return statistics.median(change) / statistics.median(parent)


def summarize(pairs: list[dict], end_to_end: list[dict]) -> dict:
    """Per metric: each side's quartiles, the change's wins and the ratio of
    the medians, from the summary lines of ``pairs``."""
    lines = {side: [json.loads(p[side])["metrics"] for p in pairs] for side in ("parent", "change")}
    summary = {}
    for metric in end_to_end:
        name = metric["name"]
        parent = [m[name]["value"] for m in lines["parent"]]
        change = [m[name]["value"] for m in lines["change"]]
        summary[name] = {
            "parent_q1_median_q3": quartiles(parent),
            "change_q1_median_q3": quartiles(change),
            "change_wins": change_wins(parent, change, metric["better"]),
            "median_ratio": median_ratio(parent, change),
        }
    return summary


def traced_medians(pairs: list[dict]) -> dict:
    """Per side, the median of each metric over the traced runs of ``pairs``
    (the per-layer metrics and the tracing overhead of ``--trace 1``)."""
    medians = {}
    for side in ("parent", "change"):
        runs = [json.loads(p[side])["metrics"] for p in pairs]
        medians[side] = {name: statistics.median(m[name]["value"] for m in runs) for name in runs[0]}
    return medians


def layer_times(pairs: list[dict]) -> dict:
    """Per layer whose median cold or warm share is at least
    ``LAYER_SHARE_MIN`` on either side, and per side, the median over the
    traced runs of ``pairs`` of cold_share.<layer> x trace.cold_s
    (``cold_s``) and of warm_share.<layer> x trace.warm_s (``warm_s``)."""
    runs = {side: [json.loads(p[side])["metrics"] for p in pairs] for side in ("parent", "change")}
    layers = [name.removeprefix("cold_share.") for name in runs["parent"][0] if name.startswith("cold_share.")]
    times = {}
    for layer in layers:
        shares = [statistics.median(m[f"{phase}_share.{layer}"]["value"] for m in side)
                  for side in runs.values() for phase in ("cold", "warm")]
        if max(shares) >= LAYER_SHARE_MIN:
            times[layer] = {name: {f"{phase}_s": statistics.median(
                m[f"{phase}_share.{layer}"]["value"] * m[f"trace.{phase}_s"]["value"] for m in side)
                for phase in ("cold", "warm")} for name, side in runs.items()}
    return times


def alternating(count: int) -> list[tuple[str, str]]:
    """The order of the two sides in each of ``count`` pairs: the parent
    first in even pairs, the change first in odd ones."""
    return [("parent", "change") if i % 2 == 0 else ("change", "parent") for i in range(count)]


def failed_counts(pairs: list[dict]) -> list[int]:
    """Failed operations summed over the parent's runs and the change's."""
    return [sum(json.loads(p[side])["failed"] for p in pairs) for side in ("parent", "change")]


def export(ref: str, into: Path) -> Path:
    """The committed files of ``ref``, extracted under ``into``."""
    tar = subprocess.run(["git", "archive", "--format=tar", ref], cwd=ROOT,
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(into, filter="data")
    return into


def export_working_tree(into: Path) -> Path:
    """The working tree's tracked files as they are, plus its untracked files
    that git does not ignore, copied under ``into``; a tracked file deleted
    from the working tree is left out."""
    listing = subprocess.run(["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
                             cwd=ROOT, capture_output=True, check=True).stdout
    for name in filter(None, os.fsdecode(listing).split("\0")):
        if (ROOT / name).is_file():
            (into / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, into / name)
    return into


def commit_of(ref: str) -> str:
    return subprocess.run(["git", "rev-parse", "--short", ref], cwd=ROOT, capture_output=True,
                          text=True, check=True).stdout.strip()


def summary_line(root: Path, workload: str, seed: int, trace: int) -> str:
    """The last line of standard output of one perfbench run in ``root``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", str(trace)]
    run = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if run.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {root} exited with {run.returncode}:\n{run.stderr[-3000:]}")
    line = run.stdout.strip().splitlines()[-1]
    print(f"{root.name} {workload} seed {seed} trace {trace}: {line[:100]}...", file=sys.stderr)
    return line


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="commit the change is measured against")
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--traced", required=True, help="workload of the one traced run per side")
    parser.add_argument("--workdir", type=Path, help="where the exports go (default: a temporary directory)")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    with tempfile.TemporaryDirectory(dir=args.workdir) as tmp:
        roots = {"parent": export(args.parent, Path(tmp) / "parent"),
                 "change": export_working_tree(Path(tmp) / "change")}
        seeds = range(args.first_seed, args.first_seed + PAIRS)
        workloads = {}
        for name in (w["name"] for w in bench["workloads"]):
            pairs = []
            for seed, order in zip(seeds, alternating(PAIRS)):
                lines = {side: summary_line(roots[side], name, seed, 0) for side in order}
                pairs.append({"seed": seed, "first": order[0], "parent": lines["parent"], "change": lines["change"]})
            workloads[name] = {"pairs": pairs, "summary": summarize(pairs, bench["end_to_end"]),
                               "failed_parent_change": failed_counts(pairs)}
        traced = []
        for order in alternating(TRACED_PAIRS):
            lines = {side: summary_line(roots[side], args.traced, args.first_seed, 1) for side in order}
            traced.append({"first": order[0], "parent": lines["parent"], "change": lines["change"]})
    record = {
        "description": (
            f"perfbench/run.py summary lines (the last line of standard output, kept as printed) of "
            f"{PAIRS} alternating parent/change pairs per workload, --seconds {SECONDS} "
            f"--trace 0, seeds {seeds[0]}-{seeds[-1]}, on a {os.cpu_count()}-CPU host, written by "
            f"tools/bench_pairs.py from fresh exports of both sides, with the caller's environment; "
            f"even pairs ran the parent first, odd pairs the change first. "
            f"traced: {TRACED_PAIRS} alternating --trace 1 {args.traced} pairs at seed {seeds[0]}, "
            f"and traced_medians each side's median of every traced metric; traced_layer_times, per "
            f"layer with a median share of at least {LAYER_SHARE_MIN:g} of a pass on either side, each "
            f"side's median of cold_share x trace.cold_s and warm_share x trace.warm_s (reference-speed "
            f"seconds). summary: per metric, "
            f"each side's quartiles (linear interpolation), the number of pairs the change won and "
            f"the ratio of the medians, change over parent."),
        "parent": commit_of(args.parent),
        "change": "working tree",
        "command": f"python3 perfbench/run.py --workload <w> --seed <s> --seconds {SECONDS} --trace 0",
        "workloads": workloads,
        "traced": traced,
        "traced_medians": traced_medians(traced),
        "traced_layer_times": layer_times(traced),
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for name, data in workloads.items():
        for metric, s in data["summary"].items():
            print(f"{name:<13} {metric:<12} wins {s['change_wins']:>2}/{PAIRS}  "
                  f"median ratio {s['median_ratio']:.3f}")
    for layer, sides in record["traced_layer_times"].items():
        parent, change = sides["parent"], sides["change"]
        print(f"{args.traced} {layer:<40} cold {parent['cold_s']:.4f} -> {change['cold_s']:.4f} s  "
              f"warm {parent['warm_s']:.4f} -> {change['warm_s']:.4f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
