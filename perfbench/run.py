"""jackdiv benchmark: one command for the `figures`, `cdf_m3` and
`verify_quick` workloads (see NOTES.md for why each exists).

    python3 perfbench/run.py --workload cdf_m3 --seed 1 --seconds 20 --trace 0

Run it from the repository root.  Every measurement runs in a fresh worker
process (worker.py) with BLAS and OpenMP pools capped at one thread.  With
`--trace 0` it prints the end-to-end metrics, their times scaled to a
reference machine speed that each worker samples while it works (speed.py),
and the unscaled times beside them; with `--trace 1` it prints the
per-layer metrics of a traced run (spans.py) and the tracing overhead.
`--workload all` runs the three workloads in turn.  The last line of
standard output is one JSON object; a record with the raw numbers and the
provenance goes to perfbench/results/.

No machine setting is changed: no CPU pinning, no cache dropping.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = workloads.RESULTS

# Workers started side by side in each round (see run_workers).  Set-up is
# short and noisy, so a run also starts one round of set-up-only workers.
PARALLEL = min(2, len(os.sched_getaffinity(0)))
# Every run must end within 180 s; stop starting processes well before.
RUN_DEADLINE_S = 170.0
WORKER_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
END_TO_END = (
    ("setup_s", "s"),
    ("cold_s", "s"),
    ("warm_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)
MACHINE_NOTE = "no machine setting was changed: no CPU pinning, no cache dropping"


class BenchError(RuntimeError):
    """The benchmark itself could not measure (not a failed operation)."""


def run_workers(workload: str, seed: int, modes: list[str], deadline: float) -> list[dict]:
    """Start one worker per mode at once, wait for all, return their results.

    The workers of a round run side by side, one per CPU, which doubles the
    samples a run takes at no extra wall time.
    """
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"no time left to start {modes} processes")
    procs = []
    try:
        for mode in modes:
            cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
                   "--seed", str(seed), "--mode", mode]
            started = time.monotonic()
            proc = subprocess.Popen(cmd, cwd=ROOT, env={**os.environ, **WORKER_ENV},
                                    stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
            procs.append((mode, started, proc))
        results = []
        for mode, started, proc in procs:
            try:
                out, err = proc.communicate(timeout=max(deadline - time.monotonic(), 0.1))
            except subprocess.TimeoutExpired as exc:
                raise BenchError(f"{mode} process of {workload} passed the run's deadline") from exc
            if proc.returncode != 0:
                raise BenchError(f"{mode} process of {workload} exited with {proc.returncode}:\n{err[-3000:]}")
            result = json.loads(out.strip().splitlines()[-1])
            result["setup_wall_s"] = result["ready"] - started - result["setup_probe_s"]
            result["setup_s"] = result["setup_wall_s"] * result["setup_scale"]
            results.append(result)
        return results
    finally:
        for _, _, proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()


def tail_index(n: int) -> int:
    """Index, in ascending order, of the latency with exactly ten slower
    operations: the highest percentile with at least ten beyond it."""
    if n < 11:
        raise BenchError(f"a pass needs at least 11 operations for a tail latency, has {n}")
    return n - 11


def measure(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    """End-to-end metrics: a round of set-up-only workers, then rounds of
    cycles (a cold and a warm pass, each worker a fresh process), started
    until ``seconds`` have passed (at least one)."""
    setups = run_workers(workload, seed, ["setup"] * PARALLEL, deadline)
    cycles, round_s = [], 0.0
    window = time.monotonic()
    while not cycles or time.monotonic() - window < seconds:
        if cycles and time.monotonic() + 1.5 * round_s > deadline:
            break
        start = time.monotonic()
        cycles += run_workers(workload, seed, ["cycle"] * PARALLEL, deadline)
        round_s = time.monotonic() - start
    n = cycles[0]["ops_per_pass"]
    # each operation's median over the cycles, then the order statistics
    per_op = sorted(statistics.median(lat) for lat in zip(*(c["cold"]["scaled_latencies_s"] for c in cycles)))
    values = {
        "setup_s": statistics.median(r["setup_s"] for r in setups + cycles),
        "cold_s": statistics.median(c["cold"]["scaled_s"] for c in cycles),
        "warm_s": statistics.median(c["warm"]["scaled_s"] for c in cycles),
        "op_p50_ms": 1e3 * statistics.median(per_op),
        "op_tail_ms": 1e3 * per_op[tail_index(n)],
        "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in cycles),
    }
    failures = [c[p]["failures"] for c in cycles for p in ("cold", "warm")]
    return {
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END},
        "attempted": n * len(failures),
        "failures": failures,
        "worker": cycles[0],
        "raw": {
            "setup_s": [r["setup_s"] for r in setups + cycles],
            "setup_wall_s": [r["setup_wall_s"] for r in setups + cycles],
            "cycles": [{"cold_s": c["cold"]["scaled_s"], "warm_s": c["warm"]["scaled_s"],
                        "cold_wall_s": c["cold"]["wall_s"], "warm_wall_s": c["warm"]["wall_s"],
                        "cold_cpu_s": c["cold"]["cpu_s"], "warm_cpu_s": c["warm"]["cpu_s"],
                        "peak_rss_mb": c["peak_rss_mb"],
                        "cold_latencies_s": c["cold"]["latencies_s"],
                        "cold_scaled_latencies_s": c["cold"]["scaled_latencies_s"]} for c in cycles],
        },
        "tail_percentile": 100.0 * (n - 10) / n,
        # unscaled wall and process CPU time, recorded beside the scaled
        # times to show how fast the host ran
        "unscaled": {"setup_wall_s": statistics.median(r["setup_wall_s"] for r in setups + cycles),
                     **{f"{p}_{kind}_s": statistics.median(c[p][kind + "_s"] for c in cycles)
                        for p in ("cold", "warm") for kind in ("wall", "cpu")}},
    }


def measure_traced(workload: str, seed: int, deadline: float) -> dict:
    """Per-layer metrics: an untraced cold pass beside a traced cycle, each in
    a fresh process; their cold-pass difference is the tracing overhead."""
    RESULTS.mkdir(exist_ok=True)
    untraced, traced = run_workers(workload, seed, ["cold", "traced"], deadline)
    if not traced["restored"]:
        raise BenchError("the tracer left a library attribute rebound")
    n = traced["ops_per_pass"]
    values = dict(traced["trace"])
    cold, warm, base = traced["cold"]["scaled_s"], traced["warm"]["scaled_s"], untraced["cold"]["scaled_s"]
    values.update({
        "trace.cold_s": cold,
        "trace.warm_s": warm,
        "trace.untraced_cold_s": base,
        "trace.overhead_s": cold - base,
        "trace.overhead_share": (cold - base) / base,
    })
    failures = [untraced["cold"]["failures"], traced["cold"]["failures"], traced["warm"]["failures"]]
    attempted = 3 * n
    if "cli_failures" in traced:
        failures.append(traced["cli_failures"])
        attempted += 1
    return {
        "metrics": {name: {"value": v, "unit": unit_of(name)} for name, v in values.items()},
        "attempted": attempted,
        "failures": failures,
        "worker": traced,
        "raw": {"spans": traced["spans"],
                "spans_file": str(workloads.spans_file(workload, seed).relative_to(ROOT)),
                "missing_boundaries": traced["missing_boundaries"]},
    }


def unit_of(name: str) -> str:
    if name.endswith(("_s", ".self_s")):
        return "s"
    if name.endswith(("hit_ratio", "_share")) or "_share." in name:
        return "ratio"
    return "count"


def source_digest(root: Path) -> str:
    """sha256 over the library's source files, for checkouts without git."""
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "jackdiv").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(workload: str, seed: int, worker: dict) -> dict:
    prov = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": worker["python"],
        "numpy": worker["numpy"],
        "scipy": worker["scipy"],
        "git_commit": git_commit(ROOT),
        "source_digest": source_digest(ROOT),
        "workload": workload,
        "seed": seed,
        "ops_per_pass": worker["ops_per_pass"],
        "worker_env": WORKER_ENV,
        "machine": MACHINE_NOTE,
    }
    if "suite_seed" in worker:
        prov["verify_suite_seed"] = worker["suite_seed"]
    return prov


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_DEADLINE_S
    out = measure_traced(workload, seed, deadline) if trace else measure(workload, seed, seconds, deadline)
    merged = {key: reason for f in out["failures"] for key, reason in f.items()}
    n_failed = sum(len(f) for f in out["failures"])
    known = workloads.known_defects()
    n_known = sum(1 for f in out["failures"] for key, reason in f.items() if known.get(key) == reason)
    record = {
        "provenance": provenance(workload, seed, out["worker"]),
        "trace": trace,
        "seconds": seconds,
        "metrics": out["metrics"],
        "attempted": out["attempted"],
        "failed_all": n_failed,
        "failed_known_defects": n_known,
        "fail_ratio": n_failed / out["attempted"],
        "failures": merged,
        "known_defects": known,
        "raw": out["raw"],
    }
    if not trace:
        record["tail_percentile"] = out["tail_percentile"]
        record["unscaled"] = out["unscaled"]
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    record["path"] = path
    return record


def print_record(rec: dict) -> None:
    prov = rec["provenance"]
    n = prov["ops_per_pass"]
    mode = "traced run" if rec["trace"] else "trace off"
    print(f"== {prov['workload']}  seed {prov['seed']}  {n} ops per pass  ({mode})")
    metrics = rec["metrics"]
    if rec["trace"]:
        for pass_name in ("cold", "warm"):
            shares = sorted(((m["value"], k.split(".", 1)[1]) for k, m in metrics.items()
                             if k.startswith(f"{pass_name}_share.")), reverse=True)
            top = ", ".join(f"{name} {share:.1%}" for share, name in shares[:4])
            print(f"  {pass_name} pass self-time shares: {top}")
        base, over = metrics["trace.untraced_cold_s"]["value"], metrics["trace.overhead_s"]["value"]
        print(f"  tracing overhead: {over:.4g} s on a {base:.4g} s untraced cold pass "
              f"({over / base:+.1%}); {rec['raw']['spans']} spans in {rec['raw']['spans_file']}")
    else:
        cycles = len(rec["raw"]["cycles"])
        notes = {
            "setup_s": f"median of {len(rec['raw']['setup_s'])} set-ups",
            "cold_s": f"median of {cycles} cycles",
            "op_tail_ms": f"p{rec['tail_percentile']:.1f}: 10 of {n} cold-pass ops are slower",
        }
        for name, unit in END_TO_END:
            print(f"  {name:<12} {metrics[name]['value']:>12.6g} {unit:<3} {notes.get(name, '')}")
        raw = rec["unscaled"]
        print(f"  times above are scaled to the reference speed (speed.py); unscaled medians: "
              f"set-up {raw['setup_wall_s']:.4g} s, cold pass {raw['cold_wall_s']:.4g} s wall / "
              f"{raw['cold_cpu_s']:.4g} s CPU, warm pass {raw['warm_wall_s']:.4g} s wall / "
              f"{raw['warm_cpu_s']:.4g} s CPU")
    print(f"  {'fail_ratio':<12} {rec['fail_ratio']:>12.6g} {'-':<3} "
          f"{rec['failed_all']} of {rec['attempted']} ops failed, "
          f"{rec['failed_known_defects']} of them known defects")
    for key, reason in sorted(rec["failures"].items()):
        known = " (known defect)" if rec["known_defects"].get(key) == reason else ""
        print(f"    {key}{known}: {reason}")
    print(f"  provenance: nproc {prov['nproc']}, {prov['cpu_model']}, python {prov['python']}, "
          f"numpy {prov['numpy']}, scipy {prov['scipy']}, commit {prov['git_commit'] or 'n/a'}, "
          f"source {prov['source_digest'][:12]}; {MACHINE_NOTE}")
    print(f"  record: {rec['path'].relative_to(ROOT)}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring window; whole cycles, at least one")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "jackdiv" / "__init__.py").is_file():
        print(f"error: no jackdiv sources under {ROOT / 'src'}; run from a repository checkout",
              file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    try:
        for name in names:
            rec = run_workload(name, args.seed, args.seconds, bool(args.trace))
            print_record(rec)
            records.append(rec)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    # Known defects count in fail_ratio above but not in `failed`, so that
    # any other failure stands out; see workloads.known_defects.
    failed = sum(r["failed_all"] - r["failed_known_defects"] for r in records)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['provenance']['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in records),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
