"""One benchmark process.  run.py starts it fresh, with BLAS and OpenMP
pools capped at one thread, so its first pass starts from an empty
`JackTable` and empty `lru_cache`s, as a `jackdiv` CLI invocation does.

Modes:
  setup   import the library, build the inputs, load the references, exit
  cold    set up, then run the operation list once (the cold pass)
  cycle   set up, then run it twice: the cold pass and the warm pass
  traced  like cycle, with spans at every layer boundary (see spans.py)

A speed sampler (speed.py) runs from the first line of `main` to the end,
before numpy and the library are imported, so that set-up is sampled too.
Every time reported leaves the probes' own time out, and comes both as
measured and scaled to the reference speed.

Prints one JSON object.  `ready` is time.monotonic() when set-up ended; the
parent subtracts the moment it started this process and `setup_probe_s`.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import platform
import resource
import sys
import time
from pathlib import Path

import speed

ROOT = Path(__file__).resolve().parent.parent


def run_pass(ops, first_op_id: int, sampler: speed.Sampler, tracer=None) -> dict:
    """Run every operation once, in order; time each one and judge it."""
    import spans
    import workloads

    latencies, intervals, failures = [], [], {}
    cpu_start = time.process_time()
    start = time.perf_counter()
    for i, op in enumerate(ops):
        if tracer is None:
            t0, t1, value, reason = workloads.run_op(op)
        else:
            root = spans.CASE if op.kind == "verify" else spans.OP
            with tracer.span(root, first_op_id + i):
                t0, t1, value, reason = workloads.run_op(op)
            if root == spans.CASE and value is not None:
                tracer.counts[spans.CASE + ".samples"] += value.n_samples
        latencies.append(t1 - t0 - sampler.spent(t0, t1))
        intervals.append((t0, t1))
        if reason is not None:
            failures[op.key] = reason
    end = time.perf_counter()
    # scaled once the pass is over, so that a short operation's nearest
    # probes include those that ran after it
    scaled = [seconds * sampler.scale(t0, t1) for seconds, (t0, t1) in zip(latencies, intervals)]
    probe_s = sampler.spent(start, end)
    wall_s = end - start - probe_s
    return {"wall_s": wall_s, "probe_s": probe_s,
            # the probes' wall time stands in for their CPU time
            "cpu_s": time.process_time() - cpu_start - probe_s,
            # the time outside the operations (judging, the loop) is scaled
            # like the operations
            "scaled_s": wall_s * sum(scaled) / sum(latencies),
            "latencies_s": latencies, "scaled_latencies_s": scaled, "failures": failures}


def render_fig1(jd, ref: dict) -> dict:
    """One `jackdiv figures fig1` through cli.main, checked row by row
    against the per-point references (the traced run's cli layer)."""
    import workloads

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = jd.cli.main(["figures", "fig1"])
    rows = out.getvalue().splitlines()[2:]  # header, then x = 0
    failures = {} if code == 0 and len(rows) == 95 else {"cli/fig1": f"exit {code}, {len(rows)} rows"}
    for i, row in enumerate(rows, start=1):
        for beta, text in zip(workloads.BETAS, row.split(",")[1:]):
            key = f"fig1/b{beta}/{i}"
            reason = workloads.judge(workloads.Op(key, "cdf", None, ref[key]), float(text))
            if reason is not None:
                failures.setdefault("cli/fig1", f"{key}: {reason}")
    return failures


def main() -> int:
    sampler = speed.Sampler()
    sampler.start()
    try:
        result = run(sampler)
    finally:
        sampler.stop()
    # printed with the timer off: an alarm inside a write to a full pipe
    # cuts the write short
    print(json.dumps(result))
    return 0


def run(sampler: speed.Sampler) -> dict:
    set_up = time.perf_counter()
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "cold", "cycle", "traced"), required=True)
    args = parser.parse_args()

    import numpy as np
    import scipy

    import spans
    import workloads

    sys.path.insert(0, str(ROOT / "src"))
    jd = workloads.import_library()
    ref = workloads.load_reference()
    ops = workloads.build_ops(jd, args.workload, args.seed, ref)
    ready = time.perf_counter()
    result = {
        "ready": time.monotonic(),
        "setup_probe_s": sampler.spent(set_up, ready),
        "ops_per_pass": len(ops),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }
    if args.workload == "verify_quick":
        result["suite_seed"] = workloads.suite_seed(args.seed)
    if args.mode != "setup":
        tracer = None
        if args.mode == "traced":
            tracer = spans.Tracer()
            tracer.install()
        result["cold"] = run_pass(ops, 0, sampler, tracer)
        if args.mode != "cold":
            result["warm"] = run_pass(ops, len(ops), sampler, tracer)
        if tracer is not None:
            if args.workload == "figures":
                result["cli_failures"] = render_fig1(jd, ref)
            tracer.uninstall()
            result["restored"] = tracer.restored()
            result["missing_boundaries"] = tracer.missing
            # probes run inside the spans, so shares are of the pass with them
            result["trace"] = tracer.metrics(len(ops), *(result[p]["wall_s"] + result[p]["probe_s"]
                                                         for p in ("cold", "warm")))
            result["spans"] = len(tracer.start)
            tracer.save(workloads.spans_file(args.workload, args.seed))
    # the speed of the whole set-up, interpreter start-up aside
    result["setup_scale"] = sampler.scale(set_up, ready)
    # ru_maxrss is in KiB on Linux
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return result


if __name__ == "__main__":
    sys.exit(main())
