"""Write reference.json: the value of every deterministic operation of the
`figures` and `cdf_m3` workloads, computed by the library in this checkout.

Run from the repository root:  python3 perfbench/make_reference.py

The committed file was produced at the commit that defined the benchmark;
regenerate it only to re-baseline, never to make a changed value pass.
The far-tail points are not stored: their reference is 1.0 (see
workloads.py).  What the library returns there is recorded under
"tail_outcomes"; a failure recorded there is the one outcome at that point
left out of a run's `failed` count (workloads.known_defects).
"""

from __future__ import annotations

import collections
import json
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import workloads  # noqa: E402
from run import source_digest  # noqa: E402


def main() -> int:
    jd = workloads.import_library()
    values, tails = {}, {}
    placeholder = collections.defaultdict(float)
    for name in ("figures", "cdf_m3"):
        for op in workloads.build_ops(jd, name, seed=0, ref=placeholder):
            if op.kind == "empirical":
                continue
            try:
                value = float(op.call())
            except Exception as exc:  # recorded, as the tail defects raise
                value = f"{type(exc).__name__}: {exc}"
            if op.key.startswith("tail/"):
                tails[op.key] = repr(value) if isinstance(value, float) else value
            else:
                values[op.key] = value
    out = {
        "generated_by": "perfbench/make_reference.py",
        "source_digest": source_digest(ROOT),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "tail_outcomes": tails,
        "values": values,
    }
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(values)} reference values to {workloads.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
