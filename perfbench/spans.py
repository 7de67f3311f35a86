"""Spans around the calls into each library layer, installed from outside the
library by rebinding module and class attributes, and removed afterwards.

A span is (boundary, parent span, operation id, start, end, raised).  Spans
live in compact arrays in memory and are written out when the run ends.  Because the
benchmark is single-threaded, spans nest as a stack, so the time a span's
children cover is the sum of their durations.
"""

from __future__ import annotations

import importlib
import sys
from array import array
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np


def _count_strips(tracer, name, args, result):
    table, kappa = args[0], args[1]
    key = (table.algebra.beta, tuple(kappa))
    if key not in tracer.seen_strips:
        tracer.seen_strips.add(key)
        tracer.counts[name + ".misses"] += 1
        tracer.counts[name + ".pairs_priced"] += len(result)


def _count_partitions(tracer, name, args, result):
    tracer.counts[name + ".partitions"] += len(result)


def _count_series(tracer, name, args, result):
    tracer.counts[name + ".degrees"] += result.degrees_used
    tracer.counts[name + ".unconverged"] += not getattr(result, "converged", True)


def _count_draws(tracer, name, args, result):
    tracer.counts[name + ".draws"] += len(result)


# (module, attribute or Class.method, extra counts taken from each call)
BOUNDARIES = (
    ("core", "enumerate_partitions", None),
    ("core", "hook_product", None),
    ("jack", "JackTable.strips", _count_strips),
    ("jack", "ChatEvaluator.degree_values", _count_partitions),
    ("jack", "jack_C", None),
    ("jack", "jack_C_batch", None),
    ("hypergeom", "pfq", _count_series),
    ("hypergeom", "pfq_two", _count_series),
    ("hypergeom", "pfq_batch", _count_series),
    ("hypergeom", "pfq_positive_m2", _count_series),
    ("special", "mv_gamma_ln", None),
    ("wishart", "cdf_lambda_max", None),
    ("wishart", "cdf_lambda_min", None),
    ("wishart", "cdf_wishart_region", None),
    ("wishart", "joint_eigen_density", None),
    ("wishart", "sample_wishart_eigs", _count_draws),
    ("verify", "ConeSampler.sample", None),
    ("_quat", "haar_batch", None),
    ("_quat", "dedupe_pairs", None),
    ("cli", "main", None),
)
EXTRA_COUNTS = {
    _count_strips: ("misses", "pairs_priced"),
    _count_partitions: ("partitions",),
    _count_series: ("degrees", "unconverged"),
    _count_draws: ("draws",),
}


def boundary_name(module: str, attr: str) -> str:
    """Span and metric name of a boundary; metric names start with a letter,
    so the `_quat` module reports as `quat`."""
    return f"{module.lstrip('_')}.{attr}"


# Root spans the benchmark opens around each operation: one suite thunk of
# `verify_quick`, or any other operation (its self time is the benchmark loop
# plus library code outside every boundary).
CASE = "verify.case"
OP = "bench.op"
# Boundaries called only outside both passes (the fig1 CSV render, whose
# spans carry operation id -1).  They report that render alone; every other
# boundary reports the two passes alone.
OUTSIDE_PASSES = ("cli.main",)


class Tracer:
    """Records spans and counts at BOUNDARIES while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")
        self.counts: dict[str, int] = defaultdict(int)
        self.seen_strips: set = set()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._op_id = -1
        self._rebound: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid: int) -> int:
        sid = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op_id)
        self.start.append(perf_counter())
        self.end.append(0.0)
        self.raised.append(0)
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, op_id: int):
        """Root span the benchmark itself opens around operation ``op_id``."""
        self._op_id = op_id
        sid = self._open(self._id(name))
        try:
            yield
        except BaseException:
            self.raised[sid] = 1
            raise
        finally:
            self._close(sid)
            self._op_id = -1

    def _wrap(self, name: str, fn, count):
        nid = self._id(name)
        tracer = self

        def traced(*args, **kwargs):
            sid = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.raised[sid] = 1
                raise
            finally:
                tracer._close(sid)
            # extra counts, like every other per-boundary metric, cover the
            # two passes only
            if count is not None and tracer._op_id >= 0:
                count(tracer, name, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Rebind every boundary, in its own module and in every `jackdiv`
        module that imported it by name."""
        modules = [mod for key, mod in list(sys.modules.items())
                   if key == "jackdiv" or key.startswith("jackdiv.")]
        for module_name, attr, count in BOUNDARIES:
            name = boundary_name(module_name, attr)
            self._id(name)
            owner = importlib.import_module(f"jackdiv.{module_name}")
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name, None)
                if cls is None or method not in vars(cls):
                    self.missing.append(name)
                    continue
                original = vars(cls)[method]
                self._rebound.append((cls, method, original))
                setattr(cls, method, self._wrap(name, original, count))
                continue
            original = vars(owner).get(attr)
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original, count)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebound.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for obj, key, original in reversed(self._rebound):
            setattr(obj, key, original)

    def restored(self) -> bool:
        """True when every rebound attribute is the original object again."""
        return all(vars(obj)[key] is original for obj, key, original in self._rebound)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "raised": np.frombuffer(self.raised, dtype=np.int8).astype(bool),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.asarray(self.names), **self.arrays())

    def metrics(self, ops_per_pass: int, cold_s: float, warm_s: float) -> dict[str, float]:
        """Per-boundary calls, errors, self time and extra counts over both
        passes (OUTSIDE_PASSES: over the calls outside them), and each
        boundary's share of the traced cold and warm pass."""
        spans = self.arrays()
        own = self_times(spans["parent"], spans["start"], spans["end"])
        ids, op = spans["name_id"], spans["op"]
        in_passes = op >= 0
        cold = in_passes & (op < ops_per_pass)
        warm = op >= ops_per_pass
        counted = [boundary_name(mod, attr) for mod, attr, _ in BOUNDARIES] + [CASE]
        extras = {boundary_name(mod, attr): EXTRA_COUNTS[count]
                  for mod, attr, count in BOUNDARIES if count is not None}
        extras[CASE] = ("samples",)
        out: dict[str, float] = {}
        for name in counted:
            mask = (ids == self._id(name)) & (~in_passes if name in OUTSIDE_PASSES else in_passes)
            out[f"{name}.calls"] = int(mask.sum())
            out[f"{name}.errors"] = int(spans["raised"][mask].sum())
            out[f"{name}.self_s"] = float(own[mask].sum())
            for extra in extras.get(name, ()):
                out[f"{name}.{extra}"] = self.counts.get(f"{name}.{extra}", 0)
        strips = "jack.JackTable.strips"
        calls = out[f"{strips}.calls"]
        out[f"{strips}.hit_ratio"] = (calls - out[f"{strips}.misses"]) / calls if calls else 0.0
        for name in counted + [OP]:
            if name in OUTSIDE_PASSES:
                continue
            mask = ids == self._id(name)
            out[f"cold_share.{name}"] = float(own[mask & cold].sum()) / cold_s
            out[f"warm_share.{name}"] = float(own[mask & warm].sum()) / warm_s
        return out


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Each span's duration minus the time its child spans cover.

    Spans recorded from one thread nest as a stack, so siblings never
    overlap and the covered time is the sum of the children's durations.
    """
    duration = end - start
    child = parent >= 0
    covered = np.bincount(parent[child], weights=duration[child], minlength=len(duration))
    return duration - covered
