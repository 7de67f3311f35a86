"""Self-tests of the benchmark's own arithmetic, checks and tracer.

    python3 -m pytest perfbench -q
"""

import math
import signal
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import spans
import speed
import workloads

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def test_self_time_of_nested_span_tree():
    # root [0, 10] holds a [1, 3] and b [4, 9]; b holds c [5, 6] and d [6.5, 8];
    # d holds e [7, 7.25]
    parent = np.array([-1, 0, 0, 2, 2, 4])
    start = np.array([0.0, 1.0, 4.0, 5.0, 6.5, 7.0])
    end = np.array([10.0, 3.0, 9.0, 6.0, 8.0, 7.25])
    own = spans.self_times(parent, start, end)
    np.testing.assert_allclose(own, [10 - 2 - 5, 2, 5 - 1 - 1.5, 1, 1.5 - 0.25, 0.25])
    assert own.sum() == pytest.approx(10.0)


def _cdf(value):
    return workloads.Op("probe", "cdf", lambda: value, 0.5)


def _raise():
    raise OverflowError("intermediate overflow in fsum")


@pytest.mark.parametrize("op", [
    workloads.Op("probe", "cdf", _raise, 0.5),
    _cdf(math.inf),
    _cdf(math.nan),
    _cdf(1.5),
    _cdf(-0.25),
], ids=["exception", "inf", "nan", "above-1", "below-0"])
def test_checker_counts_each_bad_output_as_one_failure(op):
    results = [workloads.run_op(o) for o in (op, _cdf(0.5))]
    assert [reason is not None for _, _, _, reason in results] == [True, False]


def test_checker_tolerances():
    near = workloads.Op("probe", "cdf", None, 0.5)
    assert workloads.judge(near, 0.5 * (1 + 0.5e-12)) is None
    assert workloads.judge(near, 0.5 * (1 + 4e-12)) is not None
    tiny = workloads.Op("probe", "cdf", None, 1e-20)
    assert workloads.judge(tiny, 5e-14) is None  # absolute floor near 0
    tail = workloads.Op("probe", "cdf", None, 1.0, workloads.TAIL_ABS_TOL)
    assert workloads.judge(tail, 1 - 2e-12) is None
    assert workloads.judge(tail, 1 - 1e-9) is not None


def test_known_defects_are_excused_only_for_their_seed_outcome():
    known = workloads.known_defects()
    assert known == {
        "tail/b8/x200": "non-finite value inf",
        "tail/b4/x400": "OverflowError: intermediate overflow in fsum",
        "tail/b8/x400": "OverflowError: intermediate overflow in fsum",
    }
    for value in (0.5, 1 - 1e-9, math.nan):
        op = workloads.Op("tail/b8/x200", "cdf", lambda v=value: v, 1.0, workloads.TAIL_ABS_TOL)
        _, _, _, reason = workloads.run_op(op)
        assert reason is not None and reason != known[op.key]


def test_tracer_rebinds_importers_and_restores_every_attribute():
    jd = workloads.import_library()
    originals = {
        "core": jd.core.enumerate_partitions,
        "jack": jd.jack.enumerate_partitions,
        "strips": vars(jd.jack.JackTable)["strips"],
        "pfq_m2": jd.wishart.pfq_positive_m2,
    }
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert jd.jack.enumerate_partitions is not originals["jack"]
        assert jd.wishart.pfq_positive_m2 is not originals["pfq_m2"]
        assert not tracer.restored()
        with tracer.span(spans.OP, 0):
            jd.jack_C(jd.Partition((2, 1)), (1.0, 2.0, 3.0), jd.COMPLEX)
        # outside both passes (operation id -1): not counted
        jd.jack_C(jd.Partition((3, 1)), (1.0, 2.0, 3.0), jd.COMPLEX)
    finally:
        tracer.uninstall()
    assert tracer.restored()
    assert tracer.missing == []
    assert jd.core.enumerate_partitions is originals["core"]
    assert jd.jack.enumerate_partitions is originals["jack"]
    assert vars(jd.jack.JackTable)["strips"] is originals["strips"]
    assert jd.wishart.pfq_positive_m2 is originals["pfq_m2"]
    metrics = tracer.metrics(1, 1.0, 1.0)
    assert metrics["jack.jack_C.calls"] == 1
    assert metrics["jack.JackTable.strips.calls"] >= metrics["jack.JackTable.strips.misses"] > 0


def test_speed_scale_of_an_interval_widens_to_the_nearest_probes():
    sampler = speed.Sampler()
    ref = speed.REFERENCE_S
    sampler.at = [float(i) for i in range(20)]
    sampler.took = [ref] * 10 + [2 * ref] * 10
    assert sampler.spent(10.0, 12.0) == pytest.approx(4 * ref)
    # eight probes inside, all twice as slow as the reference
    assert sampler.scale(12.0, 19.5) == pytest.approx(0.5)
    # one probe inside: widened to probes 6..13, four at each speed
    assert sampler.scale(10.0, 10.5) == pytest.approx(1 / 1.5)
    # at the start of the record the window can only grow to the right
    assert sampler.scale(0.0, 0.5) == pytest.approx(1.0)


def test_sampler_probes_from_the_alarm_and_stops():
    sampler = speed.Sampler()
    start = time.perf_counter()
    sampler.start()
    try:
        while time.perf_counter() - start < 0.3:
            sum(range(1000))
    finally:
        sampler.stop()
    end = time.perf_counter()
    assert len(sampler.at) >= 5
    assert 0 < sampler.spent(start, end) < 0.3
    assert sampler.scale(start, end) > 0
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
