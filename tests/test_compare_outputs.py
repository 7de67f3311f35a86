"""The diff logic of tools/compare_outputs.py on canned outputs."""

import importlib.util
import math
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "compare_outputs.py"
_SPEC = importlib.util.spec_from_file_location("compare_outputs", _PATH)
compare_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_outputs)

CSV = "x,cdf_beta1,cdf_beta2\n0.5,0.012345678901234567,1e-05\n1.0,0.25,-0.5\n"
REPORT = "identity_id,estimate,pass\nbeta2-r1-m2-b1-k11-a5.3-b0.3,1.2345,True\n"


def test_identical_outputs():
    assert compare_outputs.compare(CSV, CSV) is None
    assert compare_outputs.report("fig1 stdout", CSV, CSV) == "fig1 stdout: identical"


def test_largest_relative_difference_and_its_line():
    change = CSV.replace("1e-05", "1.00000001e-05").replace("-0.5", "-0.5000001")
    worst, line = compare_outputs.compare(CSV, change)
    assert line == 3 and worst == pytest.approx(2e-7, rel=1e-6)
    text = compare_outputs.report("fig1 stdout", CSV, change)
    assert text.splitlines() == ["fig1 stdout: largest relative difference 2e-07 at line 3",
                                 "  parent: 1.0,0.25,-0.5", "  change: 1.0,0.25,-0.5000001"]


def test_numbers_inside_labels_are_compared_as_numbers():
    change = REPORT.replace("1.2345", "1.2346")
    worst, line = compare_outputs.compare(REPORT, change)
    assert line == 2 and worst == pytest.approx(1e-4 / 1.2346)
    # a sign that moves is a relative difference of 2, not a change of text
    assert compare_outputs.line_difference("a,-1.5", "a,1.5") == 2.0
    assert compare_outputs.line_difference("z,0.0", "z,-0.0") == 0.0


@pytest.mark.parametrize("parent, change, line", [
    (REPORT, REPORT.replace("True", "False"), 2),
    (REPORT, REPORT + "extra,1,True\n", 3),
    (REPORT + "extra,1,True\n", REPORT, 3),
    ("31/31 identities passed\n", "31/31 identities passed", 2),
    ("1.0,nan\n", "1.0,inf\n", 1),
], ids=["text", "longer", "shorter", "final-newline", "nan-inf"])
def test_structural_differences_are_infinite(parent, change, line):
    assert compare_outputs.compare(parent, change) == (math.inf, line)


def test_nan_on_both_sides_is_no_difference():
    assert compare_outputs.line_difference("x,nan,1.0", "x,nan,1.5") == pytest.approx(1 / 3)


def test_outputs_cover_both_figures_every_seed_and_the_perfbench_values():
    runs = compare_outputs.outputs((7, 8))
    assert list(runs) == ["figures fig1", "figures fig2", "cdf-min m3", "cdf-max far tail", "verify seed 7",
                          "verify seed 8", "perfbench values", "wishart draws", "haar draws"]
    assert runs["cdf-min m3"] == ["-m", "jackdiv.cli", "cdf-min", "--beta", "2", "--m", "3", "--n", "6",
                                  "--sigma", "1,2,3", "--grid", "0:8:9"]
    assert runs["cdf-max far tail"] == ["-m", "jackdiv.cli", "cdf-max", "--beta", "8", "--m", "2", "--n", "4",
                                        "--sigma", "1,2", "--grid", "25:1000:40"]
    assert runs["verify seed 8"][-4:] == ["all", "--quick", "--seed", "8"]
    assert len(compare_outputs.suite_seeds()) == 20
