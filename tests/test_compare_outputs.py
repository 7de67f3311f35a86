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
    assert text.splitlines() == ["fig1 stdout: 2 differing lines, largest relative difference 2e-07 at line 3",
                                 "  line 2: relative difference 1e-08",
                                 "    parent: 0.5,0.012345678901234567,1e-05",
                                 "    change: 0.5,0.012345678901234567,1.00000001e-05",
                                 "  line 3: relative difference 2e-07",
                                 "    parent: 1.0,0.25,-0.5", "    change: 1.0,0.25,-0.5000001"]


def test_every_differing_line_is_named():
    # three lines move, one of them by text, and the change is one line longer
    parent = "a,1.0\nb,2.0\nc,3.0\nd,4.0\n"
    change = "a,1.0\nb,2.5\nc,3.0\nD,4.0\ne,5.0\n"
    assert compare_outputs.differing_lines(parent, change) == [(2, 0.2), (4, math.inf), (5, math.inf)]
    assert compare_outputs.compare(parent, change) == (math.inf, 4)
    text = compare_outputs.report("cli argv stdout", parent, change).splitlines()
    assert text[0] == "cli argv stdout: 3 differing lines, largest relative difference inf at line 4"
    assert text[1::3] == ["  line 2: relative difference 0.2", "  line 4: relative difference inf",
                          "  line 5: relative difference inf"]
    assert text[-2:] == ["    parent: <no line>", "    change: e,5.0"]
    # equal numbers in different text (-0.0 against 0.0) are a line that differs by 0
    assert compare_outputs.differing_lines("z,0.0\n", "z,-0.0\n") == [(1, 0.0)]


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
                          "verify seed 8", "verify bits seed 7", "perfbench values", "wishart draws",
                          "haar draws", "density values", "jack values", "gamma values", "cli argv"]
    assert runs["verify bits seed 7"][-1] == "7"
    assert runs["cdf-min m3"] == ["-m", "jackdiv.cli", "cdf-min", "--beta", "2", "--m", "3", "--n", "6",
                                  "--sigma", "1,2,3", "--grid", "0:8:9"]
    assert runs["cdf-max far tail"] == ["-m", "jackdiv.cli", "cdf-max", "--beta", "8", "--m", "2", "--n", "4",
                                        "--sigma", "1,2", "--grid", "25:1000:40"]
    assert runs["verify seed 8"][-4:] == ["all", "--quick", "--seed", "8"]
    assert len(compare_outputs.suite_seeds()) == 20


def test_density_values_reach_a_trailing_zero_on_every_call():
    out, err = compare_outputs.run(compare_outputs.ROOT, ["-c", compare_outputs.DENSITY_VALUES])
    assert err == ""
    lines = out.splitlines()
    assert len(lines) == 3 * 4 * 2 * 2
    for line in lines:
        fields = line.split()
        density, coupling = float(fields[fields.index("density") + 1]), float(fields[fields.index("coupling") + 1])
        zeros = int(fields[fields.index("zeros") + 1])
        # the coupling's first argument ends in one zero, two where the
        # smallest scale repeats (sigma = (0.7, 0.7, 1.9))
        assert zeros == (2 if "0.7, 0.7" in line else 1), line
        assert density > 0.0 and coupling >= 1.0, line
    assert lines[0].startswith("m1 b1 sigma(1.0,) lam(1.3,) density ")
