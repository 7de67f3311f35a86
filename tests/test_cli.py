import math

import numpy as np
import pytest

from jackdiv.cli import main
from jackdiv.core import DivisionAlgebra, Partition
from jackdiv.hypergeom import SeriesTruncation
from jackdiv.jack import jack_C
from jackdiv.wishart import WishartModel, cdf_lambda_max


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEvaluationCommands:
    def test_jack_matches_library(self, capsys):
        code, out, _ = run(capsys, "jack", "--kappa", "[2,1]", "--beta", "2",
                           "--eigs", "1,2,3")
        assert code == 0
        want = jack_C(Partition((2, 1)), (1.0, 2.0, 3.0), DivisionAlgebra(2))
        assert float(out.strip()) == pytest.approx(want, rel=1e-15)

    def test_pfq_exponential(self, capsys):
        code, out, _ = run(capsys, "pfq", "--beta", "4", "--eigs", "0.3,-0.1")
        assert code == 0
        assert float(out.strip()) == pytest.approx(math.exp(0.2), rel=1e-10)

    def test_gamma(self, capsys):
        code, out, _ = run(capsys, "gamma", "--m", "2", "--beta", "1", "--a", "1.5")
        assert code == 0
        assert float(out.strip()) == pytest.approx(math.pi / 2, rel=1e-13)

    def test_cdf_single_points(self, capsys):
        code, out, _ = run(capsys, "cdf-max", "--beta", "2", "--m", "2", "--n", "4",
                           "--sigma", "1,2", "--x", "5.0")
        assert code == 0
        want = cdf_lambda_max(WishartModel(2, 4, (1.0, 2.0), DivisionAlgebra(2)), 5.0)
        assert float(out.strip()) == pytest.approx(want, rel=1e-12)

    def test_explicit_default_truncation_flag_is_honored(self, capsys):
        code, out, _ = run(capsys, "cdf-max", "--beta", "1", "--m", "2", "--n", "4",
                           "--sigma", "1,2", "--x", "5.0", "--max-degree", "40")
        assert code == 0
        model = WishartModel(2, 4, (1.0, 2.0), DivisionAlgebra(1))
        assert float(out.strip()) == cdf_lambda_max(model, 5.0, SeriesTruncation(max_degree=40))

    def test_density(self, capsys):
        code, out, _ = run(capsys, "density", "--beta", "1", "--m", "2", "--n", "4",
                           "--sigma", "1,2", "--eigs", "3.0,1.0")
        assert code == 0
        assert float(out.strip()) > 0


class TestDiagnostics:
    def test_cdf_min_integer_condition_message(self, capsys):
        code, _, err = run(capsys, "cdf-min", "--beta", "1", "--m", "2", "--n", "6",
                           "--sigma", "1,2", "--y", "1.0")
        assert code == 2
        assert err.startswith("error:")
        assert "positive integer" in err
        assert err.count("\n") == 1  # single-line diagnostic

    @pytest.mark.parametrize("beta, x", [("8", "200"), ("4", "400")])
    def test_far_tail_refused_in_one_line(self, capsys, beta, x):
        # beta 8 overflows to inf, beta 4 raises OverflowError in the series
        code, out, err = run(capsys, "cdf-max", "--beta", beta, "--m", "2", "--n", "4",
                             "--sigma", "1,2", "--x", x)
        assert code == 2
        assert out == ""
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and "Traceback" not in err

    def test_figures_has_no_beta_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["figures", "fig1", "--beta", "2"])
        assert exc.value.code == 2

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("nonsense=1\n")
        code, _, err = run(capsys, "gamma", "--a", "2.0", "--config", str(cfg))
        assert code == 2 and "unknown config key" in err


class TestFigures:
    def test_fig1_shape_and_monotonicity(self, tmp_path, capsys):
        out_path = tmp_path / "fig1.csv"
        code, _, _ = run(capsys, "figures", "fig1", "--grid", "0:30:120",
                         "--output", str(out_path))
        assert code == 0
        rows = out_path.read_text().strip().split("\n")
        assert rows[0] == "x,cdf_beta1,cdf_beta2,cdf_beta4,cdf_beta8"
        assert len(rows) == 121  # header + 120 grid rows
        data = np.genfromtxt(str(out_path), delimiter=",", skip_header=1)
        assert data.shape == (120, 5)
        for col in range(1, 5):
            assert np.all(np.diff(data[:, col]) >= -1e-12)

    def test_byte_stable(self, tmp_path, capsys):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, "figures", "fig2", "--grid", "0:12:40", "--output", str(p1))
        run(capsys, "figures", "fig2", "--grid", "0:12:40", "--output", str(p2))
        assert p1.read_bytes() == p2.read_bytes()


class TestConfigFile:
    def test_config_supplies_defaults_cli_wins(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("beta=2\nm=2\na=2.0\n")
        code, out, _ = run(capsys, "gamma", "--config", str(cfg))
        assert code == 0
        assert float(out.strip()) == pytest.approx(math.pi, rel=1e-13)
        # explicit flag beats the file
        code, out, _ = run(capsys, "gamma", "--config", str(cfg), "--a", "3.0")
        assert code == 0
        assert float(out.strip()) == pytest.approx(math.pi * 2.0, rel=1e-13)


class TestVerifyCommand:
    def test_filtered_run_and_exit_code(self, tmp_path, capsys):
        out_path = tmp_path / "rep.csv"
        code, _, err = run(capsys, "verify", "stiefel/m1", "--quick",
                           "--output", str(out_path))
        assert code == 0
        assert "seed:" in err
        rows = out_path.read_text().strip().split("\n")
        assert rows[0].startswith("identity_id,param_digest,analytic")
        assert len(rows) == 2 and rows[1].endswith(",1")

    def test_unknown_identity(self, capsys):
        code, _, err = run(capsys, "verify", "no-such-identity", "--quick")
        assert code == 2 and "no identity matches" in err

    def test_threads_flag_never_changes_values(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, "verify", "two-matrix-0f0/b1", "--quick", "--output", str(a))
        run(capsys, "verify", "two-matrix-0f0/b1", "--quick", "--threads", "8",
            "--output", str(b))
        assert a.read_bytes() == b.read_bytes()
