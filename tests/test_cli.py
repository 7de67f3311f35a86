import argparse
import math
import warnings

import numpy as np
import pytest

from jackdiv import cli, hypergeom
from jackdiv.cli import main
from jackdiv.core import DivisionAlgebra, Partition
from jackdiv.hypergeom import SeriesTruncation
from jackdiv.jack import jack_C
from jackdiv.wishart import ConvergenceWarning, WishartModel, cdf_lambda_max

from memos import clear_memos
from oracles import m2_lambda_min_cdf


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

    def test_cdf_min_keeps_a_tiny_value(self, capsys):
        # 3.25e-21, where 1 - e^{-tau} sum_{kappa_1 <= r} cancels to 0
        code, out, _ = run(capsys, "cdf-min", "--beta", "8", "--m", "2", "--n", "7",
                           "--sigma", "1,2", "--y", "0.33")
        assert code == 0
        want = m2_lambda_min_cdf(7, (1.0, 2.0), 8, 0.33)
        assert float(out.strip()) == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_explicit_default_truncation_flag_is_honored(self, capsys):
        code, out, _ = run(capsys, "cdf-max", "--beta", "1", "--m", "2", "--n", "4",
                           "--sigma", "1,2", "--x", "5.0", "--max-degree", "40")
        assert code == 0
        model = WishartModel(2, 4, (1.0, 2.0), DivisionAlgebra(1))
        assert float(out.strip()) == cdf_lambda_max(model, 5.0, SeriesTruncation(max_degree=40))

    def test_m3_grid_prints_each_point_as_a_fresh_single_point(self, capsys):
        # a grid shares one memoized series along the model's ray; each row
        # must still be the bytes --x prints from an empty memo
        model = ["--m", "3", "--n", "6", "--sigma", "1,2,3", "--beta", "1"]
        clear_memos()
        code, out, _ = run(capsys, "cdf-max", *model, "--grid", "0.5:6:12")
        assert code == 0
        rows = out.splitlines()[1:]
        assert len(rows) == 12
        for row in rows:
            x, value = row.split(",")
            clear_memos()
            code, single, _ = run(capsys, "cdf-max", *model, "--x", x)
            assert code == 0 and single == value + "\n"

    def test_density(self, capsys):
        code, out, _ = run(capsys, "density", "--beta", "1", "--m", "2", "--n", "4",
                           "--sigma", "1,2", "--eigs", "3.0,1.0")
        assert code == 0
        assert float(out.strip()) > 0


# one invocation per subcommand that declares the truncation flags
TRUNCATED_COMMANDS = {
    "pfq": ["--beta", "1", "--eigs", "0.5,0.3"],
    "cdf-max": ["--beta", "1", "--m", "2", "--n", "4", "--sigma", "1,2", "--x", "5"],
    "cdf-region": ["--beta", "1", "--m", "2", "--n", "4", "--sigma", "1,2", "--omega", "3,5"],
    "density": ["--beta", "1", "--m", "3", "--n", "6", "--sigma", "1,2,3", "--eigs", "6,3,1"],
}


class TestTruncationFlags:
    def test_every_command_with_the_flags_is_covered(self):
        sub = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        declaring = {name for name, sp in sub.choices.items()
                     if "--max-degree" in sp._option_string_actions}
        assert declaring == set(TRUNCATED_COMMANDS)

    @pytest.mark.parametrize("command", sorted(TRUNCATED_COMMANDS))
    def test_max_degree_changes_the_value(self, capsys, command):
        argv = [command, *TRUNCATED_COMMANDS[command]]
        code, full, _ = run(capsys, *argv)
        assert code == 0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConvergenceWarning)
            code, cut, _ = run(capsys, *argv, "--max-degree", "2")
        assert code == 0
        assert float(cut) != float(full)

    @pytest.mark.parametrize("argv, flag", [
        (("cdf-max", "--m", "2", "--n", "4", "--sigma", "1,2", "--x", "30"), ("--rel-tol", "1e-12")),
        (("density", "--m", "3", "--n", "6", "--sigma", "1,2,3", "--eigs", "30,20,10"), ("--rel-tol", "1e-11")),
    ], ids=["cdf-max", "density"])
    def test_a_flag_without_max_degree_keeps_the_sized_budget(self, capsys, argv, flag):
        # a truncation with no --max-degree leaves the degree budget to the
        # distribution function, as no flag at all does
        code, full, _ = run(capsys, *argv)
        assert code == 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, given, err = run(capsys, *argv, *flag)
        assert (code, err) == (0, "")
        assert float(given) == pytest.approx(float(full), rel=1e-12, abs=0.0)


class TestDiagnostics:
    def test_cdf_min_integer_condition_message(self, capsys):
        code, _, err = run(capsys, "cdf-min", "--beta", "1", "--m", "2", "--n", "6",
                           "--sigma", "1,2", "--y", "1.0")
        assert code == 2
        assert err.startswith("error:")
        assert "positive integer" in err
        assert err.count("\n") == 1  # single-line diagnostic

    @pytest.mark.parametrize("command, degree", [
        # the power 600^s overflows inside the recurrence
        (["density", "--beta", "1", "--m", "2", "--n", "6", "--sigma", "1,2", "--eigs", "600,100"], 111),
        # chat_kappa(I) underflows to 0 at weight 181
        (["pfq", "--beta", "8", "--eigs", "3.996,0.5", "--eigs2", "45,40", "--max-degree", "800"], 181),
    ], ids=["power-overflow", "identity-underflow"])
    def test_series_past_the_float_range_in_one_line(self, capsys, command, degree):
        code, out, err = run(capsys, *command)
        assert code == 2 and out == ""
        assert err == f"error: series terms of degree {degree} leave the float range\n"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command, message", [
        (["jack", "--kappa", "[2]", "--eigs", "1e200,1"],
         "the Jack polynomial of weight 2 leaves the float range at this argument"),
        (["jack", "--kappa", "[2]", "--eigs", "1e200,1", "--normalization", "J"],
         "the Jack polynomial of weight 2 leaves the float range at this argument"),
        (["gamma", "--m", "2", "--a", "200"],
         "multivariate gamma at a = 200.0 leaves the float range; "
         "use mv_gamma_ln or jackdiv gamma --log for its logarithm"),
        (["gamma", "--m", "2", "--a", "200", "--kappa", "[1]"],
         "weighted multivariate gamma at a = 200.0 leaves the float range; "
         "use mv_gamma_weighted_ln or jackdiv gamma --log for its logarithm"),
    ], ids=["jack-C", "jack-J", "gamma", "gamma-weighted"])
    def test_value_past_the_float_range_in_one_line(self, capsys, command, message):
        code, out, err = run(capsys, *command)
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"
        if command[0] == "gamma":
            # the log form the message points to stays in range
            code, out, _ = run(capsys, *command, "--log")
            assert code == 0 and math.isfinite(float(out))

    @pytest.mark.parametrize("argv", [
        ["cdf-max", "--m", "2", "--n", "4", "--grid", "0:8:abc"],
        ["cdf-max", "--m", "2", "--n", "4", "--grid", "a:8:5"],
        ["cdf-max", "--m", "2", "--n", "4", "--grid", "0:8:5.5"],
        ["cdf-min", "--m", "2", "--n", "4", "--grid", "0:8:abc"],
        ["figures", "fig1", "--grid", "0:8:abc"],
    ], ids=["points-text", "start-text", "points-fraction", "cdf-min", "figures"])
    def test_malformed_grid_in_one_line(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == f"error: cannot parse grid start:stop:points (two numbers, an integer) from {argv[-1]!r}\n"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("grid", ["nan:8:5", "0:inf:5", "0:nan:5", "8:0:5", "0:8:1"])
    def test_grid_out_of_range_in_one_line(self, capsys, grid):
        code, out, err = run(capsys, "cdf-max", "--m", "2", "--n", "4", "--grid", grid)
        assert code == 2 and out == ""
        assert err == f"error: grid needs finite start < stop and points >= 2, got {grid!r}\n"

    @pytest.mark.parametrize("value", ["0:8:abc", "a:8:5", "0:8:5.5"])
    def test_malformed_grid_in_a_config_file_in_one_line(self, tmp_path, capsys, value):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"grid={value}\n")
        code, out, err = run(capsys, "cdf-max", "--m", "2", "--n", "4", "--config", str(cfg))
        assert code == 2 and out == ""
        assert err.startswith("error: cannot parse grid") and err.count("\n") == 1

    @pytest.mark.parametrize("points", ["1000001", "100000000000"])
    def test_grid_past_a_million_points_in_one_line(self, tmp_path, capsys, points):
        grid = f"0:8:{points}"
        code, out, err = run(capsys, "cdf-max", "--m", "2", "--n", "4", "--grid", grid)
        assert (code, out, err) == (2, "", f"error: grid has more than 1000000 points, got {grid!r}\n")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"grid={grid}\n")
        code, out, err = run(capsys, "cdf-max", "--m", "2", "--n", "4", "--config", str(cfg))
        assert (code, out, err) == (2, "", f"error: grid has more than 1000000 points, got {grid!r}\n")

    def test_density_past_the_float_range_in_one_line(self, capsys):
        code, out, err = run(capsys, "density", "--m", "1", "--n", "0.001", "--eigs", "1e-320")
        assert code == 2 and out == ""
        assert err.startswith("error: the joint density exp(") and err.count("\n") == 1

    @pytest.mark.parametrize("a", ["1e306", "inf"])
    @pytest.mark.parametrize("extra", [[], ["--log"], ["--kappa", "[1]"], ["--kappa", "[1]", "--log"]],
                             ids=["plain", "log", "weighted", "weighted-log"])
    def test_gamma_argument_past_the_float_range_in_one_line(self, capsys, a, extra):
        code, out, err = run(capsys, "gamma", "--m", "1", "--a", a, *extra)
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert f"a = {float(a)!r}" in err  # the library's DomainError, not the CSV writer's

    @pytest.mark.parametrize("command, flags, name", [
        ("cdf-max", ["--sigma", "1,nan", "--x", "3"], "sigma_eigs must be positive and"),
        ("cdf-max", ["--n", "inf", "--x", "3"], "n must be"),
        ("cdf-max", ["--x", "inf"], "x must be positive and"),
        ("cdf-max", ["--m", "3", "--sigma", "1,2,3", "--x", "inf"], "x must be positive and"),
        ("cdf-min", ["--y", "inf"], "y must be positive and"),
        ("cdf-min", ["--y", "nan"], "y must be positive and"),
        ("cdf-region", ["--omega", "nan,1"], "omega_eigs must be positive definite and"),
        ("cdf-region", ["--omega", "inf,1"], "omega_eigs must be positive definite and"),
        ("density", ["--eigs", "nan,1"], "lambdas must be positive and"),
        ("density", ["--eigs", "inf,1"], "lambdas must be positive and"),
    ])
    def test_non_finite_input_refused_in_one_line(self, capsys, command, flags, name):
        # later flags override the model's
        code, out, err = run(capsys, command, "--beta", "2", "--m", "2", "--n", "7", "--sigma", "1,2",
                             *flags)
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert err.endswith(f" {name} finite\n")
        assert "nan" not in err and "Overflow" not in err

    @pytest.mark.parametrize("argv, message", [
        # rel_tol >= 1 once stopped every series after the stall window
        (["cdf-max", "--m", "2", "--n", "4", "--x", "3", "--rel-tol", "inf"], "rel_tol must be in (0, 1)"),
        (["cdf-max", "--m", "2", "--n", "4", "--x", "3", "--rel-tol", "2"], "rel_tol must be in (0, 1)"),
        (["pfq", "--upper", "1", "--lower", "2", "--eigs", "0.5", "--rel-tol", "1"], "rel_tol must be in (0, 1)"),
        (["pfq", "--upper", "nan", "--lower", "1", "--eigs", "0.5"], "upper parameters must be finite"),
        (["pfq", "--upper", "1", "--lower", "inf", "--eigs", "0.5"], "lower parameters must be finite"),
    ])
    def test_bad_series_parameter_refused_in_one_line(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith(f"error: {message}") and err.count("\n") == 1

    @pytest.mark.parametrize("beta, x", [("8", "200"), ("4", "400")])
    def test_far_tail_prints_value(self, capsys, beta, x):
        # once inf (beta 8) and an OverflowError inside the series (beta 4)
        code, out, err = run(capsys, "cdf-max", "--beta", beta, "--m", "2", "--n", "4",
                             "--sigma", "1,2", "--x", x)
        assert code == 0 and "error" not in err
        assert 1.0 - 1e-10 <= float(out.strip()) <= 1.0

    @pytest.mark.parametrize("x", ["1e300", "100000"])
    def test_far_tail_answered_by_the_bound_builds_no_table(self, capsys, x):
        # the m = 2 table would grow like x; the Chernoff bound answers first
        clear_memos()
        code, out, err = run(capsys, "cdf-max", "--m", "2", "--n", "4", "--x", x)
        assert (code, err) == (0, "") and float(out) == 1.0
        assert hypergeom._m2_series.cache_info().currsize == 0

    @pytest.mark.parametrize("beta, x", [("8", "200"), ("4", "400")])
    def test_far_tail_refused_in_one_line(self, capsys, monkeypatch, beta, x):
        # a library returning inf or raising OverflowError is still refused
        def failing(model, x, trunc=None):
            if model.beta == 8:
                return math.inf
            raise OverflowError("intermediate overflow in fsum")

        monkeypatch.setattr(cli, "cdf_lambda_max", failing)
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

    def test_verify_has_no_beta_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "two-matrix-0f0/b1", "--quick", "--beta", "2"])
        assert exc.value.code == 2

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("nonsense=1\n")
        code, _, err = run(capsys, "gamma", "--a", "2.0", "--config", str(cfg))
        assert code == 2 and "unknown config key" in err

    def test_config_key_of_no_subcommand_is_unknown(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("b=1\n")
        code, out, err = run(capsys, "gamma", "--a", "2.0", "--config", str(cfg))
        assert code == 2 and out == "" and "unknown config key 'b'" in err

    @pytest.mark.parametrize("command, line", [
        (["gamma", "--a", "2.0"], "m=abc"),
        (["jack", "--kappa", "[1]", "--eigs", "1,2"], "normalization=c"),
    ])
    def test_invalid_config_value_rejected_in_one_line(self, tmp_path, capsys, command, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        code, out, err = run(capsys, *command, "--config", str(cfg))
        key, value = line.split("=")
        assert code == 2 and out == "" and err.count("\n") == 1
        assert f"invalid value {value!r} for config key {key!r}" in err

    def test_config_key_of_another_subcommand_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("beta=2\n")
        code, out, err = run(capsys, "verify", "two-matrix-0f0/b1", "--quick",
                             "--config", str(cfg))
        assert code == 2 and out == ""
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1
        assert "config key 'beta' does not apply to verify" in errors[0]

    def test_samples_config_key_rejected(self, tmp_path, capsys):
        # no subcommand has a --samples flag, so the key would be ignored
        cfg = tmp_path / "run.cfg"
        cfg.write_text("samples=10\n")
        code, out, err = run(capsys, "verify", "two-matrix-0f0/b1", "--quick",
                             "--config", str(cfg))
        assert code == 2 and out == "" and "unknown config key 'samples'" in err


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


    def test_pfq_config_matches_flags(self, tmp_path, capsys):
        flags = ["--beta", "2", "--upper", "0.7", "--lower", "2.5,1.5",
                 "--eigs", "0.4,0.1", "--max-degree", "12"]
        cfg = tmp_path / "run.cfg"
        cfg.write_text("beta=2\nupper=0.7\nlower=2.5,1.5\neigs=0.4,0.1\nmax_degree=12\n")
        code, by_flags, _ = run(capsys, "pfq", *flags)
        assert code == 0
        code, by_config, _ = run(capsys, "pfq", "--config", str(cfg))
        assert code == 0 and by_config == by_flags


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

    def test_threads_is_a_verify_flag_only(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gamma", "--a", "2", "--threads", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --threads 2" in capsys.readouterr().err

    def test_threads_config_key_does_not_apply_to_gamma(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("a=2\nthreads=2\n")
        code, out, err = run(capsys, "gamma", "--config", str(cfg))
        assert code == 2 and out == ""
        assert err == f"error: {cfg}:2: config key 'threads' does not apply to gamma\n"

    def test_threads_environment_variable_is_not_read(self, capsys, monkeypatch):
        monkeypatch.setenv("JACKDIV_THREADS", "abc")
        code, out, _ = run(capsys, "gamma", "--a", "2")
        assert code == 0 and float(out) == 1.0
