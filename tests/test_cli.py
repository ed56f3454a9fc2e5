import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wnnm
import wnnm.cli
import wnnm.diag
import wnnm.solver
from wnnm import DenoiseConfig, InvalidInputError, denoise, nnm_solve, read_pgm, write_pgm
from wnnm.cli import main, read_matrix_csv, write_matrix_csv


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_csv(path, text):
    path.write_text(text)
    return str(path)


class TestCsv:
    def test_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((4, 3)) * 1e3
        path = tmp_path / "m.csv"
        write_matrix_csv(path, m)
        np.testing.assert_array_equal(read_matrix_csv(path), m)

    def test_writer_bytes_pinned(self, tmp_path):
        # The shortest round-trip repr of every float, as the row-wise
        # float() expression wrote it.
        rng = np.random.default_rng(3)
        special = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300,
                   1e-300, -1e-300, 1e16, 1 / 3, np.inf, -np.inf, np.nan]
        scaled = rng.standard_normal(100_000) * 10.0 ** rng.integers(-308, 308, 100_000)
        for m in [np.array(special).reshape(2, 7), scaled.reshape(250, 400),
                  np.arange(6).reshape(2, 3), np.float32([[0.1, -2.5]]), np.array([1.5, 2.0])]:
            path = tmp_path / "m.csv"
            write_matrix_csv(path, m)
            old = "".join(",".join(repr(float(x)) for x in row) + "\n"
                          for row in np.atleast_2d(m))
            assert path.read_text(encoding="ascii") == old

    def test_parse_error_reports_position(self, tmp_path):
        path = write_csv(tmp_path / "bad.csv", "1,2\n3,oops\n")
        from wnnm import InvalidInputError

        with pytest.raises(InvalidInputError, match="line 2, column 2"):
            read_matrix_csv(path)

    @pytest.mark.parametrize("text, message", [
        ("\n1,2\n x ,4\n", "line 3, column 1: not a number: 'x '"),
        ("1,2,3\n4,,6\n", "line 2, column 2: not a number: ''"),
        ("1,2\n3,4,5\n", "line 2: expected 2 columns, got 3"),
    ])
    def test_parse_error_message(self, tmp_path, text, message):
        path = write_csv(tmp_path / "bad.csv", text)
        from wnnm import InvalidInputError

        with pytest.raises(InvalidInputError) as info:
            read_matrix_csv(path)
        assert str(info.value) == f"{path}: {message}"

    def test_cell_grammar(self, tmp_path):
        # Anything float() takes: surrounding spaces, "_" between digits, inf, nan.
        path = write_csv(tmp_path / "m.csv", " 1_0 , inf,-2.5e3\n\nnan,1,2\n")
        m = read_matrix_csv(path)
        np.testing.assert_array_equal(m, [[10.0, np.inf, -2500.0], [np.nan, 1.0, 2.0]])


class TestSolve:
    def test_solve_with_weights(self, tmp_path, capsys):
        m = write_csv(tmp_path / "m.csv", "3,0\n0,1\n")
        w = write_csv(tmp_path / "w.csv", "1,1\n")
        out = tmp_path / "x.csv"
        code, stdout, _ = run(
            capsys, "solve", "--matrix", m, "--weights", w, "--out", str(out)
        )
        assert code == 0
        np.testing.assert_allclose(read_matrix_csv(out), np.diag([2.5, 0.5]), atol=1e-12)
        assert "objective: 3.5" in stdout
        assert "path: closed_form" in stdout
        assert "d:" in stdout

    def test_lambda_zero_identity(self, tmp_path, capsys):
        m = write_csv(tmp_path / "m.csv", "1,2\n3,4\n")
        out = tmp_path / "x.csv"
        code, _, _ = run(capsys, "solve", "--matrix", m, "--lambda", "0", "--out", str(out))
        assert code == 0
        np.testing.assert_allclose(read_matrix_csv(out), [[1, 2], [3, 4]], atol=1e-8)

    def test_wrong_weight_length_exit_2(self, tmp_path, capsys):
        m = write_csv(tmp_path / "m.csv", "3,0\n0,1\n")
        w = write_csv(tmp_path / "w.csv", "1,1,1\n")
        code, _, err = run(
            capsys, "solve", "--matrix", m, "--weights", w, "--out", str(tmp_path / "x.csv")
        )
        assert code == 2 and "error" in err

    def test_weights_grid_exit_2(self, tmp_path, capsys):
        # Four weights for four singular values, but as a 2x2 grid: refused,
        # not read row by row.
        m = write_csv(tmp_path / "m.csv", "4,0,0,0\n0,3,0,0\n0,0,2,0\n0,0,0,1\n")
        w = write_csv(tmp_path / "w.csv", "1,1\n1,1\n")
        out = tmp_path / "x.csv"
        code, _, err = run(capsys, "solve", "--matrix", m, "--weights", w, "--out", str(out))
        assert code == 2 and err == f"error: {w}: weights must be one row or one column, got shape 2x2\n"
        assert not out.exists()

    def test_weights_one_per_line(self, tmp_path, capsys):
        m = write_csv(tmp_path / "m.csv", "3,0\n0,1\n")
        out_row, out_col = tmp_path / "row.csv", tmp_path / "col.csv"
        w = write_csv(tmp_path / "w.csv", "4,0\n")
        _, row_stdout, _ = run(capsys, "solve", "--matrix", m, "--weights", w, "--out", str(out_row))
        w = write_csv(tmp_path / "w.csv", "4\n0\n")
        code, stdout, _ = run(capsys, "solve", "--matrix", m, "--weights", w, "--out", str(out_col))
        assert code == 0 and stdout == row_stdout and "path: pava" in stdout
        assert out_col.read_bytes() == out_row.read_bytes()

    def test_parse_failure_exit_2(self, tmp_path, capsys):
        m = write_csv(tmp_path / "m.csv", "1,nope\n")
        code, _, err = run(
            capsys, "solve", "--matrix", m, "--lambda", "1", "--out", str(tmp_path / "x.csv")
        )
        assert code == 2 and "column" in err

    def test_non_ascii_csv_exit_2(self, tmp_path, capsys):
        m = tmp_path / "m.csv"
        m.write_bytes(b"1,2\n3,\xe94\n")
        code, _, err = run(
            capsys, "solve", "--matrix", str(m), "--lambda", "1", "--out", str(tmp_path / "x.csv")
        )
        assert code == 2 and "error" in err

    def test_unwritable_out_exit_2(self, tmp_path, capsys):
        m = write_csv(tmp_path / "m.csv", "3,0\n0,1\n")
        code, _, err = run(capsys, "solve", "--matrix", m, "--lambda", "1", "--out", str(tmp_path))
        assert code == 2 and "error" in err

    def test_lambda_matches_nnm_solve_bytes(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        y = rng.standard_normal((5, 3))
        m, out, ref = tmp_path / "m.csv", tmp_path / "x.csv", tmp_path / "ref.csv"
        write_matrix_csv(m, y)
        code, _, _ = run(capsys, "solve", "--matrix", str(m), "--lambda", "0.7", "--out", str(out))
        assert code == 0
        write_matrix_csv(ref, nnm_solve(read_matrix_csv(m), 0.7).x_star)
        assert out.read_bytes() == ref.read_bytes()

    def test_huge_entries_finite_spectrum_objective(self, tmp_path, capsys):
        # ||y - x||_F^2 computed entrywise overflows here; the spectrum objective does not.
        m = write_csv(tmp_path / "m.csv", "3e200,1e200\n1e200,2e200\n")
        w = write_csv(tmp_path / "w.csv", "1,1\n")
        out = tmp_path / "x.csv"
        code, stdout, _ = run(capsys, "solve", "--matrix", m, "--weights", w, "--out", str(out))
        assert code == 0
        objective = float(stdout.split("objective: ")[1].split()[0])
        assert np.isfinite(objective) and objective == pytest.approx(5e200)

    def test_non_finite_objective_exit_3(self, tmp_path, capsys):
        # The objective overflows in a square (first input) and in the sum
        # (second); under the suite's filterwarnings = error, a numpy warning
        # would escape.
        m = write_csv(tmp_path / "m.csv", "3e200,1e200\n1e200,2e200\n")
        w = write_csv(tmp_path / "w.csv", "1e300,1e300\n")
        m2 = write_csv(tmp_path / "m2.csv", "1e308,1e308\n1e308,-1e308\n")
        out = tmp_path / "x.csv"
        for inputs in (["--matrix", m, "--weights", w], ["--matrix", m2, "--lambda", "1"]):
            code, stdout, err = run(capsys, "solve", *inputs, "--out", str(out))
            assert code == 3 and err == "numerical error: non-finite result (objective inf)\n"
            assert "objective" not in stdout and not out.exists()

    def test_descending_weights_take_pava(self, tmp_path, capsys):
        m = write_csv(tmp_path / "m.csv", "3,0\n0,2\n")
        w = write_csv(tmp_path / "w.csv", "4,0\n")
        out = tmp_path / "x.csv"
        code, stdout, _ = run(capsys, "solve", "--matrix", m, "--weights", w, "--out", str(out))
        assert code == 0 and "path: pava" in stdout
        np.testing.assert_allclose(read_matrix_csv(out), np.diag([1.5, 1.5]), atol=1e-12)

    @pytest.mark.parametrize("weights", [["--lambda", "1e400"], ["--weights", "inf,inf"]])
    def test_infinite_weights_exit_2(self, tmp_path, capsys, weights):
        # Under the suite's filterwarnings = error, a warning from the path
        # choice would escape here instead of the validation error.
        m = write_csv(tmp_path / "m.csv", "1,2\n3,4\n")
        if weights[0] == "--weights":
            weights = ["--weights", write_csv(tmp_path / "w.csv", weights[1] + "\n")]
        out = tmp_path / "x.csv"
        code, _, err = run(capsys, "solve", "--matrix", m, *weights, "--out", str(out))
        assert code == 2 and err == f"error: {weights[0][2:]} contains NaN or Inf\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "lam, message",
        [("nan", "lambda contains NaN or Inf"), ("-1", "lambda must be nonnegative, got -1.0")],
    )
    def test_bad_lambda_names_lambda(self, tmp_path, capsys, lam, message):
        m = write_csv(tmp_path / "m.csv", "1,2\n3,4\n")
        code, _, err = run(capsys, "solve", "--matrix", m, "--lambda", lam, "--out", str(tmp_path / "x.csv"))
        assert code == 2 and err == f"error: {message}\n"


def fail_svd(*args, **kwargs):
    raise np.linalg.LinAlgError("SVD did not converge")


class TestSvdFailure:
    """A LAPACK non-convergence exits 3 with one line, on every SVD path."""

    def test_solve_exit_3(self, tmp_path, capsys, monkeypatch):
        m = write_csv(tmp_path / "m.csv", "1,2\n3,4\n")
        out = tmp_path / "x.csv"
        monkeypatch.setattr(np.linalg, "svd", fail_svd)
        code, stdout, err = run(capsys, "solve", "--matrix", m, "--lambda", "1", "--out", str(out))
        assert code == 3 and stdout == "" and not out.exists()
        assert err == "numerical error: SVD did not converge\n"

    def test_denoise_exit_3(self, tmp_path, capsys, monkeypatch):
        src, dst = tmp_path / "in.pgm", tmp_path / "out.pgm"
        write_pgm(src, np.full((8, 8), 100.0))
        monkeypatch.setattr(np.linalg, "svd", fail_svd)
        code, stdout, err = run(
            capsys, "denoise", "--in", str(src), "--out", str(dst), "--sigma", "10", "--patch", "3"
        )
        assert code == 3 and stdout == "" and not dst.exists()
        assert err == "numerical error: SVD did not converge\n"


def error_classes(base=wnnm.WnnmError):
    for sub in base.__subclasses__():
        yield sub
        yield from error_classes(sub)


@pytest.mark.parametrize("error", list(error_classes()), ids=lambda error: error.__name__)
def test_every_error_class_maps_to_its_exit_code(capsys, monkeypatch, error):
    # The README's contract: bad input exits 2 with "error:", any other
    # package error 3 with "numerical error:". ``__new__`` alone makes the
    # instance, since ConvergenceError's ``__init__`` takes more than a message.
    def raise_it(args):
        raise error.__new__(error, "boom")

    monkeypatch.setattr(wnnm.cli, "cmd_solve", raise_it)
    code, stdout, err = run(capsys, "solve", "--matrix", "m.csv", "--lambda", "1", "--out", "x.csv")
    if issubclass(error, InvalidInputError):
        assert (code, err) == (2, "error: boom\n")
    else:
        assert (code, err) == (3, "numerical error: boom\n")
    assert stdout == ""


class TestDenoise:
    def test_tiny_sigma_near_identity(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        img = rng.integers(20, 235, size=(16, 16)).astype(float)
        src, dst = tmp_path / "in.pgm", tmp_path / "out.pgm"
        write_pgm(src, img)
        code, stdout, _ = run(
            capsys, "denoise", "--in", str(src), "--out", str(dst),
            "--sigma", "1e-6", "--patch", "3", "--group", "4", "--window", "5",
        )
        assert code == 0
        assert "groups processed" in stdout
        assert "psnr output vs input (change, not quality): " in stdout
        np.testing.assert_allclose(read_pgm(dst), img, atol=1.0)

    def test_unwritable_out_exit_2(self, tmp_path, capsys):
        src = tmp_path / "in.pgm"
        write_pgm(src, np.full((8, 8), 100.0))
        code, _, err = run(
            capsys, "denoise", "--in", str(src), "--out", str(tmp_path), "--sigma", "10",
            "--patch", "3", "--group", "4", "--window", "3",
        )
        assert code == 2 and "error" in err

    def test_truncated_pgm_exit_2(self, tmp_path, capsys):
        src = tmp_path / "bad.pgm"
        src.write_bytes(b"P5\n8 8\n255\n\x00\x01")
        code, _, err = run(
            capsys, "denoise", "--in", str(src), "--out", str(tmp_path / "o.pgm"),
            "--sigma", "10",
        )
        assert code == 2 and "error" in err

    def test_image_smaller_than_patch_exit_2(self, tmp_path, capsys):
        src, dst = tmp_path / "in.pgm", tmp_path / "out.pgm"
        write_pgm(src, np.full((5, 5), 100.0))
        code, _, err = run(capsys, "denoise", "--in", str(src), "--out", str(dst), "--sigma", "10")
        assert code == 2 and err.startswith("error: patch_size 7 exceeds image extent 5x5")
        assert not dst.exists()

    @pytest.mark.parametrize(
        "flag, value", [("--sigma", "nan"), ("--sigma", "inf"), ("--c", "nan"), ("--c", "inf")]
    )
    def test_non_finite_parameter_exit_2(self, tmp_path, capsys, flag, value):
        src, dst = tmp_path / "in.pgm", tmp_path / "out.pgm"
        write_pgm(src, np.full((8, 8), 100.0))
        argv = ["denoise", "--in", str(src), "--out", str(dst), "--patch", "3", "--sigma", "10"]
        code, _, err = run(capsys, *argv, flag, value)
        field = {"--sigma": "noise_sigma", "--c": "weight_constant"}[flag]
        assert code == 2 and err == f"error: {field} contains NaN or Inf\n"
        assert not dst.exists()

    def test_huge_sigma_shrinks_to_zero(self, tmp_path, capsys):
        # The noise variance overflows; the weights become infinite and no
        # group keeps any signal.
        src, dst = tmp_path / "in.pgm", tmp_path / "out.pgm"
        write_pgm(src, np.full((8, 8), 100.0))
        code, _, err = run(
            capsys, "denoise", "--in", str(src), "--out", str(dst), "--sigma", "1e200",
            "--patch", "3", "--group", "4", "--window", "3",
        )
        assert code == 0 and err == ""
        assert np.all(read_pgm(dst) == 0.0)

    def test_defaults_are_denoise_config_defaults(self, tmp_path, capsys):
        src, dst, ref = tmp_path / "in.pgm", tmp_path / "out.pgm", tmp_path / "ref.pgm"
        write_pgm(src, np.random.default_rng(3).integers(0, 256, size=(24, 24)))
        code, _, err = run(capsys, "denoise", "--in", str(src), "--out", str(dst), "--sigma", "20")
        assert code == 0 and err == ""
        write_pgm(ref, denoise(read_pgm(src), DenoiseConfig(noise_sigma=20.0)))
        assert dst.read_bytes() == ref.read_bytes()

    def test_group_beyond_c_long_takes_whole_window(self, tmp_path, capsys):
        # A group larger than every window takes the whole window, however
        # large: 10**20 does not fit a C long.
        src = tmp_path / "in.pgm"
        write_pgm(src, np.random.default_rng(2).integers(0, 256, size=(16, 16)))
        outputs = []
        for group in (10**20, 10**7):
            dst = tmp_path / f"out{group}.pgm"
            code, _, err = run(
                capsys, "denoise", "--in", str(src), "--out", str(dst), "--sigma", "20",
                "--patch", "3", "--group", str(group),
            )
            assert code == 0 and err == ""
            outputs.append(dst.read_bytes())
        assert outputs[0] == outputs[1]


class TestSelftest:
    def test_default_passes(self, capsys):
        for scale in ([], ["--scale", "full"]):
            code, stdout, _ = run(capsys, "selftest", *scale)
            assert code == 0
            assert stdout.count("PASS") == 5 and stdout.endswith("5/5 suites passed\n")
            for suite in (
                "oracle-dominance", "cross-solver", "trace-identity", "nnm-equivalence",
                "kkt-certificate",
            ):
                assert f"{suite}: PASS (worst gap/bound " in stdout

    def test_negative_seed_exit_2(self, capsys):
        code, stdout, err = run(capsys, "selftest", "--seed", "-1")
        assert code == 2 and stdout == ""
        assert err == "error: seed must be a nonnegative integer, got -1\n"

    def test_injected_bug_fails(self, capsys, monkeypatch):
        real_oracle = wnnm.diag.brute_force_oracle

        def negated_oracle(*args, **kwargs):
            sol = real_oracle(*args, **kwargs)
            return dataclasses.replace(sol, objective=-sol.objective)

        monkeypatch.setattr(wnnm.diag, "brute_force_oracle", negated_oracle)
        code, stdout, _ = run(capsys, "selftest")
        assert code == 1
        assert "oracle-dominance: FAIL" in stdout

    def test_infeasible_spectrum_fails_kkt(self, capsys, monkeypatch):
        # An ascending d is infeasible, so no KKT certificate applies. The
        # other suites read only the objective, which stays.
        real = wnnm.diag.pava_solve

        def ascending(*args, **kwargs):
            sol = real(*args, **kwargs)
            return dataclasses.replace(sol, d=sol.d[::-1])

        monkeypatch.setattr(wnnm.diag, "pava_solve", ascending)
        code, stdout, _ = run(capsys, "selftest")
        assert code == 1
        assert "kkt-certificate: FAIL (instance" in stdout and "kkt violation=inf" in stdout

    @pytest.mark.parametrize(
        "module, name, field, suite",
        [
            (wnnm.diag, "pava_solve", "objective", "cross-solver"),
            (wnnm.solver, "trace_identity_check", "max_random_rhs", "trace-identity"),
        ],
        ids=["cross-solver", "trace-identity"],
    )
    def test_nan_result_fails(self, capsys, monkeypatch, module, name, field, suite):
        real = getattr(module, name)

        def nan_result(*args, **kwargs):
            return dataclasses.replace(real(*args, **kwargs), **{field: float("nan")})

        monkeypatch.setattr(module, name, nan_result)
        code, stdout, _ = run(capsys, "selftest")
        assert code == 1
        assert f"{suite}: FAIL (instance 0: " in stdout


CELLS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-10**20, 10**20).map(str),
    st.text(alphabet=" \t.,+-_eEinfatyINF0123456789x\x00", max_size=6),
)

CSV_SHAPED = st.builds(
    lambda rows, newline: newline.join(",".join(row) for row in rows).encode("ascii"),
    st.lists(st.lists(CELLS, min_size=1, max_size=4), max_size=4),
    st.sampled_from(["\n", "\r\n", "\r", "\n\n", " \n"]),
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.binary(max_size=120), CSV_SHAPED))
def test_read_matrix_csv_parses_or_rejects_any_bytes(tmp_path_factory, data):
    """Every byte string either parses into a matrix or raises
    InvalidInputError; no other exception escapes."""
    path = tmp_path_factory.mktemp("fuzz") / "m.csv"
    path.write_bytes(data)
    try:
        m = read_matrix_csv(path)
    except InvalidInputError:
        return
    assert m.ndim == 2 and m.size >= 1 and m.dtype == float


def test_cli_import_adds_only_stdlib_modules():
    # perfbench's setup_s times ``import wnnm.cli`` in a fresh process: past
    # numpy, that import may load only the package and the standard library.
    code = (
        "import json, sys, numpy\n"
        "before = set(sys.modules)\n"
        "import wnnm.cli\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    src = os.path.dirname(os.path.dirname(wnnm.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env, check=True)
    added = json.loads(out.stdout)
    assert "wnnm.cli" in added
    foreign = [m for m in added if m.partition(".")[0] not in {"wnnm", *sys.stdlib_module_names}]
    assert foreign == []
