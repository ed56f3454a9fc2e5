import numpy as np
import pytest

from wnnm import nnm_solve, read_pgm, write_pgm
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

    def test_parse_error_reports_position(self, tmp_path):
        path = write_csv(tmp_path / "bad.csv", "1,2\n3,oops\n")
        from wnnm import InvalidInputError

        with pytest.raises(InvalidInputError, match="line 2, column 2"):
            read_matrix_csv(path)


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

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_non_finite_objective_exit_3(self, tmp_path, capsys):
        m = write_csv(tmp_path / "m.csv", "3e200,1e200\n1e200,2e200\n")
        w = write_csv(tmp_path / "w.csv", "1e300,1e300\n")
        out = tmp_path / "x.csv"
        code, stdout, err = run(capsys, "solve", "--matrix", m, "--weights", w, "--out", str(out))
        assert code == 3 and "numerical error" in err
        assert "objective" not in stdout and not out.exists()

    def test_force_path_pava(self, tmp_path, capsys):
        m = write_csv(tmp_path / "m.csv", "3,0\n0,2\n")
        w = write_csv(tmp_path / "w.csv", "4,0\n")
        out = tmp_path / "x.csv"
        code, stdout, _ = run(
            capsys, "solve", "--matrix", m, "--weights", w, "--out", str(out),
            "--force-path", "pava",
        )
        assert code == 0 and "path: pava" in stdout
        np.testing.assert_allclose(read_matrix_csv(out), np.diag([1.5, 1.5]), atol=1e-12)


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


class TestSelftest:
    def test_default_passes(self, capsys):
        code, stdout, _ = run(capsys, "selftest")
        assert code == 0
        assert stdout.count("PASS") == 4

    def test_scale_zero_runs_nothing(self, capsys):
        code, stdout, _ = run(capsys, "selftest", "--scale", "0")
        assert code == 0 and "0 suites" in stdout

    def test_injected_bug_fails(self, capsys, monkeypatch):
        monkeypatch.setenv("WNNM_SELFTEST_INJECT_BUG", "1")
        code, stdout, _ = run(capsys, "selftest")
        assert code == 1
        assert "oracle-dominance: FAIL" in stdout
