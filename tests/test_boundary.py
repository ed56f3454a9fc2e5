"""Every public function, ``DenoiseConfig`` and the selftest's three private
routes check their input: one NaN input, one wrong-shape input and, where it
takes numbers, one input of each kind that is not a real number (text,
numeric text, complex, an int beyond the float range) each raise
``InvalidInputError``. Every real
parameter takes a 0-D array as its float and rejects each bad scalar."""

import inspect
import pickle

import numpy as np
import pytest

import wnnm
from wnnm.selftest import _grid_oracle, _projgrad, _trace_identity

NAN = float("nan")


def with_nan(shape):
    a = np.ones(shape)
    a.flat[a.size // 2] = NAN
    return a


def bad_header(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P6\n2 1\n255\n\x05\x07\x09\x05\x07\x09")  # colour magic
    return path


def good_pgm(tmp_path):
    path = tmp_path / "good.pgm"
    path.write_bytes(b"P5\n2 1\n255\n\x05\x07")
    return path


CFG = wnnm.DenoiseConfig(noise_sigma=10.0, patch_size=3)
HUGE = 10**400  # an int beyond the float range
CPLX = np.array([2.0 + 1.0j, 1.0])  # a numpy complex array, not a list of Python complex

# The selftest's private routes check their input as the public functions do;
# their rows carry the names the routes had as exports.
ROUTES = {"brute_force_oracle", "projgrad_reference", "trace_identity_check"}

# (public name or route, kind of bad input, call taking pytest's tmp_path)
CASES = [
    ("brute_force_oracle", "nan", lambda tmp: _grid_oracle([2.0, NAN], [0.0, 0.0])),
    ("brute_force_oracle", "shape", lambda tmp: _grid_oracle([2.0, 1.0], [0.0])),
    ("brute_force_oracle", "text", lambda tmp: _grid_oracle(["a"], [1.0])),
    ("brute_force_oracle", "real-text", lambda tmp: _grid_oracle(["1.5"], [0.0])),
    ("brute_force_oracle", "complex", lambda tmp: _grid_oracle(CPLX, [0.0, 0.0])),
    ("brute_force_oracle", "huge-int", lambda tmp: _grid_oracle([HUGE], [0.0])),
    ("brute_force_oracle", "none", lambda tmp: _grid_oracle(None, [1.0])),
    ("closed_form", "nan", lambda tmp: wnnm.closed_form([2.0, 1.0], [0.0, NAN])),
    ("closed_form", "shape", lambda tmp: wnnm.closed_form([[2.0, 1.0]], [0.0, 1.0])),
    ("closed_form", "text", lambda tmp: wnnm.closed_form(["a"], [1.0])),
    ("closed_form", "real-text", lambda tmp: wnnm.closed_form(["1.5"], [1.0])),
    ("closed_form", "complex", lambda tmp: wnnm.closed_form(CPLX, [0.0, 1.0])),
    ("closed_form", "huge-int", lambda tmp: wnnm.closed_form([1.0], [HUGE])),
    ("denoise", "nan", lambda tmp: wnnm.denoise(with_nan((8, 8)), CFG)),
    ("denoise", "shape", lambda tmp: wnnm.denoise(np.ones((8, 8, 1)), CFG)),
    ("denoise", "text", lambda tmp: wnnm.denoise([["a"]], CFG)),
    ("denoise", "real-text", lambda tmp: wnnm.denoise(np.full((8, 8), "1.5"), CFG)),
    ("denoise", "complex", lambda tmp: wnnm.denoise(np.full((8, 8), 1.0 + 1.0j), CFG)),
    ("denoise", "huge-int", lambda tmp: wnnm.denoise([[HUGE] * 8] * 8, CFG)),
    ("DenoiseConfig", "nan", lambda tmp: wnnm.DenoiseConfig(noise_sigma=NAN)),
    ("DenoiseConfig", "shape", lambda tmp: wnnm.DenoiseConfig(noise_sigma=np.array([1.0, 2.0]))),
    ("DenoiseConfig", "text", lambda tmp: wnnm.DenoiseConfig(noise_sigma="a")),
    ("DenoiseConfig", "real-text", lambda tmp: wnnm.DenoiseConfig(noise_sigma=1.0, weight_constant="1.5")),
    ("DenoiseConfig", "complex", lambda tmp: wnnm.DenoiseConfig(noise_sigma=1.0 + 1.0j)),
    ("DenoiseConfig", "huge-int", lambda tmp: wnnm.DenoiseConfig(noise_sigma=HUGE)),
    ("nnm_solve", "nan", lambda tmp: wnnm.nnm_solve(np.eye(3), NAN)),
    ("nnm_solve", "shape", lambda tmp: wnnm.nnm_solve(np.ones(3), 1.0)),
    ("nnm_solve", "text", lambda tmp: wnnm.nnm_solve(np.eye(2), "a")),
    ("nnm_solve", "real-text", lambda tmp: wnnm.nnm_solve(np.eye(2), "1.5")),
    ("nnm_solve", "complex", lambda tmp: wnnm.nnm_solve(np.eye(2), np.complex128(1.5 + 0.5j))),
    ("nnm_solve", "huge-int", lambda tmp: wnnm.nnm_solve(np.eye(2), HUGE)),
    ("objective_full", "nan", lambda tmp: wnnm.objective_full(with_nan((3, 2)), np.ones((3, 2)), [1.0, 1.0])),
    ("objective_full", "shape", lambda tmp: wnnm.objective_full(np.ones((3, 2)), np.ones((2, 3)), [1.0, 1.0])),
    ("objective_full", "text", lambda tmp: wnnm.objective_full(np.eye(2), np.eye(2), ["a", "b"])),
    ("objective_full", "real-text", lambda tmp: wnnm.objective_full(np.eye(2), np.full((2, 2), "1.5"), [1.0, 1.0])),
    ("objective_full", "complex", lambda tmp: wnnm.objective_full(np.eye(2), np.eye(2), CPLX)),
    ("objective_full", "huge-int", lambda tmp: wnnm.objective_full([[HUGE]], [[1.0]], [1.0])),
    ("pava_solve", "nan", lambda tmp: wnnm.pava_solve([NAN, 1.0], [0.0, 0.0])),
    ("pava_solve", "shape", lambda tmp: wnnm.pava_solve([2.0, 1.0], [0.0, 0.0, 0.0])),
    ("pava_solve", "text", lambda tmp: wnnm.pava_solve([1.0, 2.0], ["x", "y"])),
    ("pava_solve", "real-text", lambda tmp: wnnm.pava_solve(["2"], ["1"])),
    ("pava_solve", "complex", lambda tmp: wnnm.pava_solve([2.0, 1.0], CPLX)),
    ("pava_solve", "huge-int", lambda tmp: wnnm.pava_solve([HUGE], [0.0])),
    ("projgrad_reference", "nan", lambda tmp: _projgrad([2.0, 1.0], [NAN, 0.0])),
    ("projgrad_reference", "shape", lambda tmp: _projgrad(2.0, 1.0)),
    ("projgrad_reference", "text", lambda tmp: _projgrad([1.0], ["a"])),
    ("projgrad_reference", "real-text", lambda tmp: _projgrad(["1.5"], [1.0])),
    ("projgrad_reference", "complex", lambda tmp: _projgrad(CPLX, [0.0, 0.0])),
    ("projgrad_reference", "huge-int", lambda tmp: _projgrad([1.0], [HUGE])),
    ("psnr", "nan", lambda tmp: wnnm.psnr(np.ones((4, 4)), with_nan((4, 4)))),
    ("psnr", "shape", lambda tmp: wnnm.psnr(np.ones((4, 4)), np.ones((4, 5)))),
    ("psnr", "text", lambda tmp: wnnm.psnr([["a"]], [[1.0]])),
    ("psnr", "real-text", lambda tmp: wnnm.psnr(np.full((4, 4), "1.5"), np.ones((4, 4)))),
    ("psnr", "complex", lambda tmp: wnnm.psnr(np.ones((4, 4)), np.full((4, 4), 1.0 + 1.0j))),
    ("psnr", "huge-int", lambda tmp: wnnm.psnr([[HUGE]], [[1.0]])),
    ("read_pgm", "header", lambda tmp: wnnm.read_pgm(bad_header(tmp))),
    ("svd", "nan", lambda tmp: wnnm.svd(with_nan((3, 2)))),
    ("svd", "shape", lambda tmp: wnnm.svd(np.ones((2, 3, 2)))),
    ("svd", "text", lambda tmp: wnnm.svd([["a"]])),
    ("svd", "real-text", lambda tmp: wnnm.svd([["1.5"]])),
    ("svd", "complex", lambda tmp: wnnm.svd(np.array([[1.0 + 1.0j, 2.0]]))),
    ("svd", "huge-int", lambda tmp: wnnm.svd([[HUGE]])),
    ("svd", "ragged", lambda tmp: wnnm.svd([[1.0, 2.0], [3.0]])),
    ("trace_identity_check", "nan", lambda tmp: _trace_identity(with_nan((3, 3)), [2.0, 1.0, 0.0])),
    ("trace_identity_check", "shape", lambda tmp: _trace_identity(np.eye(3), [2.0, 1.0])),
    ("trace_identity_check", "text", lambda tmp: _trace_identity(np.eye(2), ["a", "b"])),
    ("trace_identity_check", "real-text", lambda tmp: _trace_identity(np.eye(2), ["2", "1"])),
    ("trace_identity_check", "complex", lambda tmp: _trace_identity(np.eye(2), CPLX)),
    ("trace_identity_check", "huge-int", lambda tmp: _trace_identity([[HUGE]], [1.0])),
    ("wnnm_solve", "nan", lambda tmp: wnnm.wnnm_solve(np.eye(2), [1.0, NAN])),
    ("wnnm_solve", "shape", lambda tmp: wnnm.wnnm_solve(np.eye(2), 1.0)),  # 0-d weights
    ("wnnm_solve", "text", lambda tmp: wnnm.wnnm_solve(np.eye(2), ["a", "b"])),
    ("wnnm_solve", "real-text", lambda tmp: wnnm.wnnm_solve(np.eye(2), ["1", "2"])),
    ("wnnm_solve", "complex", lambda tmp: wnnm.wnnm_solve(np.eye(2), CPLX)),
    ("wnnm_solve", "huge-int", lambda tmp: wnnm.wnnm_solve(np.eye(2), [HUGE, 1.0])),
    ("write_pgm", "nan", lambda tmp: wnnm.write_pgm(tmp / "out.pgm", with_nan((4, 4)))),
    ("write_pgm", "shape", lambda tmp: wnnm.write_pgm(tmp / "out.pgm", np.ones(4))),
    ("write_pgm", "text", lambda tmp: wnnm.write_pgm(tmp / "out.pgm", [["a"]])),
    ("write_pgm", "real-text", lambda tmp: wnnm.write_pgm(tmp / "out.pgm", [["1.5"]])),
    ("write_pgm", "complex", lambda tmp: wnnm.write_pgm(tmp / "out.pgm", np.full((2, 2), 1.0 + 1.0j))),
    ("write_pgm", "huge-int", lambda tmp: wnnm.write_pgm(tmp / "out.pgm", [[HUGE]])),
]


def test_public_surface_is_pinned():
    # An export added or dropped shows up here, classes included.
    assert sorted(wnnm.__all__) == [
        "DenoiseConfig", "DenoiseStats", "DiagSolution", "InvalidInputError",
        "NumericalFailureError", "SolverPath", "SvdFactors", "WnnmError", "WnnmResult",
        "closed_form", "denoise", "nnm_solve", "objective_full", "pava_solve", "psnr",
        "read_pgm", "svd", "wnnm_solve", "write_pgm",
    ]


def test_table_covers_every_public_function():
    public = {name for name in wnnm.__all__ if inspect.isfunction(getattr(wnnm, name))}
    checked = public | {"DenoiseConfig"} | ROUTES
    assert {name for name, _, _ in CASES} == checked
    assert {name for name, _, _ in CHECKS} == checked
    # All but read_pgm, which takes a path, take numbers.
    for kind in ("text", "real-text", "complex", "huge-int"):
        assert {name for name, k, _ in CASES if k == kind} == checked - {"read_pgm"}, kind


@pytest.mark.parametrize("call", [c for _, _, c in CASES], ids=[f"{n}-{k}" for n, k, _ in CASES])
def test_bad_input_rejected(call, tmp_path):
    with pytest.raises(wnnm.InvalidInputError):
        call(tmp_path)


# Each outside value is checked once: the number of ``check_array`` calls that
# one valid call of each public function or route makes, a real's through
# ``_positive_real``. Values the package computes (the kernel's output,
# ``nnm_solve``'s weight vector) are not checked again, and LAPACK's spectrum
# only where it enters, in ``thin_svd``, for overflow.
# (public name or route, expected calls, valid call taking pytest's tmp_path)
CHECKS = [
    ("brute_force_oracle", 2, lambda tmp: _grid_oracle([2.0, 1.0], [1.0, 0.0])),
    ("closed_form", 2, lambda tmp: wnnm.closed_form([2.0, 1.0], [0.0, 1.0])),
    ("denoise", 1, lambda tmp: wnnm.denoise(np.ones((8, 8)), CFG)),
    ("DenoiseConfig", 2, lambda tmp: wnnm.DenoiseConfig(noise_sigma=10.0)),
    ("objective_full", 3, lambda tmp: wnnm.objective_full(np.eye(2), np.eye(2), [1.0, 1.0])),
    ("pava_solve", 2, lambda tmp: wnnm.pava_solve([2.0, 1.0], [1.0, 0.0])),
    ("projgrad_reference", 2, lambda tmp: _projgrad([2.0, 1.0], [1.0, 0.0])),
    ("psnr", 2, lambda tmp: wnnm.psnr(np.ones((4, 4)), np.zeros((4, 4)))),
    ("read_pgm", 0, lambda tmp: wnnm.read_pgm(good_pgm(tmp))),
    ("svd", 1, lambda tmp: wnnm.svd(np.eye(2))),
    ("trace_identity_check", 2, lambda tmp: _trace_identity(np.eye(2), [2.0, 1.0])),
    ("write_pgm", 1, lambda tmp: wnnm.write_pgm(tmp / "out.pgm", np.ones((2, 2)))),
    ("wnnm_solve", 2, lambda tmp: wnnm.wnnm_solve(np.eye(2), [1.0, 0.0])),
    ("nnm_solve", 2, lambda tmp: wnnm.nnm_solve(np.eye(2), 1.0)),
]


@pytest.mark.parametrize("expected, call", [c[1:] for c in CHECKS], ids=[c[0] for c in CHECKS])
def test_each_outside_value_checked_once(expected, call, tmp_path, monkeypatch):
    real, calls = wnnm.linalg.check_array, []

    def counting(*args, **kwargs):
        calls.append(args[2])  # the name of the array checked
        return real(*args, **kwargs)

    for module in (wnnm.linalg, wnnm.diag, wnnm.solver):
        monkeypatch.setattr(module, "check_array", counting)
    call(tmp_path)
    assert len(calls) == expected, calls


# Every real an export takes, as a call on that one value.
REALS = [
    ("nnm_solve-lam", lambda x: wnnm.nnm_solve(np.eye(2), x)),
    ("DenoiseConfig-noise_sigma", lambda x: wnnm.DenoiseConfig(noise_sigma=x)),
    ("DenoiseConfig-weight_constant", lambda x: wnnm.DenoiseConfig(noise_sigma=1.0, weight_constant=x)),
]
BAD_REALS = {
    "text": "a", "none": None, "complex": 1.0 + 1.0j, "huge-int": HUGE, "nan": NAN,
    "inf": np.inf, "-inf": -np.inf, "zero": 0.0, "negative": -1.0, "vector": np.array([0.5]),
}


@pytest.mark.parametrize("call", [c for _, c in REALS], ids=[n for n, _ in REALS])
def test_zero_d_array_passes_as_real(call):
    # One dtype rule for every real: a 0-D array gives what its float gives,
    # to the bit (a DenoiseConfig stores the float).
    assert pickle.dumps(call(np.array(0.5))) == pickle.dumps(call(0.5))


@pytest.mark.parametrize("kind", BAD_REALS)
@pytest.mark.parametrize("name, call", REALS, ids=[n for n, _ in REALS])
def test_bad_real_rejected(name, call, kind):
    if (name, kind) == ("nnm_solve-lam", "zero"):
        return  # a zero lambda is valid: nnm_solve is then the identity
    with pytest.raises(wnnm.InvalidInputError):
        call(BAD_REALS[kind])
