import itertools
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from whitmin.classifiers import LabeledSet, fit_distance, fit_linear
from whitmin.datasets import DatasetSpec, generate_dataset
from whitmin.features import builtin_map, feature_matrix
from whitmin.numerics import (SVM_C, EigenResult, least_squares, mean_and_covariance,
                              ridge_if_singular, soft_margin_svm, sym_eigen)

from conftest import one_matrix_least_squares, svm_kkt_residual


def test_package_import_loads_no_scipy(tmp_path):
    # numpy is the package's only runtime dependency: importing whitmin loads
    # no scipy, and with scipy blocked an SVM still trains from the CLI
    src = Path(__file__).resolve().parent.parent / "src"
    data, model = tmp_path / "d.tsv", tmp_path / "svm.json"
    code = ("import sys, whitmin; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')); "
            "sys.modules['scipy'] = None; "
            "from whitmin.cli import main; "
            "assert main(['generate', '--kind', 'D', '--max-len', '30', '--per-len', '3', "
            f"'--seed', '1', '-o', {str(data)!r}]) == 0; "
            f"assert main(['train', '--model', 'svm', '--train', {str(data)!r}, "
            f"'-o', {str(model)!r}]) == 0")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "[]"
    assert model.exists()


class TestMeanCovariance:
    def test_known_values(self):
        X = [np.array([0.0, 0.0]), np.array([2.0, 0.0])]
        mu, C = mean_and_covariance(X)
        assert np.allclose(mu, [1.0, 0.0])
        assert np.allclose(C, [[1.0, 0.0], [0.0, 0.0]])  # 1/N normalization

    def test_psd(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            X = rng.normal(size=(int(rng.integers(2, 20)), int(rng.integers(1, 6))))
            _, C = mean_and_covariance(X)
            evals = np.linalg.eigvalsh(C)
            assert evals.min() >= -1e-9 * max(1.0, evals.max())

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mean_and_covariance(np.empty((0, 3)))


class TestSymEigen:
    def test_diagonal(self):
        r = sym_eigen(np.diag([1.0, 3.0, 2.0]))
        assert np.allclose(r.values, [3.0, 2.0, 1.0])

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(1, 9))
            M = rng.normal(size=(n, n))
            C = M + M.T
            r = sym_eigen(C)
            assert np.all(np.diff(r.values) <= 1e-12)
            recon = r.vectors @ np.diag(r.values) @ r.vectors.T
            scale = max(1.0, np.abs(C).max())
            assert np.abs(recon - C).max() < 1e-9 * scale
            assert np.abs(r.vectors.T @ r.vectors - np.eye(n)).max() < 1e-9

    def test_matches_numpy(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            n = int(rng.integers(2, 8))
            M = rng.normal(size=(n, n))
            C = M @ M.T
            ours = sym_eigen(C).values
            ref = np.sort(np.linalg.eigvalsh(C))[::-1]
            assert np.allclose(ours, ref, atol=1e-8 * max(1.0, ref[0]))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            sym_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestLeastSquares:
    def test_exact_solve(self):
        A = np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]])
        v_true = np.array([3.0, -1.0])
        v = least_squares(A, A @ v_true)
        assert np.allclose(v, v_true)

    def test_normal_equation_residual(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n, d = int(rng.integers(5, 30)), int(rng.integers(1, 5))
            A = rng.normal(size=(n, d))
            b = rng.normal(size=n)
            v = least_squares(A, b)
            # gradient of the squared residual vanishes at the solution
            assert np.abs(A.T @ (A @ v - b)).max() < 1e-8

    def test_singular_falls_back_to_ridge(self):
        A = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        v = least_squares(A, np.array([1.0, 2.0, 3.0]))
        assert np.isfinite(v).all()
        # ridge splits the weight evenly across the duplicated columns
        assert abs(v[0] - v[1]) < 1e-6

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            least_squares(np.ones((3, 2)), np.ones(4))
        with pytest.raises(ValueError):
            least_squares(np.ones((5, 3, 2)), np.ones(4))
        with pytest.raises(ValueError):
            least_squares(np.ones((5, 3, 0)), np.ones(3))

    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_stack_matches_one_solve_per_matrix(self, d):
        # one problem per matrix of the stack, bit for bit; the zero and
        # repeated columns take the ridge
        rng = np.random.default_rng(d)
        A = rng.integers(0, 4, size=(12, 40, d)).astype(float)
        A[3, :, 0] = 0.0
        A[7, :, -1] = A[7, :, 0]
        b = rng.normal(size=40)
        V = least_squares(A, b)
        B = rng.normal(size=(12, 40))
        W = least_squares(A, B)
        for k in range(12):
            assert V[k].tobytes() == one_matrix_least_squares(A[k], b).tobytes()
            assert W[k].tobytes() == one_matrix_least_squares(A[k], B[k]).tobytes()


class TestRidge:
    def test_flags_singular_f6_gram_only(self):
        ds = generate_dataset(DatasetSpec("D", max_length=30, per_length=2, seed=7))
        X = feature_matrix(ds.words(), builtin_map("f6", 2))
        # the f6 counts obey linear relations, so their Gram matrix is singular
        G = X.T @ X
        R, repaired = ridge_if_singular(G)
        assert repaired
        ridge = 1e-8 * np.trace(G) / 60 + np.finfo(float).tiny
        assert np.array_equal(R, G + ridge * np.eye(60))
        assert fit_distance(LabeledSet(X, ds.labels())).ridge_repaired

        W = np.random.default_rng(5).normal(size=(100, 6))
        G = W.T @ W
        R, repaired = ridge_if_singular(G)
        assert not repaired and R is G

    def test_stack_repairs_each_matrix_alone(self):
        rng = np.random.default_rng(6)
        W = rng.normal(size=(5, 30, 8))
        W[1, :, 2] = W[1, :, 3]
        W[4] = 0.0
        G = np.swapaxes(W, 1, 2) @ W
        R, repaired = ridge_if_singular(G)
        assert repaired.tolist() == [False, True, False, False, True]
        for k in range(5):
            one, flag = ridge_if_singular(G[k])
            assert R[k].tobytes() == one.tobytes() and flag == repaired[k]


def _svm_input(name):
    """Rows z_k = y_k x_k of one kind of training set the solver must handle."""
    rng = np.random.default_rng(30)
    if name == "separable":
        return _c6_svm_instance(rng)[0]
    if name == "nonseparable":
        return rng.normal(size=(40, 3))
    if name == "duplicated-rows":
        return np.repeat(rng.normal(size=(6, 2)), 3, axis=0)
    return np.array([[0.5, -2.0, 1.0]])


class TestSoftMarginSVM:
    def test_one_dimensional(self):
        # f(w) = w^2 + (1 - w)^2 + (1 - 2w)^2 for w <= 1/2 is least at
        # w = 1/2, where the second row sits exactly on its margin
        w = soft_margin_svm(np.array([[1.0], [2.0]]))
        assert w.tolist() == [0.5]

    @pytest.mark.parametrize("name", ["separable", "nonseparable", "one-row",
                                      "duplicated-rows"])
    def test_kkt_stationarity(self, name):
        Z = _svm_input(name)
        w = soft_margin_svm(Z)
        assert svm_kkt_residual(Z, w) < 1e-12

    @pytest.mark.parametrize("X", [np.zeros((6, 3)), np.ones((6, 1))],
                             ids=["all-zero", "same-point-both-classes"])
    def test_zero_optimum_is_degenerate(self, X):
        # the rows y_k x_k sum to 0, so the gradient at w = 0, -C Z'1, is 0
        labels = np.array([1, 2] * 3)
        Z = X * np.where(labels == 1, 1.0, -1.0)[:, None]
        assert not soft_margin_svm(Z).any()
        with pytest.raises(ValueError, match="degenerate weight vector"):
            fit_linear(LabeledSet(X, labels), method="svm")

    def test_matches_hard_margin_on_augmented_rows(self):
        # the soft-margin optimum w, with slacks xi_k = max(0, 1 - z_k'w), is
        # the hard-margin optimum (w, sqrt(C) xi) of the rows (z_k, e_k / sqrt(C)),
        # and w'w + C |xi|^2 is that program's least norm
        rng = np.random.default_rng(21)
        for _ in range(300):
            n, d = int(rng.integers(1, 8)), int(rng.integers(1, 4))
            Z = rng.normal(size=(n, d))
            best = _least_norm_by_active_sets(np.hstack([Z, np.eye(n) / np.sqrt(SVM_C)]))
            w = soft_margin_svm(Z)
            xi = np.maximum(1.0 - Z @ w, 0.0)
            assert abs(w @ w + SVM_C * (xi @ xi) - best) <= 1e-9 * best

    def test_f6_d_set_trains_quickly(self):
        # no hyperplane separates this set: the optimum leaves margin violators
        ds = generate_dataset(DatasetSpec("D", max_length=60, per_length=3, seed=1))
        X = feature_matrix(ds.words(), builtin_map("f6", 2))
        Z = X * np.where(ds.labels() == 1, 1.0, -1.0)[:, None]
        t0 = time.perf_counter()
        w = soft_margin_svm(Z)
        assert time.perf_counter() - t0 < 1.0
        assert svm_kkt_residual(Z, w) < 1e-10
        assert (Z @ w < 1.0).any()


def _least_norm_by_active_sets(A):
    """Least w'w subject to Aw >= 1 by brute force, or None if infeasible.

    The optimum is a nonnegative combination of at most d linearly independent
    rows that it meets with equality, so it is the least-norm solution of
    A_S w = 1 for some set S of at most d rows."""
    n, d = A.shape
    best = None
    for k in range(1, min(n, d) + 1):
        for rows in itertools.combinations(range(n), k):
            AS = A[list(rows)]
            w = np.linalg.lstsq(AS, np.ones(k), rcond=None)[0]
            if np.abs(AS @ w - 1.0).max() > 1e-9 or (A @ w).min() < 1.0 - 1e-9:
                continue
            if best is None or w @ w < best:
                best = float(w @ w)
    return best


def _c6_svm_instance(rng):
    """One draw of C6's separable generator: rows y_k z_k' and the direction
    they were pushed apart along."""
    d = int(rng.integers(2, 5))
    n = int(rng.integers(4, 25))
    direction = rng.normal(size=d)
    direction /= np.linalg.norm(direction)
    pts = rng.normal(size=(n, d))
    y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    proj = pts @ direction
    pts += np.outer(y * rng.uniform(0.5, 2.0, size=n) - proj, direction)
    return pts * y[:, None], direction
