import itertools
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

from whitmin.classifiers import LabeledSet, fit_distance
from whitmin.datasets import DatasetSpec, generate_dataset
from whitmin.features import builtin_map, feature_matrix
from whitmin.numerics import (MARGIN_TOL, EigenResult, NonSeparable,
                              least_squares, mean_and_covariance,
                              qp_hard_margin, ridge_if_singular, sym_eigen)

from conftest import one_matrix_least_squares


def test_package_import_loads_no_scipy():
    # scipy.optimize takes most of an import's time and memory; only the SVM
    # solve imports it, on first use
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import sys, whitmin; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


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


class TestHardMarginQP:
    def test_one_dimensional(self):
        # constraints w >= 1 and w >= 0.5; optimum w = 1
        A = np.array([[1.0], [2.0]])
        w = qp_hard_margin(A)
        assert abs(w[0] - 1.0) < 1e-4

    def test_separable_margins(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            d = int(rng.integers(2, 5))
            direction = rng.normal(size=d)
            direction /= np.linalg.norm(direction)
            pts = rng.normal(size=(30, d))
            labels = np.where(pts @ direction > 0, 1.0, -1.0)
            pts += np.outer(labels, direction)  # push the classes apart
            A = pts * labels[:, None]
            w = qp_hard_margin(A)
            assert (A @ w).min() >= 1.0 - 1e-5

    def test_near_optimal_norm(self):
        # two points at distance 2 on an axis: the margin-1 separator has
        # |w| = 1 exactly
        A = np.array([[1.0, 0.0], [1.0, 0.0]])
        w = qp_hard_margin(A)
        assert np.linalg.norm(w) < 1.0 + 1e-4

    def test_nonseparable_raises(self):
        # w >= 1 and -w >= 1 cannot both hold
        A = np.array([[1.0], [-1.0]])
        with pytest.raises(NonSeparable):
            qp_hard_margin(A)

    def test_matches_active_set_and_linprog_oracles(self):
        rng = np.random.default_rng(20)
        verdicts = []
        for _ in range(500):
            A = rng.normal(size=(int(rng.integers(1, 9)), int(rng.integers(1, 4))))
            lp = linprog(np.zeros(A.shape[1]), A_ub=-A, b_ub=-np.ones(len(A)),
                         bounds=[(None, None)] * A.shape[1])
            best = _least_norm_by_active_sets(A)
            assert (lp.status == 0) == (best is not None)
            verdicts.append(best is not None)
            if best is None:
                with pytest.raises(NonSeparable):
                    qp_hard_margin(A)
            else:
                w = qp_hard_margin(A)
                assert (A @ w).min() >= 1.0 - MARGIN_TOL
                assert abs(w @ w - best) <= 1e-6 * max(1.0, best)
        assert 100 < sum(verdicts) < 400  # both verdicts well represented

    def test_c6_instance_18_is_separable(self):
        # the 19th draw of C6's generator (n = 14, d = 2): margin 0.73 along
        # its generating direction; projected gradient ascent gave up on it
        rng = np.random.default_rng(2024)
        for _ in range(19):
            A, direction = _c6_svm_instance(rng)
        assert A.shape == (14, 2) and (A @ direction).min() > 0.7
        w = qp_hard_margin(A)
        assert (A @ w).min() >= 1.0 - MARGIN_TOL

    def test_f6_d_set_is_certified_nonseparable_quickly(self):
        ds = generate_dataset(DatasetSpec("D", max_length=60, per_length=3, seed=1))
        X = feature_matrix(ds.words(), builtin_map("f6", 2))
        y = np.where(ds.labels() == 1, 1.0, -1.0)
        t0 = time.perf_counter()
        with pytest.raises(NonSeparable):
            qp_hard_margin(X * y[:, None])
        assert time.perf_counter() - t0 < 1.0


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
