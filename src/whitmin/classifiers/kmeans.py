"""K-means clustering with deterministic tie-breaking and empty-cluster
reseeding."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


# Most assignment-and-update rounds kmeans runs before it stops.
MAX_ITER = 300


@dataclass(frozen=True)
class KMeansModel:
    centers: np.ndarray
    iterations: int
    assignments: np.ndarray


def _assign(X: np.ndarray, centers: np.ndarray) -> np.ndarray:
    d2 = ((X[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    return np.argmin(d2, axis=1)  # argmin takes the lowest index on ties


def kmeans(points: np.ndarray, init_centers: np.ndarray) -> KMeansModel:
    """Alternate nearest-center assignment and mean updates, from one center
    per row of init_centers, until the assignment is stable or MAX_ITER is
    hit.  Empty clusters are reseeded to the point farthest from its current
    center.  The squared-distance objective never increases between
    iterations."""
    X = np.asarray(points, dtype=np.float64)
    centers = np.asarray(init_centers, dtype=np.float64).copy()
    if centers.ndim != 2 or centers.shape[1:] != X.shape[1:]:
        raise ValueError("init_centers must be k x d")
    k = len(centers)
    if k < 1 or k > X.shape[0]:
        raise ValueError("need 1 <= k <= number of points")

    assign = _assign(X, centers)
    it = 0
    for it in range(1, MAX_ITER + 1):
        for c in range(k):
            members = X[assign == c]
            if len(members):
                centers[c] = members.mean(axis=0)
            else:
                dists = np.linalg.norm(X - centers[assign], axis=1)
                far = int(np.argmax(dists))
                centers[c] = X[far]
                assign[far] = c
        new_assign = _assign(X, centers)
        if np.array_equal(new_assign, assign):
            assign = new_assign
            break
        assign = new_assign
    return KMeansModel(centers, it, assign)
