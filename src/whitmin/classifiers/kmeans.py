"""K-means clustering with deterministic tie-breaking and empty-cluster
reseeding."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np


# Most assignment-and-update rounds kmeans runs before it stops.
MAX_ITER = 300


@dataclass(frozen=True)
class KMeansModel:
    centers: np.ndarray
    iterations: int
    objective: float            # sum of squared distances at convergence
    assignments: np.ndarray


def _assign(X: np.ndarray, centers: np.ndarray) -> np.ndarray:
    d2 = ((X[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    return np.argmin(d2, axis=1)  # argmin takes the lowest index on ties


def kmeans(
    points: np.ndarray,
    k: int,
    init_centers: np.ndarray,
    track_objective: bool = False,
) -> KMeansModel:
    """Alternate nearest-center assignment and mean updates until the
    assignment is stable or MAX_ITER is hit.  Empty clusters are reseeded to
    the point farthest from its current center.  The squared-distance
    objective never increases between iterations."""
    X = np.asarray(points, dtype=np.float64)
    if k < 1 or k > X.shape[0]:
        raise ValueError("need 1 <= k <= number of points")
    centers = np.asarray(init_centers, dtype=np.float64).copy()
    if centers.shape != (k, X.shape[1]):
        raise ValueError("init_centers must be k x d")

    assign = _assign(X, centers)
    history: List[float] = []
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
        if track_objective:
            d2 = ((X - centers[new_assign]) ** 2).sum()
            history.append(float(d2))
        if np.array_equal(new_assign, assign):
            assign = new_assign
            break
        assign = new_assign

    obj2 = float(((X - centers[assign]) ** 2).sum())
    model = KMeansModel(centers, it, obj2, assign)
    if track_objective:
        object.__setattr__(model, "objective_history", history)
    return model
