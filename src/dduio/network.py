"""Communication graph, Laplacian algebra, and spectral certificates."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConnectivityError, GraphError

CONNECTIVITY_TOL = 1e-9


@dataclass(frozen=True)
class SensorGraph:
    """Undirected weighted graph given by its adjacency matrix."""

    adjacency: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.adjacency, dtype=float)
        object.__setattr__(self, "adjacency", a)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise GraphError(f"adjacency must be square, got {a.shape}")
        if not np.allclose(a, a.T, atol=1e-12):
            raise GraphError("adjacency must be symmetric (undirected graph)")
        if np.any(a < 0):
            raise GraphError("adjacency weights must be nonnegative")
        if np.any(np.diag(a) != 0):
            raise GraphError("adjacency diagonal must be zero")

    @property
    def M(self) -> int:
        return self.adjacency.shape[0]


@dataclass(frozen=True)
class LaplacianBundle:
    laplacian: np.ndarray
    reduced: np.ndarray
    lambda_min_reduced: float
    spectrum: np.ndarray


def reduced_laplacian(laplacian: np.ndarray, drop: int = 0) -> np.ndarray:
    """Delete one node's row and column from the Laplacian."""
    keep = [j for j in range(laplacian.shape[0]) if j != drop]
    return laplacian[np.ix_(keep, keep)]


def build_laplacian(g: SensorGraph, drop: int = 0) -> LaplacianBundle:
    """Laplacian L = D - A with the connectivity certificate.

    ``drop`` selects the node removed to form the reduced Laplacian
    (the designated leader after any relabeling).
    """
    a = g.adjacency
    degree = np.diag(a.sum(axis=1))
    lap = degree - a
    spectrum = np.linalg.eigvalsh(lap)
    if g.M > 1 and spectrum[1] <= CONNECTIVITY_TOL:
        raise ConnectivityError(
            f"graph is not connected: second-smallest Laplacian eigenvalue {spectrum[1]:.3e}")
    red = reduced_laplacian(lap, drop)
    lam_min = float(np.linalg.eigvalsh(red)[0]) if red.size else float("inf")
    return LaplacianBundle(laplacian=lap, reduced=red,
                           lambda_min_reduced=lam_min, spectrum=spectrum)


def ring(m: int, weight: float = 1.0) -> SensorGraph:
    if m <= 2:
        # the wrap-around edge would be a self-loop or a repeat of the one edge
        return path(m, weight)
    a = np.zeros((m, m))
    for i in range(m):
        j = (i + 1) % m
        a[i, j] = a[j, i] = weight
    return SensorGraph(a)


def complete(m: int, weight: float = 1.0) -> SensorGraph:
    a = weight * (np.ones((m, m)) - np.eye(m))
    return SensorGraph(a)


def star(m: int, weight: float = 1.0) -> SensorGraph:
    a = np.zeros((m, m))
    a[0, 1:] = weight
    a[1:, 0] = weight
    return SensorGraph(a)


def path(m: int, weight: float = 1.0) -> SensorGraph:
    a = np.zeros((m, m))
    for i in range(m - 1):
        a[i, i + 1] = a[i + 1, i] = weight
    return SensorGraph(a)


def from_edges(m: int, edges) -> SensorGraph:
    """Graph from an iterable of (i, j) or (i, j, weight) entries."""
    a = np.zeros((m, m))
    for edge in edges:
        if len(edge) == 2:
            i, j = edge
            w = 1.0
        else:
            i, j, w = edge
        i, j = int(i), int(j)
        a[i, j] = a[j, i] = float(w)
    return SensorGraph(a)

GENERATORS = {"ring": ring, "complete": complete, "star": star, "path": path}
