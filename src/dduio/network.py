"""Communication graph, its Laplacian, and the reduced-Laplacian certificate."""
from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import ConnectivityError, GraphError
from .signals import is_finite_number

CONNECTIVITY_TOL = 1e-9


@dataclass(frozen=True)
class SensorGraph:
    """Connected undirected weighted graph given by its adjacency matrix.

    The Laplacian L = D - A is formed once, here; a graph whose second
    smallest Laplacian eigenvalue is zero is not connected and is rejected.
    """

    adjacency: np.ndarray
    laplacian: np.ndarray = field(init=False, repr=False, compare=False)
    _lambda_min: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        a = np.asarray(self.adjacency, dtype=float)
        object.__setattr__(self, "adjacency", a)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise GraphError(f"adjacency must be square, got {a.shape}")
        if not np.isfinite(a).all():
            raise GraphError("adjacency weights must be finite")
        if not np.allclose(a, a.T, atol=1e-12):
            raise GraphError("adjacency must be symmetric (undirected graph)")
        if np.any(a < 0):
            raise GraphError("adjacency weights must be nonnegative")
        if np.any(np.diag(a) != 0):
            raise GraphError("adjacency diagonal must be zero")
        lap = np.diag(a.sum(axis=1)) - a
        spectrum = np.linalg.eigvalsh(lap)
        if a.shape[0] > 1 and spectrum[1] <= CONNECTIVITY_TOL:
            raise ConnectivityError(
                f"graph is not connected: second-smallest Laplacian eigenvalue {spectrum[1]:.3e}")
        object.__setattr__(self, "laplacian", lap)
        object.__setattr__(self, "_lambda_min", {})

    @property
    def M(self) -> int:
        return self.adjacency.shape[0]

    def lambda_min_reduced(self, drop: int) -> float:
        """Smallest eigenvalue of L less leader ``drop``'s row and column; > 0 if connected.

        Taken once per leader and kept, so every design on this graph shares it.
        """
        if drop not in self._lambda_min:
            keep = [j for j in range(self.M) if j != drop]
            reduced = self.laplacian[np.ix_(keep, keep)]
            self._lambda_min[drop] = (float(np.linalg.eigvalsh(reduced)[0]) if reduced.size
                                      else float("inf"))
        return self._lambda_min[drop]


def ring(m: int, weight: float = 1.0) -> SensorGraph:
    # below three nodes the wrap-around edge would be a self-loop or a repeat
    return from_edges(m, [(i, (i + 1) % m) for i in range(m if m > 2 else m - 1)], weight)


def complete(m: int, weight: float = 1.0) -> SensorGraph:
    return from_edges(m, itertools.combinations(range(m), 2), weight)


def star(m: int, weight: float = 1.0) -> SensorGraph:
    return from_edges(m, [(0, j) for j in range(1, m)], weight)


def path(m: int, weight: float = 1.0) -> SensorGraph:
    return from_edges(m, [(i, i + 1) for i in range(m - 1)], weight)


def from_edges(m: int, edges, weight: float) -> SensorGraph:
    """Graph from (i, j) entries of weight ``weight`` and (i, j, w) entries of weight w.

    Each entry needs two distinct integer node indices in [0, m) and a
    finite positive weight, and joins a pair of nodes no other entry
    joins; any other entry is a GraphError naming it as edges[k].
    """
    a = np.zeros((m, m))
    first, repeat = {}, None
    for k, edge in enumerate(edges):
        if not isinstance(edge, (list, tuple, np.ndarray)) or len(edge) not in (2, 3):
            raise GraphError(f"edges[{k}] must be [i, j] or [i, j, weight], got {edge!r}")
        i, j, w = (*edge, weight) if len(edge) == 2 else edge
        if not all(isinstance(v, numbers.Integral) and not isinstance(v, bool) and 0 <= v < m
                   for v in (i, j)) or i == j:
            raise GraphError(f"edges[{k}] needs two distinct node indices in [0, {m}), "
                             f"got {edge!r}")
        if not (is_finite_number(w) and w > 0):
            raise GraphError(f"edges[{k}] weight must be a finite number > 0, got {w!r}")
        j0 = first.setdefault(frozenset((i, j)), k)
        if repeat is None and j0 != k:
            repeat = f"edges[{j0}] and edges[{k}] both join nodes {sorted((i, j))}"
        a[i, j] = a[j, i] = float(w)
    if repeat:
        raise GraphError(f"{repeat}; list each edge once")
    return SensorGraph(a)


GENERATORS = {"ring": ring, "complete": complete, "star": star, "path": path}
