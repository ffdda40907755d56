"""Model-based distributed unknown-input observer design.

Per node, the observer x_hat = z + H y needs H with H C B_p = B_p so the
error dynamics decouple from the unknown input; the designated leader
gets an output-injection gain making its error matrix Hurwitz, and every
other node is stabilized through the consensus coupling gain.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DesignError, DuioError, NumericsError, SolvabilityError
from .linalg import (numerical_rank, pbh_detectable, pinv, spectral_abscissa,
                     symmetric_two_norm)
from .network import SensorGraph, build_laplacian
from .plant import PlantModel

HURWITZ_TOL = -1e-8
DETECT_TOL = 1e-8
DEFAULT_DECAY = 0.5
DEFAULT_GAMMA_MARGIN = 0.1


@dataclass(frozen=True)
class DuioGains:
    """Per-node observer matrices plus the consensus coupling scalar."""

    E_obs: tuple[np.ndarray, ...]
    F: tuple[np.ndarray, ...]
    L: tuple[np.ndarray, ...]
    H: tuple[np.ndarray, ...]
    gamma: float
    leader: int
    method: str = "model"

    @property
    def M(self) -> int:
        return len(self.E_obs)

    @property
    def n_x(self) -> int:
        return self.E_obs[0].shape[0]

    @property
    def K(self) -> tuple[np.ndarray, ...]:
        """Consensus gains, derived: zero for the leader, gamma I for every other node."""
        eye = np.eye(self.n_x)
        return tuple(np.zeros_like(eye) if i == self.leader else self.gamma * eye
                     for i in range(self.M))

    def consensus(self, laplacian: np.ndarray) -> np.ndarray:
        """blockdiag(K_i)(L kron I) = gamma (P L kron I), P zeroing the leader's row."""
        pl = self.gamma * laplacian
        pl[self.leader] = 0.0
        return np.kron(pl, np.eye(self.n_x))

    def to_json_dict(self) -> dict:
        return {
            "method": self.method,
            "gamma": float(self.gamma),
            "leader": int(self.leader),
            "nodes": [
                {"E": self.E_obs[i].tolist(), "F": self.F[i].tolist(),
                 "L": self.L[i].tolist(), "H": self.H[i].tolist()}
                for i in range(self.M)
            ],
        }

    @staticmethod
    def from_json_dict(d: dict) -> "DuioGains":
        """Inverse of ``to_json_dict``; a ``K`` key of an older file is ignored."""
        def grab(key):
            return tuple(np.asarray(n[key], dtype=float) for n in d["nodes"])
        try:
            return DuioGains(E_obs=grab("E"), F=grab("F"), L=grab("L"),
                             H=grab("H"), gamma=float(d["gamma"]),
                             leader=int(d["leader"]), method=d.get("method", "model"))
        except KeyError as exc:
            raise DuioError(f"gains file is missing the key {exc.args[0]!r}") from exc


def rank_condition(C: np.ndarray, B_p: np.ndarray, multiplier: float | None = None) -> bool:
    """rank(C B_p) = rank(B_p) = number of unknown-input channels."""
    r = B_p.shape[1]
    if r == 0:
        return True
    return (numerical_rank(C @ B_p, multiplier) == r
            and numerical_rank(B_p, multiplier) == r)


def decoupling_gain(C: np.ndarray, B_p: np.ndarray) -> np.ndarray:
    """Solve H C B_p = B_p; the particular solution is B_p (C B_p)^+."""
    if not rank_condition(C, B_p):
        raise SolvabilityError(
            "rank(C B_p) < rank(B_p): no output feedthrough can cancel the unknown input")
    return B_p @ pinv(C @ B_p)


def check_detectability(model: PlantModel, i: int) -> bool:
    """Detectability of ((I - H C) A, C) with the particular H."""
    node = model.nodes[i]
    try:
        h = decoupling_gain(node.C, node.B_p)
    except SolvabilityError:
        return False
    t = (np.eye(model.n_x) - h @ node.C) @ model.A
    return pbh_detectable(t, node.C, DETECT_TOL)


def stabilizing_output_injection(T: np.ndarray, C: np.ndarray,
                                 decay: float = DEFAULT_DECAY) -> np.ndarray:
    """Gain M with T - M C Hurwitz, targeting abscissa <= -decay.

    Solved as the dual linear-quadratic problem: P solves the Riccati
    equation of the decay-shifted pair and M = P C^T.  When unobservable
    modes sit shallower than the requested decay the shift is relaxed,
    since no injection can move them.
    """
    T = np.asarray(T, dtype=float)
    C = np.atleast_2d(np.asarray(C, dtype=float))
    n = T.shape[0]
    if not pbh_detectable(T, C):
        raise DesignError("pair is not detectable: no stabilizing output injection exists")
    eye = np.eye(n)
    for shift in (decay, decay / 2, decay / 4, 0.0):
        try:
            p = scipy.linalg.solve_continuous_are(
                (T + shift * eye).T, C.T, eye, np.eye(C.shape[0]))
        except (np.linalg.LinAlgError, ValueError):
            continue
        m = p @ C.T
        if spectral_abscissa(T - m @ C) < min(HURWITZ_TOL, -shift + 1e-9):
            return m
    raise NumericsError("Riccati solve failed to produce a stabilizing injection gain")


def gamma_lower_bound(follower_blocks, lambda_min_reduced: float) -> float:
    """Coupling-gain bound: ||E~ + E~^T|| / (2 lambda_min(reduced Laplacian))."""
    blocks = list(follower_blocks)
    if not blocks:
        return 0.0
    e = scipy.linalg.block_diag(*blocks)
    return symmetric_two_norm(e + e.T) / (2.0 * lambda_min_reduced)


def assemble_from_blocks(ts, hs, fs, cs, graph: SensorGraph, decay: float,
                         gamma_margin: float, gamma_override: float | None,
                         method: str, leader: int | None = None) -> DuioGains:
    """Observer assembly shared by the model-based and data-driven paths.

    ``ts`` are the open error matrices, ``hs`` the output feedthroughs,
    ``fs`` the input gains, ``cs`` the output maps.  The leader (first
    node with a detectable pair, unless given) gets the Riccati output
    injection; every other node gets the consensus coupling gain.
    """
    m_nodes = len(ts)
    if graph.M != m_nodes:
        raise DesignError(f"graph has {graph.M} nodes, design has {m_nodes}")

    if leader is None:
        leader = next((i for i in range(m_nodes) if pbh_detectable(ts[i], cs[i])), None)
    if leader is None:
        raise DesignError("no node has a detectable pair ((I - H C) A, C); "
                          "the leader-based construction does not apply")

    m1 = stabilizing_output_injection(ts[leader], cs[leader], decay)
    e_blocks, l_blocks = [], []
    for i in range(m_nodes):
        if i == leader:
            e_i = ts[i] - m1 @ cs[i]
            l_i = m1 + e_i @ hs[i]
        else:
            e_i = ts[i]
            l_i = e_i @ hs[i]
        e_blocks.append(e_i)
        l_blocks.append(l_i)
    followers = [e_blocks[i] for i in range(m_nodes) if i != leader]

    bundle = build_laplacian(graph, drop=leader)
    if m_nodes == 1:
        gamma = 0.0
    elif gamma_override is not None:
        gamma = float(gamma_override)
    else:
        bound = gamma_lower_bound(followers, bundle.lambda_min_reduced)
        gamma = (1.0 + gamma_margin) * bound if bound > 0 else max(gamma_margin, 1e-2)

    gains = DuioGains(E_obs=tuple(e_blocks), F=tuple(fs), L=tuple(l_blocks),
                      H=tuple(hs), gamma=gamma, leader=leader, method=method)
    coupled = scipy.linalg.block_diag(*e_blocks) - gains.consensus(bundle.laplacian)
    absc = spectral_abscissa(coupled)
    if absc >= HURWITZ_TOL:
        raise NumericsError(
            f"coupled error dynamics not Hurwitz (abscissa {absc:.3e}); "
            "check gamma or tolerance configuration")
    return gains


def assemble_from_node_matrices(node_mats, graph: SensorGraph, decay: float,
                                gamma_margin: float, gamma_override: float | None,
                                method: str) -> DuioGains:
    """Observer construction from per-node (A, B_m, B_p, C) matrices."""
    eye = np.eye(node_mats[0][0].shape[0])
    hs, ts, fs, cs = [], [], [], []
    for i, (a, b_m, b_p, c) in enumerate(node_mats):
        try:
            h = decoupling_gain(c, b_p)
        except SolvabilityError:
            raise DesignError(
                f"node {i}: rank(C B_p) < rank(B_p), decoupling unsolvable") from None
        hs.append(h)
        ts.append((eye - h @ c) @ a)
        fs.append((eye - h @ c) @ b_m)
        cs.append(c)
    return assemble_from_blocks(ts, hs, fs, cs, graph, decay, gamma_margin,
                                gamma_override, method)


def build_model_based_gains(model: PlantModel, graph: SensorGraph,
                            decay: float = DEFAULT_DECAY,
                            gamma_margin: float = DEFAULT_GAMMA_MARGIN,
                            gamma_override: float | None = None) -> DuioGains:
    """Observer gains from the true plant matrices."""
    node_mats = [(model.A, node.B_m, node.B_p, node.C) for node in model.nodes]
    return assemble_from_node_matrices(node_mats, graph, decay, gamma_margin,
                                       gamma_override, method="model")
