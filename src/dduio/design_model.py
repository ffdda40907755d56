"""Model-based distributed unknown-input observer design.

Per node, the observer x_hat = z + H y needs H with H C B_p = B_p so the
error dynamics decouple from the unknown input; the designated leader
gets an output-injection gain making its error matrix Hurwitz, and every
other node is stabilized through the consensus coupling gain.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DesignError, DuioError, NumericsError, SolvabilityError
from .linalg import (DEFAULT_RANK_MULTIPLIER, block_diag, decide_rank, numerical_rank,
                     pbh_detectable, solve_care, spectral_abscissa, symmetric_two_norm)
from .network import SensorGraph
from .plant import PlantModel

HURWITZ_TOL = -1e-8
DESIGN_METHODS = ("model", "data", "id")


@dataclass(frozen=True)
class DesignSection:
    """Gain-design settings, the configuration's ``design`` section.

    ``rank_multiplier`` scales the threshold of every rank decision of a design.
    """

    decay: float = 0.5
    gamma_margin: float = 0.1
    gamma_override: float | None = None
    rank_multiplier: float = DEFAULT_RANK_MULTIPLIER
    residual_rtol: float = 1e-6


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
    # the Riccati shift of the leader's injection; None for gains read from a file
    decay_shift: float | None = field(default=None, compare=False)
    # (abscissa of the leader's E, max_f ||E_f + E_f^T||), see ``block_facts``
    _block_facts: tuple[float, float] | None = field(
        default=None, init=False, repr=False, compare=False)

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

    def error_matrix(self, laplacian: np.ndarray) -> np.ndarray:
        """The coupled error matrix blockdiag(E_i) - gamma (P L kron I)."""
        return block_diag(*self.E_obs) - self.consensus(laplacian)

    def followers(self) -> list[np.ndarray]:
        """The follower blocks E_f, in node order."""
        return [e for i, e in enumerate(self.E_obs) if i != self.leader]

    def follower_matrix(self, laplacian: np.ndarray) -> np.ndarray:
        """F = blockdiag(E_f) - gamma (L_red kron I), the followers' block of ``error_matrix``."""
        keep = [j for j in range(self.M) if j != self.leader]
        return (block_diag(*self.followers())
                - np.kron(self.gamma * laplacian[np.ix_(keep, keep)], np.eye(self.n_x)))

    def block_facts(self) -> tuple[float, float]:
        """The abscissa of the leader's E and max_f ||E_f + E_f^T||.

        Neither depends on gamma or the graph.  ``assemble_from_blocks`` sets
        them from its own computations; other gains compute them on first use.
        """
        if self._block_facts is None:
            object.__setattr__(self, "_block_facts", (
                spectral_abscissa(self.E_obs[self.leader]), follower_norm(self.followers())))
        return self._block_facts

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
        """Inverse of ``to_json_dict``, ignoring an older file's ``K``; a bad entry is named."""
        def block(i, key, value):
            try:
                a = np.asarray(value, dtype=float)
            except (TypeError, ValueError):
                raise DuioError(f"gains file node {i} {key!r} is not a numeric matrix") from None
            if not np.all(np.isfinite(a)):
                raise DuioError(f"gains file node {i} {key!r} has a non-finite entry")
            return a
        try:
            blocks = {key: tuple(block(i, key, n[key]) for i, n in enumerate(d["nodes"]))
                      for key in "EFLH"}
            gamma, leader = d["gamma"], d["leader"]
        except KeyError as exc:
            raise DuioError(f"gains file is missing the key {exc.args[0]!r}") from exc
        except TypeError:
            raise DuioError("gains file 'nodes' must be a list of objects") from None
        if type(gamma) not in (int, float) or not np.isfinite(gamma):
            raise DuioError(f"gains file 'gamma' must be a finite number, got {gamma!r}")
        if type(leader) is not int:
            raise DuioError(f"gains file 'leader' must be an integer, got {leader!r}")
        method = d.get("method", "model")
        if not (type(method) is str and method in DESIGN_METHODS):
            raise DuioError(f"gains file 'method' must be one of {list(DESIGN_METHODS)}, "
                            f"got {method!r}")
        return DuioGains(E_obs=blocks["E"], F=blocks["F"], L=blocks["L"], H=blocks["H"],
                         gamma=float(gamma), leader=leader, method=method)


def rank_condition(C: np.ndarray, B_p: np.ndarray, multiplier: float | None = None) -> bool:
    """rank(C B_p) = rank(B_p) = number of unknown-input channels."""
    r = B_p.shape[1]
    if r == 0:
        return True
    return (numerical_rank(C @ B_p, multiplier) == r
            and numerical_rank(B_p, multiplier) == r)


def decoupling_gain(C: np.ndarray, B_p: np.ndarray,
                    multiplier: float | None = None) -> np.ndarray:
    """Solve H C B_p = B_p; the particular solution is B_p (C B_p)^+.

    ``B_p`` has full column rank (the plant checks it at assembly; the data
    side passes an orthonormal basis), so the solvability condition
    rank(C B_p) = rank(B_p) is read from the SVD that gives (C B_p)^+.
    """
    cb = decide_rank(C @ B_p, multiplier, pinv=True)
    if cb.rank < B_p.shape[1]:
        raise SolvabilityError(
            "rank(C B_p) < rank(B_p): no output feedthrough can cancel the unknown input")
    return B_p @ cb.pinv


def check_detectability(model: PlantModel, i: int) -> bool:
    """Detectability of ((I - H C) A, C) with the particular H."""
    node = model.nodes[i]
    try:
        t, _, _ = decouple_node(model.A, node.B_m, node.B_p, node.C)
    except SolvabilityError:
        return False
    return pbh_detectable(t, node.C)


class Injection(NamedTuple):
    """A leader's output injection gain, the abscissa it gives, and the Riccati shift used."""

    gain: np.ndarray
    abscissa: float
    shift: float


def stabilizing_output_injection(T: np.ndarray, C: np.ndarray, decay: float) -> Injection:
    """Gain M with T - M C Hurwitz, targeting abscissa <= -decay.

    Solved as the dual linear-quadratic problem: P solves the Riccati
    equation of the decay-shifted pair and M = P C^T.  When unobservable
    modes sit shallower than the requested decay the shift is relaxed
    (decay, decay/2, decay/4, then 0), since no injection can move them;
    the shift accepted is returned with the gain.  The pair (T, C) must be
    detectable; the caller has tested it (the leader search or the
    data-side test).
    """
    T = np.asarray(T, dtype=float)
    C = np.atleast_2d(np.asarray(C, dtype=float))
    eye = np.eye(T.shape[0])
    for shift in (decay, decay / 2, decay / 4, 0.0):
        try:
            p = solve_care((T + shift * eye).T, C.T)
        except np.linalg.LinAlgError:
            continue
        m = p @ C.T
        absc = spectral_abscissa(T - m @ C)
        if absc < min(HURWITZ_TOL, -shift + 1e-9):
            return Injection(m, absc, shift)
    raise NumericsError("Riccati solve failed to produce a stabilizing injection gain")


def follower_norm(follower_blocks) -> float:
    """||E~ + E~^T||; E~ is block diagonal, so the largest of its blocks' norms."""
    return max((symmetric_two_norm(e + e.T) for e in follower_blocks), default=0.0)


def gamma_lower_bound(norm: float, lambda_min_reduced: float) -> float:
    """Coupling-gain bound ||E~ + E~^T|| / (2 lambda_min(reduced Laplacian)).

    ``norm`` is ``follower_norm`` of the follower blocks.
    """
    return norm / (2.0 * lambda_min_reduced)


class CoupledAbscissa(NamedTuple):
    """The coupled error matrix's abscissa, the block that set it, and its certificate.

    ``bound`` is the coupling-gain bound and ``ceiling`` = (bound - gamma)
    lambda_min(L_red), the Weyl ceiling on the followers' real parts; both
    are None for one node.
    """

    abscissa: float
    block: str
    bound: float | None
    ceiling: float | None


def coupled_abscissa(gains: DuioGains, graph: SensorGraph) -> CoupledAbscissa:
    """The abscissa of ``gains.error_matrix(graph.laplacian)``, read from its blocks.

    The leader's consensus row is zero, so in leader-first order the
    matrix is block lower-triangular with diagonal blocks E_leader and
    F = blockdiag(E_f) - gamma (L_red kron I): its spectrum is
    eig(E_leader) and eig(F).  Every eigenvalue of F has real part at most
    lambda_max((F + F^T) / 2).  The graph is undirected, so L_red is
    symmetric, and by Weyl's inequality that is at most
    max_f ||E_f + E_f^T|| / 2 - gamma lambda_min(L_red), which is
    (bound - gamma) lambda_min(L_red), the ceiling.  When the ceiling lies
    below abscissa(E_leader) by more than |HURWITZ_TOL|, that abscissa is
    the answer; otherwise F alone is decomposed.
    """
    if graph.M != gains.M:
        raise DesignError(f"graph has {graph.M} nodes, gains have {gains.M}")
    leader_absc, norm = gains.block_facts()
    if gains.M == 1:
        return CoupledAbscissa(leader_absc, "leader", None, None)
    lam = graph.lambda_min_reduced(gains.leader)
    bound = gamma_lower_bound(norm, lam)
    ceiling = (bound - gains.gamma) * lam
    if ceiling < leader_absc - abs(HURWITZ_TOL):
        return CoupledAbscissa(leader_absc, "leader", bound, ceiling)
    follower_absc = spectral_abscissa(gains.follower_matrix(graph.laplacian))
    if follower_absc > leader_absc:
        return CoupledAbscissa(follower_absc, "followers", bound, ceiling)
    return CoupledAbscissa(leader_absc, "leader", bound, ceiling)


def assemble_from_blocks(ts, hs, fs, cs, graph: SensorGraph, design: DesignSection,
                         method: str, leader: int | None = None) -> DuioGains:
    """Observer assembly shared by the model-based and data-driven paths.

    ``ts`` are the open error matrices, ``hs`` the output feedthroughs,
    ``fs`` the input gains, ``cs`` the output maps; a non-finite entry in
    any of them is refused up front.  The leader (first node with a
    detectable pair, unless given) gets the Riccati output injection;
    every other node gets the consensus coupling gain.

    The coupled error matrix is certified Hurwitz (abscissa below
    HURWITZ_TOL) by the coupling-gain bound itself: E_leader passed the
    abscissa test of ``stabilizing_output_injection`` on these very floats,
    and the followers' ceiling (bound - gamma) lambda_min(L_red) of
    ``coupled_abscissa`` is below HURWITZ_TOL.  Only when it is not (a
    gamma near or below the bound) is F decomposed, by ``coupled_abscissa``.
    Both facts behind the ceiling go on the gains, for its later calls.
    """
    m_nodes = len(ts)
    if graph.M != m_nodes:
        raise DesignError(f"graph has {graph.M} nodes, design has {m_nodes}")
    for i, blocks in enumerate(zip(ts, hs, fs, cs)):
        for name, block in zip(("error matrix", "output feedthrough", "input gain",
                                "output map"), blocks):
            if not np.all(np.isfinite(block)):
                raise NumericsError(f"node {i}: the {name} has a non-finite entry")

    if leader is None:
        leader = next((i for i in range(m_nodes) if pbh_detectable(
            ts[i], cs[i], multiplier=design.rank_multiplier)), None)
    if leader is None:
        raise DesignError("no node has a detectable pair ((I - H C) A, C); "
                          "the leader-based construction does not apply")

    m1, leader_absc, shift = stabilizing_output_injection(ts[leader], cs[leader], design.decay)
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
    norm = follower_norm(e_blocks[i] for i in range(m_nodes) if i != leader)

    gamma, certified = 0.0, True
    if m_nodes > 1:
        lam = graph.lambda_min_reduced(leader)
        bound = gamma_lower_bound(norm, lam)
        if design.gamma_override is not None:
            gamma = float(design.gamma_override)
        else:
            margin = design.gamma_margin
            gamma = (1.0 + margin) * bound if bound > 0 else max(margin, 1e-2)
        certified = (bound - gamma) * lam < HURWITZ_TOL  # False on a NaN bound

    gains = DuioGains(E_obs=tuple(e_blocks), F=tuple(fs), L=tuple(l_blocks),
                      H=tuple(hs), gamma=gamma, leader=leader, method=method,
                      decay_shift=shift)
    object.__setattr__(gains, "_block_facts", (leader_absc, norm))
    if not certified:
        absc = coupled_abscissa(gains, graph).abscissa
        if absc >= HURWITZ_TOL:
            raise NumericsError(
                f"coupled error dynamics not Hurwitz (abscissa {absc:.3e}); "
                "check gamma or tolerance configuration")
    return gains


def decouple_node(a, b_m, b_p, c, multiplier: float | None = None):
    """Every design's decoupling step: ((I - H C) A, H, (I - H C) B_m), H = B_p (C B_p)^+."""
    h = decoupling_gain(c, b_p, multiplier)
    proj = np.eye(a.shape[0]) - h @ c
    return proj @ a, h, proj @ b_m


def assemble_from_node_matrices(node_mats, graph: SensorGraph, design: DesignSection,
                                method: str) -> DuioGains:
    """Observer construction from per-node (A, B_m, B_p, C) matrices."""
    blocks = []
    for i, (a, b_m, b_p, c) in enumerate(node_mats):
        try:
            blocks.append(decouple_node(a, b_m, b_p, c, design.rank_multiplier))
        except SolvabilityError:
            raise DesignError(
                f"node {i}: rank(C B_p) < rank(B_p), decoupling unsolvable") from None
    ts, hs, fs = zip(*blocks)
    return assemble_from_blocks(ts, hs, fs, [c for *_, c in node_mats], graph, design, method)


def build_model_based_gains(model: PlantModel, graph: SensorGraph,
                            design: DesignSection = DesignSection()) -> DuioGains:
    """Observer gains from the true plant matrices."""
    node_mats = [(model.A, node.B_m, node.B_p, node.C) for node in model.nodes]
    return assemble_from_node_matrices(node_mats, graph, design, method="model")
