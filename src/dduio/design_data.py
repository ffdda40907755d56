"""Purely data-driven observer design from offline datasets.

All quantities come from the stacked data matrices; the true plant
matrices are never consulted.  The rank tests certify, from data alone,
that the decoupling equations are solvable and that a detectable leader
exists; the construction then recovers the observer blocks from the
linear data equation  Xdot = [T_u  T_y  T_x] [U; Ydot; X].
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, DesignError, DimensionError, RankError
from .datagen import NodeDataset
from .design_model import DesignSection, DuioGains, assemble_from_blocks, decouple_node
from .linalg import Rank, decide_rank, detectability_candidates, numerical_rank
from .network import SensorGraph


def check_data_solvability(ds: NodeDataset, multiplier: float | None = None) -> tuple[Rank, Rank]:
    """Data-side test of the decoupling solvability condition.

    Returns the rank decisions of [U; Ydot; X] and [U; X; Xdot]; the node
    is solvable when their ranks agree, which on the underlying plant is
    exactly rank(C B_p) = rank(B_p), and the second reaches its floor
    n_m + n_x, the rank of exciting [U; X]: below it, one large entry has
    hidden every other direction of the data.
    """
    return (decide_rank(np.vstack([ds.U, ds.Ydot, ds.X]), multiplier),
            decide_rank(np.vstack([ds.U, ds.X, ds.Xdot]), multiplier))


def recover_output_map(ds: NodeDataset,
                       multiplier: float | None = None) -> tuple[np.ndarray, Rank]:
    """C = Y X^+ and the rank decision of X, from one SVD of X.

    Requires the state data to have full row rank.
    """
    x = decide_rank(ds.X, multiplier, pinv=True)
    if x.rank < ds.n_x:
        raise RankError("state data X is row-rank deficient; cannot recover the output map")
    return ds.Y @ x.pinv, x


def regress_on_known(ds: NodeDataset, multiplier: float | None = None) -> tuple[np.ndarray, Rank]:
    """The least-squares fit Xdot [U; X]^+ (U's columns first) and the rank
    decision of [U; X], from one SVD."""
    known = decide_rank(np.vstack([ds.U, ds.X]), multiplier, pinv=True)
    return ds.Xdot @ known.pinv, known


def solve_data_equation_structured(ds: NodeDataset, r_hat: int, c_rec: np.ndarray,
                                   rtol: float = DesignSection.residual_rtol,
                                   multiplier: float | None = None):
    """The solution of Xdot = [T_u T_y T_x] [U; Ydot; X] with rank(T_y) = r_hat.

    ``r_hat`` is the unknown-input rank the solvability test inferred and
    ``c_rec`` the output map ``recover_output_map`` gave.
    The span of the unknown-input directions is recovered as the column
    space of what the least-squares fit of Xdot on [U; X] leaves
    unexplained; ``decouple_node`` turns that basis, for B_p, and the fit,
    for (B_m, A), into T_y, which annihilates the unknown input, and T_u,
    T_x.  On noise-free data this member coincides with the blocks the
    true plant matrices would give.

    Returns (T_u, T_y, T_x, residual).
    """
    fit, _ = regress_on_known(ds, multiplier)
    if r_hat > 0:
        unexplained = ds.Xdot - fit @ np.vstack([ds.U, ds.X])
        basis = np.linalg.svd(unexplained, full_matrices=False)[0][:, :r_hat]
    else:
        basis = np.zeros((ds.n_x, 0))
    t_x, t_y, t_u = decouple_node(fit[:, ds.n_m:], fit[:, :ds.n_m], basis, c_rec, multiplier)
    stack = np.vstack([ds.U, ds.Ydot, ds.X])
    residual = float(np.linalg.norm(ds.Xdot - np.hstack([t_u, t_y, t_x]) @ stack))
    scale = max(np.linalg.norm(ds.Xdot), 1.0)
    if residual > rtol * scale:
        raise ConsistencyError(
            f"structured data equation residual {residual:.3e} exceeds {rtol:.1e} x ||Xdot||")
    return t_u, t_y, t_x, residual


def check_data_detectability(ds: NodeDataset, t_x: np.ndarray, r_hat: int,
                             multiplier: float | None) -> bool:
    """Data-side detectability test for a candidate leader node.

    The pencil [s X - Xdot; U; Y] must keep rank n_x + n_m + r over the
    closed right half-plane.  On consistent data its rank drops only at
    an invariant zero of (A, B_p, C), which is an unobservable eigenvalue
    of the recovered error matrix ``t_x``; so the pencil is ranked once at
    each of ``t_x``'s ``detectability_candidates``, and nowhere else.

    ``t_x`` is the block of the structured solve of this dataset and
    ``r_hat`` its inferred unknown-input rank.
    """
    want = ds.n_x + ds.n_m + r_hat
    for s in detectability_candidates(t_x):
        # row scaling keeps the rank and stops the top singular value from
        # growing with |s|, which would otherwise inflate the threshold
        pencil = np.vstack([(s * ds.X - ds.Xdot) / max(1.0, abs(s)), ds.U, ds.Y])
        if numerical_rank(pencil, multiplier) != want:
            return False
    return True


@dataclass(frozen=True)
class DataDesignReport:
    """Everything the data-driven construction derived for one node."""

    node_index: int
    solvable: bool
    ranks: dict[str, Rank]  # decide_rank's records: "U;Ydot;X", "U;X;Xdot", "X" if designed
    # the RankError that stopped the design of a solvable node, as its message
    rank_error: str | None = None
    # set only by the design of a solvable node; detectable only for a leader candidate
    detectable: bool | None = None
    T_u: np.ndarray | None = None
    T_y: np.ndarray | None = None
    T_x: np.ndarray | None = None
    C_recovered: np.ndarray | None = None
    residual: float | None = None
    r_inferred: int | None = None


def analyze_node(ds: NodeDataset, test_detectability: bool = False,
                 rtol: float = DesignSection.residual_rtol,
                 multiplier: float | None = None) -> DataDesignReport:
    """Run the rank tests and, when solvable, recover the observer blocks.

    One pass: the unknown-input rank is read from the solvability test and
    the leader's detectability test works on the structured solve's blocks,
    so no matrix is ranked or pseudo-inverted twice.  The report keeps the
    rank decisions of the two solvability stacks and, for a solvable node,
    of X.  A solvable node whose X is row-rank deficient is reported with
    that ``rank_error`` and no blocks.
    """
    lhs, rhs = check_data_solvability(ds, multiplier)
    ranks = {"U;Ydot;X": lhs, "U;X;Xdot": rhs}
    if lhs.rank != rhs.rank or rhs.rank < ds.n_m + ds.n_x:
        return DataDesignReport(node_index=ds.node_index, solvable=False, ranks=ranks)
    r_hat = rhs.rank - ds.n_m - ds.n_x
    try:
        c_rec, ranks["X"] = recover_output_map(ds, multiplier)
    except RankError as exc:
        return DataDesignReport(node_index=ds.node_index, solvable=True, ranks=ranks,
                                rank_error=str(exc))
    t_u, t_y, t_x, residual = solve_data_equation_structured(
        ds, r_hat, c_rec, rtol=rtol, multiplier=multiplier)
    detectable = (check_data_detectability(ds, t_x, r_hat, multiplier)
                  if test_detectability else None)
    return DataDesignReport(
        node_index=ds.node_index, solvable=True, ranks=ranks,
        detectable=detectable, T_u=t_u, T_y=t_y, T_x=t_x, C_recovered=c_rec,
        residual=residual, r_inferred=r_hat)


def analyze_datasets(datasets, rtol: float = DesignSection.residual_rtol,
                     multiplier: float | None = None) -> tuple[list[DataDesignReport], int | None]:
    """Per-node reports plus the first node passing the detectability test.

    Every node is analyzed: a node's rank failure is recorded in its report
    (``rank_error``), and the leader test moves on to the next node.  Every
    node must hold node 0's n_x states (a DimensionError otherwise); their
    inputs and outputs may differ."""
    datasets = list(datasets)
    for ds in datasets[1:]:
        if ds.n_x != datasets[0].n_x:
            raise DimensionError(f"node {ds.node_index}: dataset n_x = {ds.n_x}, "
                                 f"node {datasets[0].node_index}'s n_x = {datasets[0].n_x}")
    reports = []
    leader = None
    for ds in datasets:
        test_leader = leader is None
        report = analyze_node(ds, test_detectability=test_leader,
                              rtol=rtol, multiplier=multiplier)
        if test_leader and report.solvable and report.detectable:
            leader = report.node_index
        reports.append(report)
    return reports, leader


def build_data_driven_gains(reports, graph: SensorGraph,
                            design: DesignSection = DesignSection()) -> DuioGains:
    """Observer gains from per-node data reports.

    Preconditions: every node designed (a node's ``rank_error`` is raised
    first), every node solvable and some node detectable from data.
    """
    reports = list(reports)
    for rep in reports:
        if rep.rank_error is not None:
            raise RankError(rep.rank_error)
    for rep in reports:
        if not rep.solvable:
            raise DesignError(f"node {rep.node_index}: data solvability rank test failed")
    leader = next((k for k, rep in enumerate(reports) if rep.detectable), None)
    if leader is None:
        raise DesignError("no node passed the data detectability test; "
                          "cannot stabilize a leader")
    return assemble_from_blocks(
        ts=[rep.T_x for rep in reports], hs=[rep.T_y for rep in reports],
        fs=[rep.T_u for rep in reports], cs=[rep.C_recovered for rep in reports],
        graph=graph, design=design, method="data", leader=leader)

