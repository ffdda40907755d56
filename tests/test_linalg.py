"""The shared rank decision against numpy, and the numpy Riccati solve and
block-diagonal helper against scipy as the oracle."""
import numpy as np
import pytest
import scipy.linalg

from dduio.config import parse_config
from dduio.design_model import decouple_node
from dduio.linalg import (DEFAULT_RANK_MULTIPLIER, DETECT_TOL, block_diag, decide_rank,
                          detectability_candidates, numerical_rank, pbh_detectable, solve_care)

from conftest import load_bench_module

sweep_plant_config = load_bench_module("workloads").sweep_plant_config

SHIFTS = (0.5, 0.0)


def scipy_care(a, b):
    return scipy.linalg.solve_continuous_are(a, b, np.eye(a.shape[0]), np.eye(b.shape[1]))


def relative_residual(a, b, x):
    r = a.T @ x + x @ a - x @ b @ b.T @ x + np.eye(a.shape[0])
    return np.linalg.norm(r) / max(1.0, np.linalg.norm(x))


def relative_gap(x, want):
    return np.linalg.norm(x - want) / np.linalg.norm(want)


def leader_pair(raw):
    """(T, C) of the first node with a detectable pair, as the model-side design picks it."""
    cfg = parse_config(raw)
    model = cfg.build_model()
    for node in model.nodes:
        t, _, _ = decouple_node(model.A, node.B_m, node.B_p, node.C)
        if pbh_detectable(t, node.C):
            return t, node.C
    raise AssertionError("no detectable node")


def unit_row(n, k):
    c = np.zeros((1, n))
    c[0, k] = 1.0
    return c


def companion(root, n):
    return scipy.linalg.companion(np.poly([root] * n))


OSCILLATOR = np.array([[0.0, 1.0], [-4.0, 0.0]])
# Observable pairs whose Hamiltonians are close to defective or have repeated eigenvalues.
STRESS = {
    **{f"(s+1)^{n}": (companion(-1.0, n), unit_row(n, 0)) for n in (4, 8, 12)},
    **{f"s^{n}": (companion(0.0, n), unit_row(n, n - 1)) for n in (4, 8, 12)},
    **{f"jordan-{n}": (np.eye(n, k=1), unit_row(n, 0)) for n in (4, 8, 12)},
    "twin-oscillators": (block_diag(OSCILLATOR, OSCILLATOR), np.eye(4)[[0, 2]]),
}
# The chains grow ill-conditioned with their order: the condition number of X
# reaches 6e8 at order 8 and 8e13 at order 12 (shifted (s+1)^n), where the two
# solvers differ by 6e-9 and 3e-6.
STRESS_RTOL = {4: 1e-12, 8: 1e-7, 12: 1e-4}


@pytest.mark.parametrize("plant", ["preset"] + [f"sweep-{i}" for i in range(5)])
@pytest.mark.parametrize("shift", SHIFTS)
def test_solve_care_matches_scipy_on_the_design_leaders(plant, shift):
    raw = {} if plant == "preset" else sweep_plant_config(1, int(plant.removeprefix("sweep-")))
    t, c = leader_pair(raw)
    a, b = (t + shift * np.eye(t.shape[0])).T, c.T
    x, want = solve_care(a, b), scipy_care(a, b)
    assert relative_gap(x, want) < 1e-9
    assert np.array_equal(x, x.T)
    assert relative_residual(a, b, x) < 1e-11


@pytest.mark.parametrize("name", sorted(STRESS))
@pytest.mark.parametrize("shift", SHIFTS)
def test_solve_care_matches_scipy_on_stress_pairs(name, shift):
    t, c = STRESS[name]
    a, b = (t + shift * np.eye(t.shape[0])).T, c.T
    x, want = solve_care(a, b), scipy_care(a, b)
    assert relative_gap(x, want) < STRESS_RTOL[t.shape[0]]
    assert np.max(np.linalg.eigvals(a - b @ b.T @ x).real) < 0


ROTATION = np.linalg.qr(np.random.default_rng(0).normal(size=(2, 2)))[0]


@pytest.mark.parametrize("case", ["unstable-unobservable", "unstable-unobservable-rotated",
                                  "marginal-unobservable"])
def test_solve_care_raises_without_a_stabilizing_solution(case):
    # b reaches only the second state, so the first state's mode (1 or 0) cannot move
    a = np.zeros((2, 2)) if case.startswith("marginal") else np.diag([1.0, -1.0])
    b = np.array([[0.0], [1.0]])
    if case.endswith("rotated"):
        # U1 is then singular only to working precision (condition number 1e16)
        a, b = ROTATION.T @ a @ ROTATION, ROTATION.T @ b
    with pytest.raises(np.linalg.LinAlgError):
        scipy_care(a, b)
    with pytest.raises(np.linalg.LinAlgError):
        solve_care(a, b)


def test_block_diag_matches_scipy():
    rng = np.random.default_rng(3)
    blocks = [rng.normal(size=shape) for shape in ((2, 3), (1, 1), (3, 2), (4, 4))]
    out = block_diag(*blocks)
    assert out.dtype == float
    assert np.array_equal(out, scipy.linalg.block_diag(*blocks))
    assert np.array_equal(block_diag(np.eye(2, dtype=int)), np.eye(2))


@pytest.mark.parametrize("a, want", [
    ([[0.0, 5e-17], [-5e-17, 0.0]], [5e-17j]),
    ([[3e-16, 0.0], [0.0, -3e-16]], [3e-16]),
    ([[0.0, 0.0], [0.0, 3 * DETECT_TOL]], [0.0, 3 * DETECT_TOL]),
    ([[0.2, 2.0, 0.0], [-2.0, 0.2, 0.0], [0.0, 0.0, -1.0]], [0.2 + 2j]),
], ids=["double-zero-as-pair", "double-zero-as-reals", "apart", "pair-and-stable"])
def test_detectability_candidates_rank_near_equal_eigenvalues_once(a, want):
    # a double eigenvalue is one candidate however rounding splits it; members
    # of a pair below the real axis and stable eigenvalues are none
    got = detectability_candidates(np.array(a))
    assert got.shape == (len(want),)
    assert np.allclose(got, want, rtol=0.0, atol=1e-15)


EPS = np.finfo(float).eps
MULTIPLIERS = (None, 1.0, 1e6, 1e13)


def low_rank(rng, rows, cols, rank):
    """A seeded real rows x cols matrix of exact rank ``rank``."""
    return rng.normal(size=(rows, rank)) @ rng.normal(size=(rank, cols))


def pbh_pencil(rng, n, hidden):
    """[lam I - a; c] at an eigenvalue lam of a, as ``pbh_detectable`` stacks it.

    With ``hidden`` the pair (a, c) leaves lam unobservable, so the pencil
    has rank n - 1; otherwise it has rank n.
    """
    lam = complex(0.3, 1.7)
    mode = np.array([[lam.real, lam.imag], [-lam.imag, lam.real]])
    rest = rng.normal(size=(n - 2, n - 2))
    t = np.linalg.qr(rng.normal(size=(n, n)))[0]
    a = t @ block_diag(mode, rest) @ t.T
    c = rng.normal(size=(2, n))
    if hidden:
        c[:, :2] = 0.0
    c = c @ t.T
    return np.vstack([lam * np.eye(n) - a, c.astype(complex)])


def rank_matrices():
    rng = np.random.default_rng(11)
    cases = {f"real-{m}x{n}-rank{r}": low_rank(rng, m, n, r)
             for m, n, r in ((6, 40, 4), (40, 6, 3), (7, 7, 7), (9, 12, 1))}
    cases.update({f"pencil-{n}-{'hidden' if h else 'observable'}": pbh_pencil(rng, n, h)
                  for n in (4, 8) for h in (False, True)})
    cases.update({"empty-0x3": np.zeros((0, 3)), "empty-3x0": np.zeros((3, 0)),
                  "zero-4x6": np.zeros((4, 6)), "zero-1x1": np.zeros((1, 1))})
    return cases


RANK_MATRICES = rank_matrices()
TRUE_RANKS = {"real-6x40-rank4": 4, "real-40x6-rank3": 3, "real-7x7-rank7": 7,
              "real-9x12-rank1": 1, "pencil-4-observable": 4, "pencil-4-hidden": 3,
              "pencil-8-observable": 8, "pencil-8-hidden": 7, "empty-0x3": 0,
              "empty-3x0": 0, "zero-4x6": 0, "zero-1x1": 0}


@pytest.mark.parametrize("name", sorted(RANK_MATRICES))
@pytest.mark.parametrize("multiplier", MULTIPLIERS)
def test_decide_rank_reads_the_rank_from_its_threshold(name, multiplier):
    a = RANK_MATRICES[name]
    decision = decide_rank(a, multiplier)
    m = DEFAULT_RANK_MULTIPLIER if multiplier is None else multiplier
    sv = decision.singular_values
    assert sv.tobytes() == (np.linalg.svd(a, compute_uv=False) if a.size else np.zeros(0)).tobytes()
    assert decision.threshold == (m * max(a.shape) * EPS * sv[0] if sv.size else 0.0)
    assert decision.rank == int(np.count_nonzero(sv > decision.threshold))
    assert decision.pinv is None
    assert numerical_rank(a, multiplier) == decision.rank
    if multiplier is None:
        assert decision.rank == TRUE_RANKS[name]


@pytest.mark.parametrize("name", sorted(RANK_MATRICES))
@pytest.mark.parametrize("multiplier", MULTIPLIERS)
def test_decide_rank_pinv_is_numpys_bit_for_bit(name, multiplier):
    a = RANK_MATRICES[name]
    decision = decide_rank(a, multiplier, pinv=True)
    m = DEFAULT_RANK_MULTIPLIER if multiplier is None else multiplier
    want = np.linalg.pinv(a, rcond=m * max(a.shape) * EPS)
    assert decision.pinv.shape == want.shape == a.shape[::-1]
    assert decision.pinv.tobytes() == want.tobytes()
    # the full SVD behind the pseudoinverse makes the same decision
    sv = decision.singular_values
    assert decision.rank == decide_rank(a, multiplier).rank
    assert decision.rank == int(np.count_nonzero(sv > decision.threshold))
    assert decision.threshold == (m * max(a.shape) * EPS * sv[0] if sv.size else 0.0)


def test_decide_rank_multiplier_moves_only_the_threshold():
    # singular values 1, 1e-6 and 1e-12: each larger multiplier drops one more
    a = np.diag([1.0, 1e-6, 1e-12])
    ranks = [decide_rank(a, m).rank for m in (1.0, 1e6, 1e13)]
    assert ranks == [3, 2, 1]
    assert len({decide_rank(a, m).singular_values.tobytes() for m in (1.0, 1e6, 1e13)}) == 1
    assert decide_rank(np.ones(5)).rank == 1 == numerical_rank(np.ones(5))
