"""Shared fixtures: the five-node benchmark and random test systems."""
from __future__ import annotations

import contextlib
import importlib.util
import io
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from dduio.config import parse_config
from dduio.datagen import NodeDataset, collect
from dduio.design_data import analyze_datasets, build_data_driven_gains
from dduio.design_model import (HURWITZ_TOL, DesignSection, build_model_based_gains,
                                follower_norm, gamma_lower_bound)
from dduio.integrate import rk4_linear
from dduio.linalg import spectral_abscissa
from dduio.observer_sim import error_dynamics_matrix, run
from dduio.plant import PlantModel
from dduio.signals import SignalGenerator

BENCH_SEED = 20240100
# The default configuration: the two-mass-spring preset on the five-ring.
BENCH = parse_config({})
# The coupling gain the paper uses on its two-mass-spring example.
BENCH_GAMMA = 5.0


BENCH_DIR = Path(__file__).resolve().parent.parent / "perfbench"


def load_bench_module(name: str):
    """The benchmark's module ``perfbench/<name>.py``, loaded without editing it."""
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", BENCH_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class DecompositionCalls(list):
    """(shape, matrix bytes) keys of recorded decompositions, with each one's kind."""

    def __init__(self):
        super().__init__()
        self.kinds = []


@contextlib.contextmanager
def decomposition_spy():
    """Record every ``np.linalg`` svd/eigvals/eigvalsh/cholesky call made from dduio code.

    Yields a list that gains one (shape, matrix bytes) key per call whose
    immediate caller is a ``dduio`` module, and whose ``kinds`` name each
    call's function.  Decompositions made inside numpy or scipy are not
    seen: ``np.linalg.cond`` in ``linalg.solve_care`` runs its own svd.
    """
    calls = DecompositionCalls()

    def wrap(name, original):
        def spy(a, *args, **kwargs):
            if sys._getframe(1).f_globals.get("__name__", "").startswith("dduio."):
                a = np.asarray(a)
                calls.append((a.shape, a.tobytes()))
                calls.kinds.append(name)
            return original(a, *args, **kwargs)
        return spy

    with pytest.MonkeyPatch.context() as mp:
        for name in ("svd", "eigvals", "eigvalsh", "cholesky"):
            mp.setattr(np.linalg, name, wrap(name, getattr(np.linalg, name)))
        yield calls


def repeated(calls) -> dict:
    """The keys of ``decomposition_spy`` that occur more than once, with their counts."""
    return {key: n for key, n in Counter(calls).items() if n > 1}


class CountedSignal(SignalGenerator):
    """A generator that counts its ``sample`` calls."""

    def __init__(self, gen):
        self.gen, self.calls = gen, 0

    def sample(self, ts):
        self.calls += 1
        return self.gen.sample(ts)


def bench_signals(input_seed, dist_seed, dt_hold, active=True):
    """The preset's online inputs and disturbances, the latter held for dt_hold.

    With ``active`` false the disturbances are zero (``run.disturbance``).
    """
    cfg = parse_config({"run": {"dt": dt_hold, "disturbance": active}})
    return cfg.build_inputs(input_seed), cfg.build_disturbances(dist_seed)


def run_with_estimates(*args, **kwargs):
    """``observer_sim.run`` and the estimates (time, node, state) it streamed
    to its ``xhat_file``, loaded back from memory."""
    stream = io.BytesIO()
    res = run(*args, **kwargs, xhat_file=stream)
    stream.seek(0)
    return res, np.load(stream, allow_pickle=False)


def online_sample(model, traj, i, k):
    """Node i's (u_i, y_i, ydot_i, x, xdot) at grid index k of a trajectory."""
    node = model.nodes[i]
    return (traj.u[k, list(node.known_input_indices)], traj.x[k] @ node.C.T,
            traj.xdot[k] @ node.C.T, traj.x[k], traj.xdot[k])


@pytest.fixture(scope="session")
def bench_model():
    return BENCH.build_model()


@pytest.fixture(scope="session")
def bench_graph():
    return BENCH.build_graph()


@pytest.fixture(scope="session")
def bench_datasets(bench_model):
    return [collect(bench_model, i, BENCH.data, seed=BENCH_SEED + i)
            for i in range(bench_model.M)]


@pytest.fixture(scope="session")
def model_gains(bench_model, bench_graph):
    return build_model_based_gains(bench_model, bench_graph,
                                   DesignSection(gamma_override=BENCH_GAMMA))


@pytest.fixture(scope="session")
def data_gains(bench_datasets, bench_graph):
    reports, leader = analyze_datasets([ds.design_view() for ds in bench_datasets])
    assert leader is not None
    return build_data_driven_gains(reports, bench_graph,
                                   DesignSection(gamma_override=BENCH_GAMMA))


def simulate_error_dynamics(gains, graph, e0, horizon: float, dt: float):
    """Integrate the stacked linear error ODE directly.

    Cross-checks ``run``: with matched initial conditions and decoupled
    gains the two produce the same stacked error trajectory.
    """
    m, _ = error_dynamics_matrix(gains, graph)
    n_steps = int(round(horizon / dt))
    e = rk4_linear(m, np.zeros((m.shape[0], 0)), [], np.asarray(e0, dtype=float),
                   n_steps, dt)
    return np.arange(n_steps + 1) * dt, e


def coupling_matrix(e_blocks, k_blocks, laplacian: np.ndarray) -> np.ndarray:
    """Dense oracle of the coupled error matrix blockdiag(E_i) - blockdiag(K_i)(L kron I)."""
    e_blocks = list(e_blocks)
    n = e_blocks[0].shape[0]
    return (scipy.linalg.block_diag(*e_blocks)
            - scipy.linalg.block_diag(*k_blocks) @ np.kron(laplacian, np.eye(n)))


def reduced_laplacian(graph, drop: int) -> np.ndarray:
    """The graph's Laplacian without node ``drop``'s row and column."""
    keep = [j for j in range(graph.M) if j != drop]
    return graph.laplacian[np.ix_(keep, keep)]


def followers_certified(followers, reduced: np.ndarray, gamma: float) -> bool:
    """Dense oracle: whether F = blockdiag(E_f) - gamma (L_red kron I) is certified Hurwitz.

    Decided by one Cholesky factorization of -(F + F^T) - 2|HURWITZ_TOL| I,
    which exists only if lambda_max((F + F^T) / 2) < HURWITZ_TOL, so F's
    abscissa is then below HURWITZ_TOL.
    """
    n = followers[0].shape[0]
    f = scipy.linalg.block_diag(*followers) - np.kron(gamma * reduced, np.eye(n))
    s = -(f + f.T)
    s[np.diag_indices_from(s)] -= 2.0 * abs(HURWITZ_TOL)
    try:
        factor = np.linalg.cholesky(s)
    except np.linalg.LinAlgError:
        return False
    return bool(np.isfinite(factor).all())  # numpy factors a NaN without raising


def pointwise_dataset(A, B_m, B_p, C, N, seed, node_index=0) -> NodeDataset:
    """Dataset of N single-sample trajectories (fresh state and inputs each).

    Every column satisfies the node dynamics exactly, which is all the
    data-driven theory requires of offline samples.
    """
    A = np.asarray(A, dtype=float)
    B_m = np.asarray(B_m, dtype=float).reshape(A.shape[0], -1)
    B_p = np.asarray(B_p, dtype=float).reshape(A.shape[0], -1)
    C = np.atleast_2d(np.asarray(C, dtype=float))
    rng = np.random.default_rng(seed)
    n_x, n_m, r = A.shape[0], B_m.shape[1], B_p.shape[1]
    X = rng.uniform(-1, 1, (n_x, N))
    U = rng.uniform(-1, 1, (n_m, N))
    W = rng.uniform(-1, 1, (r, N))
    Xdot = A @ X + B_m @ U + B_p @ W
    return NodeDataset(U=U, Y=C @ X, Ydot=C @ Xdot, X=X, Xdot=Xdot,
                       W_validation=W, sample_times=np.zeros(N),
                       node_index=node_index, seed=seed)


def single_node_model(A, B_m, B_p, C) -> PlantModel:
    """Wrap one node's matrices as a one-node plant (no disturbance block)."""
    A = np.asarray(A, dtype=float)
    B_m = np.asarray(B_m, dtype=float).reshape(A.shape[0], -1)
    B_p = np.asarray(B_p, dtype=float).reshape(A.shape[0], -1)
    B = np.hstack([B_m, B_p])
    known = tuple(range(B_m.shape[1]))
    return PlantModel.assemble(A, B, np.zeros((A.shape[0], 0)),
                               [(C, known, np.ones(B_p.shape[1]))])


def random_node_system(rng: np.random.Generator, kind: str):
    """Random (A, B_m, B_p, C) of one of four constructed families.

    "generic": dense random, solvable and detectable almost surely.
    "annihilating": C has an exact zero column aligned with one
        unknown-input direction, so the decoupling condition fails.
    "hidden-unstable"/"hidden-stable": no unknown input; the first mode
        is invisible to C and is unstable resp. stable, giving an
        undetectable resp. detectable-but-unobservable pair.
    """
    n_x = int(rng.integers(2, 6))
    n_m = int(rng.integers(0, 3))
    if kind == "generic":
        r = int(rng.integers(0, 3))
        n_y = int(rng.integers(max(r, 1), n_x + 2))
        a = rng.normal(size=(n_x, n_x))
        c = rng.normal(size=(n_y, n_x))
        b_p = rng.normal(size=(n_x, r))
    elif kind == "annihilating":
        r = int(rng.integers(1, 3))
        n_y = int(rng.integers(r, n_x + 2))
        a = rng.normal(size=(n_x, n_x))
        b_p = rng.normal(size=(n_x, r))
        b_p[:, 0] = 0.0
        b_p[0, 0] = 1.0
        c = rng.normal(size=(n_y, n_x))
        c[:, 0] = 0.0
    elif kind in ("hidden-unstable", "hidden-stable"):
        r = 0
        n_y = int(rng.integers(1, n_x + 1))
        lam = rng.uniform(0.2, 1.5) if kind == "hidden-unstable" \
            else -rng.uniform(0.3, 1.0)
        a = np.zeros((n_x, n_x))
        a[0, 0] = lam
        rest = rng.normal(size=(n_x - 1, n_x - 1))
        a[1:, 1:] = rest - (np.max(np.linalg.eigvals(rest).real) + 0.4) \
            * np.eye(n_x - 1)
        c = np.hstack([np.zeros((n_y, 1)), rng.normal(size=(n_y, n_x - 1))])
        b_p = np.zeros((n_x, 0))
    else:
        raise ValueError(kind)
    b_m = rng.normal(size=(n_x, n_m))
    return a, b_m, b_p, c


def random_connected_graph(rng: np.random.Generator, m: int):
    """Random spanning tree plus extra random edges, random weights."""
    from dduio.network import SensorGraph
    adj = np.zeros((m, m))
    order = rng.permutation(m)
    for k in range(1, m):
        i, j = order[k], order[rng.integers(0, k)]
        adj[i, j] = adj[j, i] = rng.uniform(0.2, 2.0)
    extra = rng.integers(0, m)
    for _ in range(extra):
        i, j = rng.integers(0, m, 2)
        if i != j:
            adj[i, j] = adj[j, i] = rng.uniform(0.2, 2.0)
    return SensorGraph(adj)


def random_coupled_systems(seed: int, follower_scale: float, leader_shift: float,
                           count: int = 20):
    """Random coupled error systems with gamma just above the coupling-gain bound.

    Yields (graph, E blocks with node 0 the leader, gamma): the leader
    block has abscissa -``leader_shift``, each follower block is
    ``follower_scale`` times a standard normal matrix, and gamma is 1.001
    times the bound (at least 1e-3).
    """
    rng = np.random.default_rng(seed)
    for _ in range(count):
        m = int(rng.integers(2, 7))
        n = int(rng.integers(1, 4))
        graph = random_connected_graph(rng, m)
        followers = [follower_scale * rng.normal(size=(n, n)) for _ in range(m - 1)]
        leader = rng.normal(size=(n, n))
        leader -= (spectral_abscissa(leader) + leader_shift) * np.eye(n)
        gamma = max(1.001 * gamma_lower_bound(follower_norm(followers),
                                              graph.lambda_min_reduced(0)), 1e-3)
        yield graph, [leader] + followers, gamma
