"""Simulation of the plant and observer networks on one scenario.

The plant and M observers form one linear ODE; neighbor estimates enter
the consensus term continuously (same-stage values inside the
integrator).  The plant's rows hold no observer terms, so the closed-loop
matrix is block lower triangular, and so is every RK4 step.  A scenario
pass therefore integrates the plant alone, as ``plant.simulate`` does,
then advances every observer network's block from that plant trajectory.
Each chunk of a network's states becomes its estimates and error norms
while it is in cache, in one buffer that the next chunk overwrites: ``run``
keeps one network's norms and spread whole and writes its estimates to a
``.npy`` file chunk by chunk when given one (``xhat_writer``), and
``error_norm_chunks`` hands on several networks' norms a chunk at a time.
No pass holds a (time, node, state) array.
"""
from __future__ import annotations

import contextlib
import os
from dataclasses import dataclass

import numpy as np

from ._csvio import write_json
from .design_model import DuioGains, coupled_abscissa
from .errors import DimensionError
from .integrate import DRIVE_ROWS, rk4_chunks, rk4_linear, tabulate
from .linalg import block_diag
from .network import SensorGraph
from .plant import PlantModel, check_scenario
from .signals import Tabulated


@dataclass(frozen=True)
class RunResult:
    """Time-stamped truth and per-node error summaries; the estimates
    themselves leave ``run`` only through its ``xhat_file``."""

    t: np.ndarray
    x: np.ndarray
    error_norms: np.ndarray   # (time, node)
    spread: np.ndarray        # (time,) the largest distance between two nodes' estimates

    @property
    def M(self) -> int:
        return self.error_norms.shape[1]

    @property
    def final_error_norms(self) -> np.ndarray:
        return self.error_norms[-1]

    @property
    def final_spread(self) -> float:
        return float(self.spread[-1])

    def summary(self) -> dict:
        return {
            "final_error_norms": [float(v) for v in self.final_error_norms],
            "final_spread": self.final_spread,
            "horizon": float(self.t[-1]),
            "dt": float(self.t[1] - self.t[0]) if self.t.size > 1 else 0.0,
        }


def _check_dimensions(model: PlantModel, graph: SensorGraph, gains: DuioGains) -> None:
    if not (model.M == graph.M == gains.M):
        raise DimensionError(
            f"node counts differ: model {model.M}, graph {graph.M}, gains {gains.M}")
    if not 0 <= gains.leader < gains.M:
        raise DimensionError(f"leader {gains.leader} is not a node index below {gains.M}")
    n = model.n_x
    for i, node in enumerate(model.nodes):
        if gains.E_obs[i].shape != (n, n):
            raise DimensionError(f"node {i}: E must be {n}x{n}")
        if gains.H[i].shape != (n, node.n_y) or gains.L[i].shape != (n, node.n_y):
            raise DimensionError(f"node {i}: H/L must be {n}x{node.n_y}")
        if gains.F[i].shape != (n, node.n_m):
            raise DimensionError(f"node {i}: F must be {n}x{node.n_m}")


def _closed_loop(model: PlantModel, graph: SensorGraph, gains: DuioGains):
    """Constant matrices (A_cl, G_cl) of the coupled plant-observer ODE."""
    n, m_nodes = model.n_x, model.M
    c_stack = np.vstack([node.C for node in model.nodes])
    l_blk = block_diag(*gains.L)
    h_blk = block_diag(*gains.H)

    dim = n * (1 + m_nodes)
    a_cl = np.zeros((dim, dim))
    a_cl[:n, :n] = model.A
    a_cl[n:, :n] = l_blk @ c_stack - gains.consensus(graph.laplacian) @ h_blk @ c_stack
    a_cl[n:, n:] = gains.error_matrix(graph.laplacian)

    g_cl = np.zeros((dim, model.n_u + model.n_d))
    g_cl[:n] = np.hstack([model.B, model.E_dist])
    for i, node in enumerate(model.nodes):
        g_cl[n * (1 + i):n * (2 + i), list(node.known_input_indices)] = gains.F[i]
    return a_cl, g_cl


def run(model: PlantModel, graph: SensorGraph, gains: DuioGains, x0,
        inputs, disturbances, horizon: float, dt: float,
        z0=None, xhat_file=None) -> RunResult:
    """Integrate plant plus observer network and report estimation errors.

    Each node reads only its own known inputs, its own output, and its
    neighbors' estimates.  ``z0`` defaults to zero observer states.  The
    scenario is checked by ``plant.check_scenario``, the signals are
    tabulated once on RK4's half-step grid, and the plant is integrated
    from ``x0`` as ``plant.simulate`` integrates it; the observer block
    then advances alone, z_{j+1} = Phi_zz z_j + Phi_zx x_j + d_z,j, from
    that trajectory, and each finished chunk of observer states becomes
    estimates, error norms and rows of the spread while it is in cache.
    Given a binary file ``xhat_file``, each chunk of estimates is written
    to it, and the file then holds ``xhat`` (time, node, state) as
    ``np.save`` writes it; the result holds no estimates.
    """
    ((t, x, table, gains, z0),) = _scenario(model, graph, [(gains, z0)], x0, inputs,
                                            disturbances, horizon, dt)
    shape = (t.size, model.M, model.n_x)
    if xhat_file is not None:
        np.lib.format.write_array_header_1_0(xhat_file, {
            "descr": np.lib.format.dtype_to_descr(np.dtype(float)),
            "fortran_order": False, "shape": shape})
    error_norms, spread = np.empty(shape[:2]), np.empty(t.size)
    for r0, est, norms in _estimate_chunks(model, graph, gains, z0, x, table, dt):
        r1 = r0 + norms.shape[0]
        error_norms[r0:r1] = norms
        est = est.reshape(-1, model.M, model.n_x)
        _spread_rows(est, spread[r0:r1])
        if xhat_file is not None:
            xhat_file.write(est)
    return RunResult(t, x, error_norms, spread)


def error_norm_chunks(model: PlantModel, graph: SensorGraph, observers, x0,
                      inputs, disturbances, horizon: float, dt: float):
    """Yield, per (gains, z0) of ``observers``, all on one scenario, its grid ``t``
    and an iterator of its error norms chunk by chunk, (first row, rows).

    The signals are tabulated and the plant is integrated once for every
    network.  Each network's norms are its own ``run``'s bit for bit, but
    no network's full-length arrays are made: each chunk lives in a buffer
    that the next one overwrites.  Drain each iterator before taking the
    next network's.  A ``z0`` of None means zero observer states.
    """
    for t, x, table, gains, z0 in _scenario(model, graph, observers, x0, inputs,
                                            disturbances, horizon, dt):
        yield t, ((r0, norms) for r0, _, norms in
                  _estimate_chunks(model, graph, gains, z0, x, table, dt))


def _scenario(model: PlantModel, graph: SensorGraph, observers, x0,
              inputs, disturbances, horizon: float, dt: float):
    """Check a scenario and its networks, tabulate its signals and integrate its
    plant; then yield (t, x, table, gains, z0) per network."""
    x0, gens, n_steps = check_scenario(model, x0, inputs, disturbances, horizon, dt)
    n, m_nodes = model.n_x, model.M
    starts = []
    for gains, z0 in observers:
        _check_dimensions(model, graph, gains)
        z0 = np.zeros(m_nodes * n) if z0 is None else np.asarray(z0, dtype=float)
        if z0.size != m_nodes * n:
            raise DimensionError(f"z0 has {z0.size} entries, expected M*n_x = {m_nodes * n}")
        starts.append((gains, z0.reshape(m_nodes * n)))
    if not starts:
        return
    t = np.arange(n_steps + 1) * dt
    table = tabulate(gens, n_steps, dt)
    x = rk4_linear(model.A, np.hstack([model.B, model.E_dist]),
                   [Tabulated(column, 0.5 * dt) for column in table.T], x0, n_steps, dt)
    for gains, z0 in starts:
        yield t, x, table, gains, z0


def _estimate_chunks(model: PlantModel, graph: SensorGraph, gains: DuioGains, z0,
                     x: np.ndarray, table: np.ndarray, dt: float):
    """One network's pass: yield its estimates and error norms chunk by chunk,
    (first row, estimates (rows, node * state), norms (rows, node)).

    Each chunk of observer states from ``rk4_chunks`` becomes xhat_i = z_i +
    H_i C_i x, written over it, and the error norms while it is in cache.
    Both are views of buffers that the next chunk overwrites.  The error
    buffer first takes x once per node, by a product with the 0/1 matrix
    [I ... I], which is exact for finite x since every other term is a
    signed zero; xhat - x is then one contiguous subtraction, and each
    node's squared errors are added state by state, in state order.
    """
    n, m_nodes = model.n_x, model.M
    a_cl, g_cl = _closed_loop(model, graph, gains)
    # (state, node * state): node i's columns are (H_i C_i)^T in out_map, I in copies
    out_map = np.hstack([(h @ node.C).T for h, node in zip(gains.H, model.nodes)])
    copies = np.tile(np.eye(n), m_nodes)
    size = min(x.shape[0], DRIVE_ROWS)
    buf = None
    for r0, z in rk4_chunks(a_cl, g_cl, table, x, z0, dt):
        if buf is None:
            # made once the pass's first block is final, after its block starts
            buf, norms_buf = np.empty((size, m_nodes * n)), np.empty((size, m_nodes))
        r1 = r0 + z.shape[0]
        x_blk, err, norms = x[r0:r1], buf[:r1 - r0], norms_buf[:r1 - r0]
        np.matmul(x_blk, out_map, out=err)
        z += err
        # every node's error xhat_i - x, squared
        np.matmul(x_blk, copies, out=err)
        np.subtract(z, err, out=err)
        err *= err
        squares = err.reshape(-1, m_nodes, n)
        np.add(squares[:, :, 0], squares[:, :, 1] if n > 1 else 0.0, out=norms)
        for s in range(2, n):
            norms += squares[:, :, s]
        np.sqrt(norms, out=norms)
        yield r0, z, norms


def _spread_rows(xhat: np.ndarray, out: np.ndarray) -> None:
    """Write to ``out`` the largest distance between two nodes' estimates in
    each row of ``xhat`` (rows, node, state), one chunk of a pass.

    Each pair's differences are held as (state, time), so that their
    squares are added state by state, in state order.
    """
    rows, m_nodes, n = xhat.shape
    est = np.ascontiguousarray(xhat.transpose(1, 2, 0))
    far = np.zeros(rows)
    diff = np.empty((n, rows))
    for i in range(m_nodes - 1):
        for j in range(i + 1, m_nodes):
            np.subtract(est[j], est[i], out=diff)
            diff *= diff
            np.maximum(far, diff.sum(axis=0), out=far)
    np.sqrt(far, out=out)


def error_dynamics_matrix(gains: DuioGains, graph: SensorGraph) -> tuple[np.ndarray, float]:
    """The coupled error matrix ``gains.error_matrix`` on ``graph``, and its abscissa.

    The abscissa is read from the matrix's leader and follower blocks
    (``coupled_abscissa``); the matrix itself is not decomposed.
    """
    return gains.error_matrix(graph.laplacian), coupled_abscissa(gains, graph).abscissa


@dataclass(frozen=True)
class DecouplingReport:
    """Residuals of the three decoupling identities, one row per node."""

    input_residuals: np.ndarray
    unknown_residuals: np.ndarray
    state_residuals: np.ndarray

    @property
    def max_residual(self) -> float:
        return float(max(self.input_residuals.max(), self.unknown_residuals.max(),
                         self.state_residuals.max()))

    def to_json_dict(self) -> dict:
        return {
            "input_residuals": self.input_residuals.tolist(),
            "unknown_residuals": self.unknown_residuals.tolist(),
            "state_residuals": self.state_residuals.tolist(),
            "max_residual": self.max_residual,
        }


def verify_decoupling(model: PlantModel, gains: DuioGains) -> DecouplingReport:
    """Check, against a known model, that the error dynamics are decoupled.

    Residuals per node: the input gain identity F = (I - H C) B_m, the
    unknown-input annihilation (I - H C) B_p = 0, and the state identity
    (I - H C) A - E (I - H C) - L C = 0.
    """
    if gains.M != model.M:
        raise DimensionError(f"gains have {gains.M} nodes, model has {model.M}")
    eye = np.eye(model.n_x)
    res_in, res_unk, res_state = [], [], []
    for i, node in enumerate(model.nodes):
        ihc = eye - gains.H[i] @ node.C
        res_in.append(np.linalg.norm(gains.F[i] - ihc @ node.B_m))
        res_unk.append(np.linalg.norm(ihc @ node.B_p))
        res_state.append(np.linalg.norm(
            ihc @ model.A - gains.E_obs[i] @ ihc - gains.L[i] @ node.C))
    return DecouplingReport(input_residuals=np.array(res_in),
                            unknown_residuals=np.array(res_unk),
                            state_residuals=np.array(res_state))


@contextlib.contextmanager
def xhat_writer(out_dir: str):
    """A binary file for ``run``'s ``xhat_file``, which becomes
    ``out_dir``/xhat.npy when the block exits cleanly.

    Until then it has a temporary name.  On an exception it is removed,
    and so is each directory this made for it that is still empty, so a
    failed run leaves nothing behind.
    """
    made, path = [], os.path.abspath(out_dir)
    while not os.path.isdir(path):
        made.append(path)
        path = os.path.dirname(path)
    os.makedirs(out_dir, exist_ok=True)
    part = os.path.join(out_dir, ".xhat.npy.part")
    try:
        with open(part, "wb") as fh:
            yield fh
        os.replace(part, os.path.join(out_dir, "xhat.npy"))
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(part)
        for path in made:
            with contextlib.suppress(OSError):
                os.rmdir(path)
        raise


def export_run(result: RunResult, out_dir: str, extra_summary: dict | None = None) -> None:
    """Write each dense field of ``result`` as ``<field>.npy``, and summary.json.

    ``t`` (T,), ``x`` (T, n_x), ``error_norms`` (T, M) and ``spread`` (T,)
    are saved as bit-exact float64 arrays; ``xhat.npy`` is ``run``'s own
    (``xhat_writer``).  The ``.npy`` header holds no timestamp, so reruns
    are byte-identical.
    """
    os.makedirs(out_dir, exist_ok=True)
    for name in ("t", "x", "error_norms", "spread"):
        np.save(os.path.join(out_dir, f"{name}.npy"), getattr(result, name),
                allow_pickle=False)
    summary = result.summary()
    if extra_summary:
        summary.update(extra_summary)
    write_json(os.path.join(out_dir, "summary.json"), summary)
