"""Offline data collection per node and the data-richness checks.

A dataset holds sampled known inputs, outputs, output derivatives,
states, and state derivatives, one column per sample.  The ground-truth
unknown-input samples are retained for validation oracles only; the
design path must never read them (see ``NodeDataset.design_view``).
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace

import numpy as np

from ._csvio import read_csv, write_csv, write_json
from .errors import DimensionError, DuioError, ExcitationError, OracleUnavailableError
from .linalg import Rank, decide_rank, numerical_rank
from .plant import PlantModel, node_unknown_input, simulate
from .signals import PiecewiseConstantRandom

MAX_ATTEMPTS = 8


@dataclass(frozen=True)
class DataSection:
    """Offline collection settings, the configuration's ``data`` section."""

    N: int = 50
    sample_interval: float = 0.1
    substeps: int = 20
    restarts: int = 1
    jitter: bool = False
    u_amplitude: float = 1.0
    d_amplitude: float = 0.1
    noise_amplitude: float = 0.0


@dataclass(frozen=True)
class NodeDataset:
    """Offline data matrices for one node, channel-major (dim x N)."""

    U: np.ndarray
    Y: np.ndarray
    Ydot: np.ndarray
    X: np.ndarray
    Xdot: np.ndarray
    sample_times: np.ndarray
    W_validation: np.ndarray | None = None
    node_index: int = 0
    seed: int | None = None

    def __post_init__(self):
        n = self.X.shape[1]
        for name in ("U", "Y", "Ydot", "X", "Xdot"):
            m = getattr(self, name)
            if m.ndim != 2 or m.shape[1] != n:
                raise DimensionError(f"{name} must have one column per sample ({n})")
        if self.Y.shape != self.Ydot.shape or self.X.shape != self.Xdot.shape:
            raise DimensionError("Y/Ydot and X/Xdot must have matching shapes")
        if len(self.sample_times) != n:
            raise DimensionError("one sample time per column is required")

    @property
    def N(self) -> int:
        return self.X.shape[1]

    @property
    def n_m(self) -> int:
        return self.U.shape[0]

    @property
    def n_y(self) -> int:
        return self.Y.shape[0]

    @property
    def n_x(self) -> int:
        return self.X.shape[0]

    def design_view(self) -> "NodeDataset":
        """Copy without the ground-truth unknown-input samples."""
        return replace(self, W_validation=None)


def check_excitation_rank(ds: NodeDataset, multiplier: float | None = None) -> Rank:
    """The rank decision on the stacked [U; W; X] data matrix, whose n_m + r + n_x
    rows the excitation must span.

    This is a generation-time oracle: it needs the ground-truth unknown
    inputs, which the design path never sees.
    """
    if ds.W_validation is None:
        raise OracleUnavailableError(
            "rank check needs W_validation; it is absent from this dataset")
    return decide_rank(np.vstack([ds.U, ds.W_validation, ds.X]), multiplier)


def check_compatibility(ds: NodeDataset, sample, tol: float = 1e-8) -> tuple[bool, float]:
    """Membership of one online sample in the span of the offline data.

    ``sample`` is the tuple (u_i, y_i, ydot_i, x, xdot).  The residual is
    the norm of the least-squares projection error, relative to the
    sample norm (floored at one).  For data collected from the true
    plant, every genuine online sample of that plant must pass.
    """
    u, y, ydot, x, xdot = (np.asarray(v, dtype=float).reshape(-1) for v in sample)
    stack = np.vstack([ds.U, ds.Y, ds.Ydot, ds.X, ds.Xdot])
    v = np.concatenate([u, y, ydot, x, xdot])
    if v.size != stack.shape[0]:
        raise DimensionError(f"sample has {v.size} entries, dataset rows {stack.shape[0]}")
    coeff, *_ = np.linalg.lstsq(stack, v, rcond=None)
    residual = float(np.linalg.norm(v - stack @ coeff) / max(np.linalg.norm(v), 1.0))
    return residual < tol, residual


def _default_excitation(model: PlantModel, data: DataSection, seeds) -> tuple[list, list]:
    hold, u_amp, d_amp = data.sample_interval, data.u_amplitude, data.d_amplitude
    inputs = [PiecewiseConstantRandom(-u_amp, u_amp, hold, seeds[k]) for k in range(model.n_u)]
    dist = [PiecewiseConstantRandom(-d_amp, d_amp, hold, seeds[model.n_u + k])
            for k in range(model.n_d)]
    return inputs, dist


def _deficient_block(ds: NodeDataset, multiplier) -> str:
    r = ds.W_validation.shape[0]
    if numerical_rank(ds.U, multiplier) < ds.n_m:
        return "known-input rows U"
    if numerical_rank(np.vstack([ds.U, ds.W_validation]), multiplier) < ds.n_m + r:
        return "unknown-input rows W"
    return "state rows X"


def collect(model: PlantModel, i: int, data: DataSection, *, seed: int,
            rank_multiplier: float | None = None) -> NodeDataset:
    """Collect ``data.N`` offline samples for node ``i`` from simulated trajectories.

    Samples come from ``data.restarts`` trajectory segments, each with a
    fresh random initial state, uniform in [-1, 1], and its own excitation
    draws; the excitation holds independent uniform values, within
    ``data.u_amplitude`` and ``data.d_amplitude``, on every input and
    disturbance channel over each sampling interval.  With ``data.jitter``
    the samples fall at random grid instants instead of the uniform grid;
    ``data.noise_amplitude`` adds uniform output noise on Y and Ydot, for
    robustness experiments only.  Up to MAX_ATTEMPTS attempts, each with fresh draws, are made
    until the stacked [U; W; X] matrix reaches full row rank.
    """
    N, restarts, substeps = data.N, data.restarts, data.substeps
    if not 0 <= i < model.M:
        raise IndexError(f"node index {i} out of range for M={model.M}")
    node = model.nodes[i]
    n_min = node.n_m + node.r + model.n_x
    if N < n_min:
        raise ExcitationError(
            f"node {i}: N={N} is below n_m + r + n_x = {n_min}; "
            "the excitation rank condition cannot hold")
    if restarts < 1 or restarts > N:
        raise DimensionError("restarts must be between 1 and N")

    dt = data.sample_interval / substeps
    per_seg = [N // restarts + (1 if k < N % restarts else 0) for k in range(restarts)]
    channels = model.n_u + model.n_d
    last = None
    for attempt in range(MAX_ATTEMPTS):
        ss = np.random.SeedSequence([int(seed), int(i), attempt])
        children = ss.spawn(3 + restarts * channels)
        rng_x0 = np.random.default_rng(children[0])
        rng_pick = np.random.default_rng(children[1])
        rng_noise = np.random.default_rng(children[2])
        picks = []
        for k, n_k in enumerate(per_seg):
            # every segment restarts at t = 0, so each draws its own excitation
            inputs, dist = _default_excitation(
                model, data, children[3 + k * channels:3 + (k + 1) * channels])
            grid = 2 * n_k * substeps if data.jitter else n_k * substeps
            traj = simulate(model, rng_x0.uniform(-1.0, 1.0, model.n_x), inputs, dist,
                            horizon=grid * dt, dt=dt)
            if data.jitter:
                idx = np.sort(rng_pick.choice(grid + 1, size=n_k, replace=False))
            else:
                idx = np.arange(n_k) * substeps
            picks.append((traj.t[idx], traj.x[idx], traj.xdot[idx], traj.u[idx], traj.d[idx]))
        t, x, xdot, u, d = (np.concatenate(rows) for rows in zip(*picks))
        Y = (x @ node.C.T).T
        Ydot = (xdot @ node.C.T).T
        noise = data.noise_amplitude
        if noise > 0:
            Y = Y + rng_noise.uniform(-noise, noise, Y.shape)
            Ydot = Ydot + rng_noise.uniform(-noise, noise, Ydot.shape)
        ds = NodeDataset(U=u[:, list(node.known_input_indices)].T, Y=Y, Ydot=Ydot,
                         X=x.T, Xdot=xdot.T,
                         W_validation=node_unknown_input(model, i, u, d).T,
                         sample_times=t, node_index=i, seed=int(seed))
        if check_excitation_rank(ds, rank_multiplier).rank == n_min:
            return ds
        last = ds
    raise ExcitationError(
        f"node {i}: data remain rank-deficient after {MAX_ATTEMPTS} attempts; "
        f"deficient block: {_deficient_block(last, rank_multiplier)}")


_FILES = ("U", "Y", "Ydot", "X", "Xdot")
_PREFIX = {"U": "u", "Y": "y", "Ydot": "ydot", "X": "x", "Xdot": "xdot"}


def save_dataset(ds: NodeDataset, out_dir: str) -> None:
    """Serialize to CSV files plus a JSON sidecar (W is never written)."""
    os.makedirs(out_dir, exist_ok=True)
    for name in _FILES:
        m = getattr(ds, name)
        header = [f"{_PREFIX[name]}{k + 1}" for k in range(m.shape[0])]
        write_csv(os.path.join(out_dir, f"{name}.csv"), header, m.T)
    write_csv(os.path.join(out_dir, "times.csv"), ["t"], ds.sample_times.reshape(-1, 1))
    meta = {"N": ds.N, "n_m": ds.n_m, "n_x": ds.n_x, "n_y": ds.n_y,
            "node_index": ds.node_index, "seed": ds.seed}
    write_json(os.path.join(out_dir, "meta.json"), meta)


def _check_meta(meta) -> None:
    """Every count and the node index are nonnegative integers; so is the seed, or null."""
    for key in ("N", "n_m", "n_x", "n_y", "node_index", "seed"):
        value = meta[key]
        if key == "seed" and value is None:
            continue
        if isinstance(value, bool) or not isinstance(value, int) or value < 0:
            raise TypeError(f"{key!r} must be a nonnegative integer, got {value!r}")


def load_dataset(data_dir: str) -> NodeDataset:
    """Inverse of ``save_dataset``; a malformed file is a DuioError naming it.

    Every entry must be finite: a NaN or infinity is malformed.  Files that
    disagree on the sample count, with each other or with ``meta.json``'s
    ``N``, are a DimensionError naming the directory.
    """
    path = os.path.join(data_dir, "meta.json")
    try:
        with open(path) as fh:
            meta = json.load(fh)
        _check_meta(meta)
        dims = {"U": meta["n_m"], "Y": meta["n_y"], "Ydot": meta["n_y"],
                "X": meta["n_x"], "Xdot": meta["n_x"], "times": 1}
        node_index, seed = meta["node_index"], meta["seed"]
        arrays = {}
        for name in (*_FILES, "times"):
            path = os.path.join(data_dir, f"{name}.csv")
            table = read_csv(path, dims[name])
            bad = np.argwhere(~np.isfinite(table))
            if bad.size:
                r, c = bad[0]
                raise ValueError(f"data row {r + 1}, column {c + 1} is {table[r, c]}")
            arrays[name] = table.T
    except KeyError as exc:
        raise DuioError(f"dataset file {path} is missing the key {exc.args[0]!r}") from None
    except (TypeError, ValueError) as exc:
        raise DuioError(f"dataset file {path} is malformed: {exc}") from None
    try:
        ds = NodeDataset(U=arrays["U"], Y=arrays["Y"], Ydot=arrays["Ydot"],
                         X=arrays["X"], Xdot=arrays["Xdot"],
                         sample_times=arrays["times"].ravel(), W_validation=None,
                         node_index=node_index, seed=seed)
        if ds.N != meta["N"]:
            raise DimensionError(f"meta.json has N={meta['N']}, the files hold {ds.N} samples")
    except DimensionError as exc:
        raise DimensionError(f"dataset {data_dir}: {exc}") from None
    return ds
