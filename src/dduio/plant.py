"""Ground-truth continuous-time LTI plant and its per-node views.

The plant is x' = A x + B u + E d.  Each sensor node sees only a subset
of the input channels; the remaining input channels together with the
disturbance form that node's unknown input.  A node may rescale its
unknown input columns (the rescaled column and the reciprocally rescaled
signal describe the same physics), so per-node splits stay exactly
consistent with the global trajectory.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NumericsError, RankError
from .integrate import rk4_lower_block, tabulate
from .linalg import numerical_rank
from .signals import MAX_SAMPLES


@dataclass(frozen=True)
class NodeView:
    """One sensor node's output map and input split."""

    C: np.ndarray
    B_m: np.ndarray
    B_p: np.ndarray
    known_input_indices: tuple[int, ...]
    unknown_input_scales: np.ndarray

    @property
    def n_y(self) -> int:
        return self.C.shape[0]

    @property
    def n_m(self) -> int:
        return self.B_m.shape[1]

    @property
    def r(self) -> int:
        return self.B_p.shape[1]


@dataclass(frozen=True)
class PlantModel:
    """The plant and its node views; build it with ``assemble``, which checks both."""

    A: np.ndarray
    B: np.ndarray
    E_dist: np.ndarray
    nodes: tuple[NodeView, ...]

    @property
    def n_x(self) -> int:
        return self.A.shape[0]

    @property
    def n_u(self) -> int:
        return self.B.shape[1]

    @property
    def n_d(self) -> int:
        return self.E_dist.shape[1]

    @property
    def M(self) -> int:
        return len(self.nodes)

    @staticmethod
    def assemble(A, B, E_dist, node_specs) -> "PlantModel":
        """Build a model from per-node (C, known_input_indices, unknown_scales).

        ``unknown_scales`` rescales the node's view of each unknown input
        column of B (None: all ones); disturbance columns are never
        rescaled.  A 1-D ``E_dist`` is one disturbance column, an empty
        one none.  Every shape is checked before anything is stacked, every
        entry must be finite, and every node's B_p must have full column rank.
        """
        A, B, E_dist = (np.asarray(m, dtype=float) for m in (A, B, E_dist))
        if E_dist.size == 0:
            E_dist = E_dist.reshape(A.shape[:1] + (0,))
        elif E_dist.ndim == 1:
            E_dist = E_dist.reshape(-1, 1)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise DimensionError(f"A must be a square matrix, got shape {A.shape}")
        for name, m in (("B", B), ("E", E_dist)):
            if m.ndim != 2 or m.shape[0] != A.shape[0]:
                raise DimensionError(f"{name} must be a matrix with {A.shape[0]} rows, "
                                     f"got shape {m.shape}")
        for name, m in (("A", A), ("B", B), ("E", E_dist)):
            _require_finite(m, name)
        n_x, n_u = B.shape
        nodes = []
        for i, (C, known, scales) in enumerate(node_specs):
            C = np.asarray(C, dtype=float)
            if C.ndim != 2 or C.shape[1] != n_x:
                raise DimensionError(f"nodes[{i}].C must be a matrix with {n_x} columns, "
                                     f"got shape {C.shape}")
            _require_finite(C, f"nodes[{i}].C")
            if not (isinstance(known, (list, tuple))
                    and all(isinstance(k, (int, np.integer)) and not isinstance(k, bool)
                            and 0 <= k < n_u for k in known)
                    and len(set(known)) == len(known)):
                raise DimensionError(f"nodes[{i}].known_input_indices must be distinct "
                                     f"integers in [0, {n_u}), got {known!r}")
            known = tuple(int(k) for k in known)
            unknown = tuple(k for k in range(n_u) if k not in known)
            scales = np.ones(len(unknown)) if scales is None else np.asarray(scales, dtype=float)
            if scales.shape != (len(unknown),) or np.any(scales == 0.0):
                raise DimensionError(f"nodes[{i}].unknown_scales must be {len(unknown)} "
                                     f"nonzero numbers, got {scales.tolist()!r}")
            _require_finite(scales, f"nodes[{i}].unknown_scales")
            B_p = np.hstack([B[:, unknown] * scales, E_dist])
            if B_p.shape[1] and numerical_rank(B_p) < B_p.shape[1]:
                raise RankError(f"nodes[{i}].B_p must have full column rank {B_p.shape[1]}")
            nodes.append(NodeView(C=C, B_m=B[:, known], B_p=B_p, known_input_indices=known,
                                  unknown_input_scales=scales))
        if not nodes:
            raise DimensionError("nodes must hold at least one sensor node")
        return PlantModel(A=A, B=B, E_dist=E_dist, nodes=tuple(nodes))


def _require_finite(m: np.ndarray, name: str) -> None:
    if not np.isfinite(m).all():
        raise NumericsError(f"{name} has a non-finite entry")


def node_unknown_input(model: PlantModel, i: int, u: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Node i's unknown input w_i = [u_unknown / scales; d], time-major."""
    node = model.nodes[i]
    unknown = [k for k in range(model.n_u) if k not in node.known_input_indices]
    u = np.atleast_2d(u)
    d = np.atleast_2d(d)
    u_unk = u[:, unknown] / node.unknown_input_scales if unknown else u[:, :0]
    return np.hstack([u_unk, d])


@dataclass(frozen=True)
class Trajectory:
    """Sampled trajectory with exact derivative data.

    All arrays are time-major.  Derivatives are right-hand-side
    evaluations at the sample instants, not finite differences.
    """

    t: np.ndarray
    x: np.ndarray
    xdot: np.ndarray
    u: np.ndarray
    d: np.ndarray


def step_count(horizon: float, dt: float) -> int:
    """round(horizon / dt); a DimensionError unless 0 < dt <= horizon < inf and
    horizon <= MAX_SAMPLES * dt, compared before dividing so that none overflows.
    The message gives both as ``repr``, which formats any real number."""
    if not (0 < dt <= horizon < math.inf and horizon <= MAX_SAMPLES * dt):
        raise DimensionError(f"need 0 < dt <= horizon < inf and at most {MAX_SAMPLES} steps, "
                             f"got dt={dt!r}, horizon={horizon!r}")
    return int(round(horizon / dt))


def check_scenario(model: PlantModel, x0, inputs, disturbances, horizon: float,
                   dt: float) -> tuple[np.ndarray, list, int]:
    """Refuse a scenario unless ``step_count`` takes (horizon, dt), ``x0`` has n_x entries,
    and there is a generator per column of B (``inputs``) and of E (``disturbances``).
    Returns x0 flat, the generators stacked inputs first, and the step count."""
    n_steps = step_count(horizon, dt)
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if x0.size != model.n_x:
        raise DimensionError(f"x0 has length {x0.size}, expected {model.n_x}")
    if len(inputs) != model.n_u:
        raise DimensionError(f"need {model.n_u} input generators, got {len(inputs)}")
    if len(disturbances) != model.n_d:
        raise DimensionError(f"need {model.n_d} disturbance generators, got {len(disturbances)}")
    return x0, list(inputs) + list(disturbances), n_steps


def simulate(model: PlantModel, x0, inputs, disturbances, horizon: float,
             dt: float) -> Trajectory:
    """Integrate the plant with classical fixed-step RK4 after ``check_scenario``.

    Sample instants are j * dt for j = 0 .. round(horizon / dt).  The signals
    are tabulated once on RK4's half-step grid, as ``rk4_linear`` samples
    them; u and d are its even rows, the grid points.
    """
    x0, gens, n_steps = check_scenario(model, x0, inputs, disturbances, horizon, dt)
    table = tabulate(gens, n_steps, dt)
    x = rk4_lower_block(model.A, np.hstack([model.B, model.E_dist]), table, None, x0, dt)

    t = np.arange(n_steps + 1) * dt
    u, d = table[::2, :model.n_u], table[::2, model.n_u:]
    xdot = x @ model.A.T + u @ model.B.T + d @ model.E_dist.T
    return Trajectory(t=t, x=x, xdot=xdot, u=u, d=d)
