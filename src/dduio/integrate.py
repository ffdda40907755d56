"""Fixed-step classical Runge-Kutta integration of forced linear ODEs.

For x' = a x + g s(t) with constant (a, g), one RK4 step is exactly the
affine map x+ = Phi x + W0 g s(t) + Wh g s(t + dt/2) + W1 g s(t + dt),
with Phi and the W's polynomials in dt * a.  The integrator samples the
forcing with vectorized ``sample`` calls at the three stage offsets and
runs that recurrence in STRIDE-step blocks; the coarse recurrence over
the blocks, with Phi**STRIDE, is solved the same way, level by level.
"""
from __future__ import annotations

import numpy as np

from .errors import DivergenceError

DIVERGENCE_LIMIT = 1e12
STRIDE = 16
DRIVE_ROWS = 2048


def _propagator(a: np.ndarray, dt: float):
    """Phi and the stage weights (W0, Wh, W1) of one RK4 step."""
    eye = np.eye(a.shape[0])
    ha = dt * a
    ha2 = ha @ ha
    ha3 = ha2 @ ha
    phi = eye + ha + ha2 / 2.0 + ha3 / 6.0 + ha3 @ ha / 24.0
    w0 = dt * (eye / 6.0 + ha / 6.0 + ha2 / 12.0 + ha3 / 24.0)
    wh = dt * (2.0 * eye / 3.0 + ha / 3.0 + ha2 / 12.0)
    w1 = dt / 6.0 * eye
    return phi, (w0, wh, w1)


def _accumulate_drives(out: np.ndarray, g: np.ndarray, weights, generators,
                       n_steps: int, dt: float) -> None:
    """Add d_j = sum over stages of W g s(t_j + offset) into out[j + 1].

    Works in blocks of DRIVE_ROWS steps, so no temporary grows with
    n_steps and a run's peak memory stays that of its output array.
    """
    stages = [(offset, (w @ g).T) for offset, w in zip((0.0, 0.5 * dt, dt), weights)]
    for i in range(0, n_steps, DRIVE_ROWS):
        t = np.arange(i, min(i + DRIVE_ROWS, n_steps)) * dt
        rows = out[1 + i:1 + i + t.size]
        for offset, gain in stages:
            rows += np.column_stack([gen.sample(t + offset) for gen in generators]) @ gain


def _recur(out: np.ndarray, phi: np.ndarray, n_steps: int) -> None:
    """Turn out[1:] from drives d_j into states x_{j+1} = Phi x_j + d_j.

    Horner-sums each STRIDE-step block of drives into one coarse drive,
    solves the coarse recurrence x_{(b+1)S} = Phi**S x_{bS} + c_b by the
    same routine, then fills the rows inside every block.  Recursion
    stops when fewer than STRIDE coarse steps remain, or when Phi**S is
    not finite; the remaining steps are stepped one at a time.
    """
    n_blocks = n_steps // STRIDE
    done = 0
    if n_blocks:
        powers = [phi]
        for _ in range(STRIDE - 1):
            powers.append(powers[-1] @ phi)
        phi_stride = powers[STRIDE - 1]
        # A non-finite Phi**S (inf * 0 = nan) could poison rows that a
        # plain step keeps finite, so such a level steps plainly.
        if np.isfinite(phi_stride).all():
            blocks = out[1:1 + n_blocks * STRIDE].reshape(n_blocks, STRIDE, -1)
            # Horner: row k of a block becomes the state k + 1 steps of its
            # drives reach from zero; the last row is the block's coarse drive.
            for k in range(1, STRIDE):
                blocks[:, k] += blocks[:, k - 1] @ phi.T
            # Coarse steps: the last row of every block becomes a state.
            coarse = out[0:n_blocks * STRIDE + 1:STRIDE].copy()
            _recur(coarse, phi_stride, n_blocks)
            out[STRIDE:n_blocks * STRIDE + 1:STRIDE] = coarse[1:]
            # Row k - 1 of a block adds the block's start state carried k steps.
            starts = out[0:n_blocks * STRIDE:STRIDE]
            for k in range(1, STRIDE):
                blocks[:, k - 1] += starts @ powers[k - 1].T
            done = n_blocks * STRIDE
    for j in range(done, n_steps):
        out[j + 1] += phi @ out[j]


def rk4_linear(a: np.ndarray, g: np.ndarray, generators, x0: np.ndarray,
               n_steps: int, dt: float, divergence_limit: float = DIVERGENCE_LIMIT) -> np.ndarray:
    """Integrate x' = a x + g s(t) with s(t) stacked from ``generators``.

    Returns states at the n_steps + 1 grid points j * dt.  Forcing is
    evaluated at the stage times (t, t + dt/2, t + dt), so smooth signals
    retain the full fourth-order accuracy of the method.
    """
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    out = np.zeros((n_steps + 1, x0.size))
    out[0] = x0
    phi, weights = _propagator(np.asarray(a, dtype=float), dt)
    with np.errstate(over="ignore", invalid="ignore"):
        if g.size > 0 and len(generators) > 0:
            _accumulate_drives(out, g, weights, generators, n_steps, dt)
        _recur(out, phi, n_steps)
        states = out[1:]
        # Flat max/min allocate nothing and fail the test on NaN; only a
        # run that fails it pays for the row-wise search of the first row.
        if states.size and not (states.max() < divergence_limit
                                and -states.min() < divergence_limit):
            magnitude = np.maximum(states.max(axis=1), -states.min(axis=1))
            j = int(np.flatnonzero(~(magnitude < divergence_limit))[0])
            m = magnitude[j]
            t = j * dt + dt
            raise DivergenceError(
                f"state magnitude {m!r} exceeded {divergence_limit:g} at t={t:.6g}", t=t)
    return out
