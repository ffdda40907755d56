"""Fixed-step classical Runge-Kutta integration of forced linear ODEs.

For x' = a x + g s(t) with constant (a, g), one RK4 step is exactly the
affine map x+ = Phi x + W0 g s(t) + Wh g s(t + dt/2) + W1 g s(t + dt),
with Phi and the W's polynomials in dt * a.  Every stage time is a point
m * dt/2 of the half-step grid, so the forcing is read as rows of that
grid: sampled block by block with vectorized ``sample`` calls, or sliced
from a table sampled once (``tabulate``).  Each DRIVE_ROWS-step block of
drives is one product of the block's stage rows with the stacked gain
[(W0 g)^T; (Wh g)^T; (W1 g)^T].  The recurrence runs in STRIDE-step
blocks; the coarse recurrence over the blocks, with Phi**STRIDE, is
solved the same way, level by level, and every block's start state is
carried into its rows by one product with the stacked powers Phi**1 ...
Phi**(STRIDE - 1) per chunk of blocks.

When a is block lower triangular, [[a_xx, 0], [a_zx, a_zz]], so are Phi
and every W, and the lower rows advance alone given the upper rows'
trajectory: z+ = Phi_zz z + Phi_zx x + (W g)_z s (``rk4_lower_block``);
the coupling Phi_zx x joins the drive product as one more stacked block.
"""
from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import DimensionError, DivergenceError

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


def _half_step_samples(generators, m0: int, m1: int, dt: float) -> np.ndarray:
    """Each generator sampled at m * dt/2 for m0 <= m < m1, one column each."""
    t = np.arange(m0, m1) * (0.5 * dt)
    table = np.empty((t.size, len(generators)))
    for column, gen in enumerate(generators):
        table[:, column] = gen.sample(t)
    return table


def tabulate(generators, n_steps: int, dt: float) -> np.ndarray:
    """Each generator sampled once on the half-step grid k * dt/2, one column each.

    Row 2j holds s(t_j), row 2j + 1 s(t_j + dt/2): every stage time of
    n_steps RK4 steps is a row.
    """
    return _half_step_samples(generators, 0, 2 * n_steps + 1, dt)


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
            # Row k - 1 of a block adds the block's start state carried k steps:
            # one product per chunk with [Phi**1 ... Phi**(S-1)]^T side by side.
            carry = np.hstack([p.T for p in powers[:STRIDE - 1]])
            chunk = DRIVE_ROWS // STRIDE
            for b0 in range(0, n_blocks, chunk):
                b1 = min(b0 + chunk, n_blocks)
                starts = out[b0 * STRIDE:b1 * STRIDE:STRIDE]
                blocks[b0:b1, :STRIDE - 1] += (starts @ carry).reshape(b1 - b0, STRIDE - 1, -1)
            done = n_blocks * STRIDE
    for j in range(done, n_steps):
        out[j + 1] += phi @ out[j]


def _check_divergence(states: np.ndarray, dt: float) -> None:
    """Raise DivergenceError at the first row of ``states``, the states at t = dt,
    2 dt, ..., with an entry whose magnitude reaches DIVERGENCE_LIMIT (or is NaN)."""
    limit = DIVERGENCE_LIMIT
    # Flat max/min allocate nothing and fail the test on NaN; only a
    # run that fails it pays for the row-wise search of the first row.
    if states.size and not (states.max() < limit and -states.min() < limit):
        magnitude = np.maximum(states.max(axis=1), -states.min(axis=1))
        j = int(np.flatnonzero(~(magnitude < limit))[0])
        m = magnitude[j]
        t = j * dt + dt
        raise DivergenceError(
            f"state magnitude {float(m)!r} exceeded {limit:g} at t={t:.6g}", t=t)


def _check_forcing(g: np.ndarray, count: int) -> None:
    """One forcing signal per column of ``g``."""
    if g.shape[1] != count:
        raise DimensionError(f"{count} forcing signals for the {g.shape[1]} columns of g")


def _integrate(a, g, half_rows, upper, x0, n_steps: int, dt: float):
    """States from ``x0`` of the rows of x' = a x + g s(t) below ``upper``'s.

    ``upper`` holds the first rows' states at every grid point (None: no
    such rows).  ``half_rows(i, k)`` gives the forcing at the half-step
    times m * dt/2, 2i <= m <= 2k, so step j's stages t_j, t_j + dt/2 and
    t_j + dt are its rows 2j, 2j + 1 and 2j + 2.  Works in blocks of
    DRIVE_ROWS steps, each one product written straight into ``out``, so
    no temporary grows with n_steps and a run's peak memory stays that of
    its output array.
    """
    k = 0 if upper is None else upper.shape[1]
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    out = np.empty((n_steps + 1, x0.size))
    out[0] = x0
    with np.errstate(over="ignore", invalid="ignore"):
        phi, weights = _propagator(np.asarray(a, dtype=float), dt)
        # out[j + 1] starts as the drive Phi_zx x_j + sum over stages of (W g)_z s
        gain = np.vstack([phi[k:, :k].T] + [(w[k:] @ g).T for w in weights])
        for i in range(0, n_steps, DRIVE_ROWS):
            j = min(i + DRIVE_ROWS, n_steps)
            rows = np.ascontiguousarray(half_rows(i, j))
            # step j's stage rows 2j, 2j + 1 and 2j + 2 lie side by side in
            # memory: a read-only window of three rows, every other row
            stages = as_strided(rows, (j - i, 3 * g.shape[1]),
                                (2 * rows.strides[0], rows.itemsize), writeable=False)
            np.matmul(np.hstack([stages] if upper is None else [upper[i:j], stages]), gain,
                      out=out[1 + i:1 + j])
        _recur(out, np.ascontiguousarray(phi[k:, k:]), n_steps)
        _check_divergence(out[1:], dt)
    return out


def rk4_linear(a: np.ndarray, g: np.ndarray, generators, x0: np.ndarray,
               n_steps: int, dt: float) -> np.ndarray:
    """Integrate x' = a x + g s(t) with s(t) stacked from ``generators``.

    Returns states at the n_steps + 1 grid points j * dt.  Forcing is
    evaluated at the stage times (t, t + dt/2, t + dt), so smooth signals
    retain the full fourth-order accuracy of the method.
    """
    _check_forcing(g, len(generators))

    def half_rows(i, k):
        return _half_step_samples(generators, 2 * i, 2 * k + 1, dt)
    return _integrate(a, g, half_rows, None, x0, n_steps, dt)


def rk4_lower_block(a: np.ndarray, g: np.ndarray, table: np.ndarray, upper: np.ndarray,
                    lower0: np.ndarray, dt: float) -> np.ndarray:
    """The lower rows of ``rk4_linear`` for a block lower-triangular ``a``.

    ``upper`` holds the first rows' states at every grid point, as
    ``rk4_linear`` returns them, and ``table`` the forcing from
    ``tabulate``.  Returns the remaining rows' states from ``lower0``;
    they equal rk4_linear's to rounding, since one RK4 step of such a
    system is block lower triangular too.
    """
    _check_forcing(g, table.shape[1])

    def half_rows(i, k):
        return table[2 * i:2 * k + 1]
    return _integrate(a, g, half_rows, upper, lower0, upper.shape[0] - 1, dt)
