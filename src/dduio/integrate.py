"""Fixed-step classical Runge-Kutta integration of forced linear ODEs.

For x' = a x + g s(t) with constant (a, g), one RK4 step is exactly the
affine map x+ = Phi x + W0 g s(t) + Wh g s(t + dt/2) + W1 g s(t + dt),
with Phi and the W's polynomials in dt * a.  Every stage time is a point
m * dt/2 of the half-step grid, so the forcing is read as rows of that
grid: sampled block by block with vectorized ``sample`` calls, or sliced
from a table sampled once (``tabulate``).  The recurrence runs in
STRIDE-step blocks, DRIVE_ROWS steps to a chunk.  A chunk's blocks are
held step-in-block-major, as STRIDE contiguous (blocks, state) slabs:
their drives are one product of the stage rows with the stacked gain
[(W0 g)^T; (Wh g)^T; (W1 g)^T], written straight into the slabs, and
they are Horner-summed slab by slab, one contiguous product and add per
step, before one transposed copy writes them into the output.  The
coarse recurrence over the blocks, with Phi**STRIDE, is summed by the
same Horner routine and solved level by level, and every block's start
state is carried into its rows by one product with the stacked powers
Phi**1 ... Phi**(STRIDE - 1) per chunk of blocks.

When a is block lower triangular, [[a_xx, 0], [a_zx, a_zz]], so are Phi
and every W, and the lower rows advance alone given the upper rows'
trajectory: z+ = Phi_zz z + Phi_zx x + (W g)_z s (``rk4_lower_block``);
the coupling Phi_zx x joins the drive product as one more stacked block.
"""
from __future__ import annotations

import numpy as np

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


def _level(phi: np.ndarray, n_steps: int) -> tuple[list, int]:
    """Phi**1 ... Phi**STRIDE, and the STRIDE-step blocks a level of n_steps
    steps is solved in.  Fewer than STRIDE steps are stepped plainly, with
    Phi alone; so is a level whose Phi**STRIDE is not finite, since
    inf * 0 = nan could poison rows that a plain step keeps finite."""
    if n_steps < STRIDE:
        return [phi], 0
    powers = [phi]
    for _ in range(STRIDE - 1):
        powers.append(powers[-1] @ phi)
    return powers, n_steps // STRIDE if np.isfinite(powers[-1]).all() else 0


def _horner(slabs: np.ndarray, phi: np.ndarray) -> None:
    """Slab s of ``slabs`` (STRIDE, blocks, d), every block's drive of step s,
    becomes the state its first s + 1 drives reach from zero; the last slab
    holds the blocks' coarse drives."""
    phi_t = np.ascontiguousarray(phi.T)
    tmp = np.empty_like(slabs[0])
    steps = list(slabs)
    for prev, slab in zip(steps, steps[1:]):
        np.dot(prev, phi_t, out=tmp)
        slab += tmp


def _recur(out: np.ndarray, powers: list, n_steps: int, n_blocks: int) -> None:
    """Turn out[1:] from drives d_j into states x_{j+1} = Phi x_j + d_j.

    ``powers`` and ``n_blocks`` are ``_level``'s, and the first n_blocks
    STRIDE-step blocks of drives arrive Horner-summed (``_horner``).  The
    coarse recurrence x_{(b+1)S} = Phi**S x_{bS} + c_b over the blocks is
    summed and solved by the same routines, then every block's start state
    is carried into its rows.  The steps past the last block are stepped
    one at a time.
    """
    phi = powers[0]
    if n_blocks:
        # Coarse steps: the last row of every block becomes a state.
        coarse = out[0:n_blocks * STRIDE + 1:STRIDE].copy()
        coarse_powers, n_coarse = _level(powers[-1], n_blocks)
        if n_coarse:
            rows = coarse[1:1 + n_coarse * STRIDE].reshape(n_coarse, STRIDE, -1)
            slabs = np.ascontiguousarray(rows.transpose(1, 0, 2))
            _horner(slabs, coarse_powers[0])
            rows[:] = slabs.transpose(1, 0, 2)
        _recur(coarse, coarse_powers, n_blocks, n_coarse)
        out[STRIDE:n_blocks * STRIDE + 1:STRIDE] = coarse[1:]
        # Row k - 1 of a block adds the block's start state carried k steps:
        # one product per chunk with [Phi**1 ... Phi**(S-1)]^T side by side.
        blocks = out[1:1 + n_blocks * STRIDE].reshape(n_blocks, STRIDE, -1)
        carry = np.hstack([p.T for p in powers[:STRIDE - 1]])
        chunk = min(DRIVE_ROWS // STRIDE, n_blocks)
        carried = np.empty((chunk, carry.shape[1]))
        for b0 in range(0, n_blocks, chunk):
            b1 = min(b0 + chunk, n_blocks)
            starts = out[b0 * STRIDE:b1 * STRIDE:STRIDE]
            np.matmul(starts, carry, out=carried[:b1 - b0])
            blocks[b0:b1, :STRIDE - 1] += carried[:b1 - b0].reshape(b1 - b0, STRIDE - 1, -1)
    for j in range(n_blocks * STRIDE, n_steps):
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
    t_j + dt are its rows 2j, 2j + 1 and 2j + 2.  Works in chunks of
    DRIVE_ROWS steps.  A chunk's whole STRIDE-step blocks are held
    step-in-block-major, (STRIDE, blocks, state), in buffers sized to one
    chunk or to the run's blocks if fewer: their drives are one product,
    Horner-summed slab by slab, then copied into ``out`` in one transposed
    pass; the drives past the last block are one product written straight
    into ``out``.  No temporary grows with n_steps, so a run's peak memory
    stays that of its output.
    """
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if upper is None:
        upper = np.empty((n_steps + 1, 0))
    k, d = upper.shape[1], x0.size
    out = np.empty((n_steps + 1, d))
    out[0] = x0
    with np.errstate(over="ignore", invalid="ignore"):
        phi, weights = _propagator(np.asarray(a, dtype=float), dt)
        powers, n_blocks = _level(np.ascontiguousarray(phi[k:, k:]), n_steps)
        # out[j + 1] starts as the drive Phi_zx x_j + sum over stages of (W g)_z s
        gain = np.vstack([phi[k:, :k].T] + [(w[k:] @ g).T for w in weights])
        width = gain.shape[0]
        chunk = min(DRIVE_ROWS // STRIDE, n_blocks)
        left_buf = np.empty(STRIDE * chunk * width)
        sums_buf = np.empty(STRIDE * chunk * d)
        for i in range(0, n_steps, DRIVE_ROWS):
            j = min(i + DRIVE_ROWS, n_steps)
            rows = np.ascontiguousarray(half_rows(i, j))
            # step j's stage rows 2j, 2j + 1 and 2j + 2 lie side by side in
            # memory: a window of three rows, every other row
            stages = np.ndarray((j - i, 3 * g.shape[1]), rows.dtype, rows,
                                strides=(2 * rows.strides[0], rows.itemsize))
            nb = (j - i) // STRIDE if n_blocks else 0
            m = nb * STRIDE
            if nb:
                # slab s holds step s of every block: [x_j, stage rows of step j]
                left = left_buf[:m * width].reshape(STRIDE, nb, width)
                left[..., :k] = upper[i:i + m].reshape(nb, STRIDE, k).transpose(1, 0, 2)
                left[..., k:] = stages[:m].reshape(nb, STRIDE, -1).transpose(1, 0, 2)
                sums = sums_buf[:m * d].reshape(STRIDE, nb, d)
                np.dot(left.reshape(m, width), gain, out=sums.reshape(m, d))
                _horner(sums, powers[0])
                out[1 + i:1 + i + m].reshape(nb, STRIDE, d)[:] = sums.transpose(1, 0, 2)
            if i + m < j:
                np.dot(np.hstack([upper[i + m:j], stages[m:]]), gain, out=out[1 + i + m:1 + j])
        _recur(out, powers, n_steps, n_blocks)
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
