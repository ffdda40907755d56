"""Fixed-step classical Runge-Kutta integration of forced linear ODEs.

For x' = a x + g s(t) with constant (a, g), one RK4 step is exactly the
affine map x+ = Phi x + W0 g s(t) + Wh g s(t + dt/2) + W1 g s(t + dt),
with Phi and the W's polynomials in dt * a.  Every stage time is a point
m * dt/2 of the half-step grid, so the forcing is a table of that grid,
each signal sampled once (``tabulate``), and step j's stages are its rows
2j, 2j + 1 and 2j + 2.

The recurrence runs in STRIDE-step blocks, in two passes, and every row
is final the first time it is written.  Pass 1 solves the block start
states: each whole block's coarse drive sum_s Phi**(STRIDE-1-s) d_s is
three products on reshaped views of the table (and of the upper rows,
below) with gains stacked from Phi's powers, and the coarse recurrence
y_{b+1} = Phi**STRIDE y_b + c_b is solved by the same scheme, level by
level.  Pass 2 writes the rows DRIVE_ROWS steps to a chunk.  A chunk's
blocks are held step-in-block-major, as STRIDE contiguous (blocks, state)
slabs: their drives are one product of the stage rows with the stacked
gain [(W0 g)^T; (Wh g)^T; (W1 g)^T], Horner-summed slab by slab from the
blocks' start states, one contiguous product and add per step, and one
transposed copy writes them out.  The chunk is then checked for
divergence and handed on (``rk4_chunks``) while it is still in cache:
chunks start every DRIVE_ROWS rows from row 0, and the last one also
holds the final row, so no chunk of a pass that takes a step has one row.
The steps past a chunk's or a level's last whole block (all of them when
Phi**STRIDE is not finite) make one more block of one row, seeded from
the row before them and summed the same way.

When a is block lower triangular, [[a_xx, 0], [a_zx, a_zz]], so are Phi
and every W, and the lower rows advance alone given the upper rows'
trajectory: z+ = Phi_zz z + Phi_zx x + (W g)_z s (``rk4_lower_block``);
the coupling Phi_zx x joins both passes' products as one more stacked
block.
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


def tabulate(generators, n_steps: int, dt: float) -> np.ndarray:
    """Each generator sampled once on the half-step grid k * dt/2, one column each.

    Row 2j holds s(t_j), row 2j + 1 s(t_j + dt/2): every stage time of
    n_steps RK4 steps is a row.
    """
    t = np.arange(2 * n_steps + 1) * (0.5 * dt)
    table = np.empty((t.size, len(generators)))
    for column, gen in enumerate(generators):
        table[:, column] = gen.sample(t)
    return table


def _powers(phi: np.ndarray) -> np.ndarray | None:
    """Phi**0 ... Phi**STRIDE stacked; None if one is not finite, since
    inf * 0 = nan could poison rows that a plain step keeps finite."""
    powers = np.empty((STRIDE + 1,) + phi.shape)
    powers[0], powers[1] = np.eye(phi.shape[0]), phi
    for p in range(2, STRIDE + 1):
        np.matmul(powers[p - 1], phi, out=powers[p])
    return powers if np.isfinite(powers).all() else None


def _horner(slabs: np.ndarray, seed: np.ndarray, phi: np.ndarray) -> None:
    """Slab s of ``slabs`` (steps, blocks, d), every block's drive of step s,
    becomes the state after step s of blocks that start from ``seed``'s rows;
    every step of the integrator is taken here."""
    phi_t = np.ascontiguousarray(phi.T)
    tmp = np.empty(seed.shape)
    prev = seed
    for slab in slabs:
        np.dot(prev, phi_t, out=tmp)
        slab += tmp
        prev = slab


def _solve(states: np.ndarray, phi: np.ndarray) -> None:
    """Turn states[1:] from drives d_j into states x_{j+1} = phi x_j + d_j.

    Each STRIDE steps' coarse drive is one reshaped product with the stacked
    powers, the coarse recurrence is solved alike, and every block is then
    carried from its start by a seeded Horner pass; so are the steps past
    the last whole block, from the row before them.
    """
    n, d = states.shape[0] - 1, states.shape[1]
    powers = _powers(phi) if n >= STRIDE else None
    n_blocks = n // STRIDE if powers is not None else 0
    m = n_blocks * STRIDE
    if n_blocks:
        blocks = states[1:1 + m].reshape(n_blocks, STRIDE, d)
        # step s of a block is carried to the block's end by phi**(STRIDE-1-s)
        carry = powers[STRIDE - 1::-1].transpose(0, 2, 1).reshape(STRIDE * d, d)
        starts = np.empty((n_blocks + 1, d))
        starts[0] = states[0]
        np.matmul(blocks.reshape(n_blocks, -1), carry, out=starts[1:])
        _solve(starts, powers[STRIDE])
        slabs = np.ascontiguousarray(blocks.transpose(1, 0, 2))
        _horner(slabs, starts[:-1], phi)
        blocks[:] = slabs.transpose(1, 0, 2)
    _horner(states[m + 1:, None], states[m:m + 1], phi)


def _block_starts(phi, phi_zx, stage_gains, table, upper, x0, n_steps):
    """Pass 1: the states at every STRIDE-th step, (blocks + 1, d); x0 alone
    when there are fewer than STRIDE steps or Phi**STRIDE is not finite."""
    powers = _powers(phi) if n_steps >= STRIDE else None
    n_blocks, d = (n_steps // STRIDE if powers is not None else 0), phi.shape[0]
    starts = np.empty((n_blocks + 1, d))
    starts[0] = x0
    if not n_blocks:
        return starts
    w0g, whg, w1g = stage_gains
    carry = powers[STRIDE - 1::-1]
    # A block's table rows 2s carry W0 g of its step s and W1 g of step s - 1
    # to the block's end, rows 2s + 1 Wh g of step s; the next block's first
    # row carries the W1 g of its last step.
    gain = np.empty((2 * STRIDE,) + w0g.shape)
    gain[0::2] = np.matmul(carry, w0g)
    gain[2::2] += np.matmul(carry[:-1], w1g)
    gain[1::2] = np.matmul(carry, whg)
    m = n_blocks * STRIDE
    np.matmul(table[:2 * m].reshape(n_blocks, -1), gain.transpose(0, 2, 1).reshape(-1, d),
              out=starts[1:])
    starts[1:] += table[2 * STRIDE:2 * m + 1:2 * STRIDE] @ w1g.T
    if phi_zx.size:
        coupling = np.matmul(carry, phi_zx).transpose(0, 2, 1).reshape(-1, d)
        starts[1:] += upper[:m].reshape(n_blocks, -1) @ coupling
    _solve(starts, powers[STRIDE])
    return starts


def _check_divergence(states: np.ndarray, dt: float, offset: int) -> None:
    """Raise DivergenceError at the first row of ``states``, the states at t =
    (offset + 1) dt, (offset + 2) dt, ..., with an entry whose magnitude
    reaches DIVERGENCE_LIMIT (or is NaN)."""
    limit = DIVERGENCE_LIMIT
    # Flat max/min allocate nothing and fail the test on NaN; only a
    # run that fails it pays for the row-wise search of the first row.
    if states.size and not (states.max() < limit and -states.min() < limit):
        magnitude = np.maximum(states.max(axis=1), -states.min(axis=1))
        j = offset + int(np.flatnonzero(~(magnitude < limit))[0])
        m = magnitude[j - offset]
        t = j * dt + dt
        raise DivergenceError(
            f"state magnitude {float(m)!r} exceeded {limit:g} at t={t:.6g}", t=t)


def rk4_chunks(a, g, table: np.ndarray, upper, x0, dt: float):
    """Yield ``rk4_lower_block``'s states in blocks of DRIVE_ROWS rows from row
    0, the last one with the final row too, as (first row, rows), each as
    soon as it is final.

    Pass 2 finishes DRIVE_ROWS steps at a time and checks them for
    divergence; their rows, led by the row before them, then make one
    block, a view of one buffer that the next block overwrites.  A caller
    may write over a block it has been handed: the pass never reads it
    again.
    """
    if g.shape[1] != table.shape[1]:
        raise DimensionError(
            f"{table.shape[1]} forcing signals for the {g.shape[1]} columns of g")
    n_steps = (table.shape[0] - 1) // 2
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if upper is None:
        upper = np.empty((n_steps + 1, 0))
    k, d = upper.shape[1], x0.size
    table = np.ascontiguousarray(table)
    # step j's stage rows 2j, 2j + 1 and 2j + 2 lie side by side in memory:
    # a window of three rows, every other row
    stages = np.ndarray((n_steps, 3 * table.shape[1]), table.dtype, table,
                        strides=(2 * table.strides[0], table.itemsize))
    with np.errstate(over="ignore", invalid="ignore"):
        phi, weights = _propagator(np.asarray(a, dtype=float), dt)
        phi_zz, phi_zx = np.ascontiguousarray(phi[k:, k:]), phi[k:, :k]
        stage_gains = [w[k:] @ g for w in weights]
        starts = _block_starts(phi_zz, phi_zx, stage_gains, table, upper, x0, n_steps)
    # a step's drive: [x_j, stage rows of step j] @ gain
    gain = np.vstack([phi_zx.T] + [s.T for s in stage_gains])
    width = gain.shape[0]
    size = min(DRIVE_ROWS, n_steps)
    left_buf = np.empty(size * width)
    sums_buf = np.empty(size * d)
    # one chunk's rows, led by the row before them
    buf = np.empty((size + 1, d))
    buf[0] = x0
    # zero steps make one chunk, x0's row
    for i in range(0, max(n_steps, 1), DRIVE_ROWS):
        j = min(i + DRIVE_ROWS, n_steps)
        if i:
            buf[0] = buf[DRIVE_ROWS]
        rows = buf[:1 + j - i]
        # the chunk's whole blocks, none without pass 1's starts: the first
        # starts from the chunk's lead row, the others from pass 1's
        m = (j - i) // STRIDE * STRIDE if len(starts) > 1 else 0
        b0 = i // STRIDE
        rows[STRIDE:m:STRIDE] = starts[b0 + 1:b0 + m // STRIDE]
        with np.errstate(over="ignore", invalid="ignore"):
            # the whole blocks, then the steps past them as one more block,
            # led by the row before them
            for r0, r1, steps in ((0, m, STRIDE), (m, j - i, j - i - m)):
                if r0 == r1:
                    continue
                n, nb = r1 - r0, (r1 - r0) // steps
                # slab s holds step s of every block: [x_j, stage rows of step j]
                left = left_buf[:n * width].reshape(steps, nb, width)
                left[..., :k] = upper[i + r0:i + r1].reshape(nb, steps, k).transpose(1, 0, 2)
                left[..., k:] = stages[i + r0:i + r1].reshape(nb, steps, -1).transpose(1, 0, 2)
                sums = sums_buf[:n * d].reshape(steps, nb, d)
                np.dot(left.reshape(n, width), gain, out=sums.reshape(n, d))
                _horner(sums, rows[r0:r1:steps], phi_zz)
                rows[1 + r0:1 + r1].reshape(nb, steps, d)[:] = sums.transpose(1, 0, 2)
            _check_divergence(rows[1:], dt, i)
        # rows i ... j are final; row j leads the next block, or ends the last
        yield i, rows if j == n_steps else rows[:-1]


def rk4_linear(a: np.ndarray, g: np.ndarray, generators, x0: np.ndarray,
               n_steps: int, dt: float) -> np.ndarray:
    """Integrate x' = a x + g s(t) with s(t) stacked from ``generators``.

    Returns states at the n_steps + 1 grid points j * dt.  Forcing is
    evaluated at the stage times (t, t + dt/2, t + dt), so smooth signals
    retain the full fourth-order accuracy of the method; each generator is
    sampled once, over the whole half-step grid (``tabulate``).
    """
    return rk4_lower_block(a, g, tabulate(generators, n_steps, dt), None, x0, dt)


def rk4_lower_block(a: np.ndarray, g: np.ndarray, table: np.ndarray, upper,
                    lower0: np.ndarray, dt: float) -> np.ndarray:
    """The lower rows of ``rk4_linear`` for a block lower-triangular ``a``.

    ``upper`` holds the first rows' states at every grid point, as
    ``rk4_linear`` returns them, and ``table`` the forcing from
    ``tabulate``.  Returns the remaining rows' states from ``lower0``;
    they equal rk4_linear's to rounding, since one RK4 step of such a
    system is block lower triangular too.  An ``upper`` of None means no
    upper rows: the whole system, as ``rk4_linear`` integrates it.  Each
    chunk of ``rk4_chunks`` is copied into one (n_steps + 1, d) array.
    """
    out = np.empty(((table.shape[0] + 1) // 2, np.size(lower0)))
    for r0, rows in rk4_chunks(a, g, table, upper, lower0, dt):
        out[r0:r0 + rows.shape[0]] = rows
    return out
