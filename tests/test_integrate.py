"""The strided one-step-propagator integrator against a stage-by-stage RK4."""
import re
import warnings

import numpy as np
import pytest

from dduio import integrate
from dduio.config import parse_config
from dduio.design_model import build_model_based_gains
from dduio.errors import DimensionError, DivergenceError
from dduio.observer_sim import _closed_loop, error_dynamics_matrix
from dduio.signals import PiecewiseConstantRandom, Sinusoid, Zero

from conftest import simulate_error_dynamics

TOL = 1e-10
DIVERGENCE_MESSAGE = re.compile(r"state magnitude (\S+) exceeded (\S+) at t=(\S+)")


def rk4_stage_loop(a, g, generators, x0, n_steps, dt):
    """Classical RK4, four stages per step, forcing read at the stage times."""
    divergence_limit = integrate.DIVERGENCE_LIMIT
    x = np.asarray(x0, dtype=float).copy()
    out = np.empty((n_steps + 1, x.size))
    out[0] = x
    forced = g.size > 0 and len(generators) > 0
    half = 0.5 * dt
    sixth = dt / 6.0
    for j in range(n_steps):
        t0 = j * dt
        if forced:
            f0 = g @ np.array([gen.value(t0) for gen in generators])
            fh = g @ np.array([gen.value(t0 + half) for gen in generators])
            f1 = g @ np.array([gen.value(t0 + dt) for gen in generators])
        else:
            f0 = fh = f1 = 0.0
        k1 = a @ x + f0
        k2 = a @ (x + half * k1) + fh
        k3 = a @ (x + half * k2) + fh
        k4 = a @ (x + dt * k3) + f1
        x = x + sixth * (k1 + 2.0 * (k2 + k3) + k4)
        m = np.abs(x).max()
        if not (m < divergence_limit):
            raise DivergenceError(
                f"state magnitude {float(m)!r} exceeded {divergence_limit:g} at t={t0 + dt:.6g}",
                t=t0 + dt)
        out[j + 1] = x
    return out


def assert_agrees(x, x_ref):
    assert x.shape == x_ref.shape
    assert np.abs(x - x_ref).max() <= TOL * max(1.0, np.abs(x_ref).max())


@pytest.fixture(scope="module")
def preset_loop():
    cfg = parse_config({})
    model, graph = cfg.build_model(), cfg.build_graph()
    gains = build_model_based_gains(model, graph)
    a_cl, g_cl = _closed_loop(model, graph, gains)
    x0 = np.concatenate([cfg.draw_x0(3), np.zeros(model.M * model.n_x)])
    return cfg, graph, gains, a_cl, g_cl, x0


def test_preset_closed_loop_with_hold_equal_to_dt(preset_loop):
    cfg, _, _, a_cl, g_cl, x0 = preset_loop
    dt = cfg.run.dt

    def signals():
        return cfg.build_inputs(3) + cfg.build_disturbances(3)

    assert signals()[-1].hold == dt
    n_steps = 3000
    x = integrate.rk4_linear(a_cl, g_cl, signals(), x0, n_steps, dt)
    assert_agrees(x, rk4_stage_loop(a_cl, g_cl, signals(), x0, n_steps, dt))


# The fill runs in chunks of DRIVE_ROWS // STRIDE blocks: one step short of a
# chunk, one over it, and a second chunk with a tail past the last block.
CHUNK_STRADDLES = [integrate.DRIVE_ROWS - 1, integrate.DRIVE_ROWS + 1,
                   2 * integrate.DRIVE_ROWS + integrate.STRIDE + 3]


# 255: the coarse steps are one seeded tail block; 256, 257: one level of
# recursion, with and without a tail; 4099: three levels and a tail at the
# finest.
@pytest.mark.parametrize("n_steps", [16 * 7 + 5, 16 * 3, 1, 15, 255, 256, 257, 4099,
                                     *CHUNK_STRADDLES])
def test_step_counts_off_the_stride(n_steps):
    rng = np.random.default_rng(n_steps)
    a = rng.normal(size=(6, 6)) - 3.0 * np.eye(6)
    g = rng.normal(size=(6, 2))
    gens = [Sinusoid(1.0, 3.0, 0.2), PiecewiseConstantRandom(-1.0, 1.0, 0.07, 4)]
    x0 = rng.normal(size=6)
    dt = 0.01
    assert_agrees(integrate.rk4_linear(a, g, gens, x0, n_steps, dt),
                  rk4_stage_loop(a, g, gens, x0, n_steps, dt))


def test_unforced_error_dynamics(preset_loop):
    _, graph, gains, *_ = preset_loop
    m, _ = error_dynamics_matrix(gains, graph)
    e0 = np.random.default_rng(8).uniform(-1.0, 1.0, m.shape[0])
    t, e = simulate_error_dynamics(gains, graph, e0, horizon=2.0, dt=1e-3)
    assert t.size == 2001
    assert_agrees(e, rk4_stage_loop(m, np.zeros((m.shape[0], 0)), [], e0, 2000, 1e-3))


def test_divergence_raises_at_the_oracle_time(monkeypatch):
    monkeypatch.setattr(integrate, "DIVERGENCE_LIMIT", 1e6)
    a = np.array([[3.0, 1.0], [0.0, 2.0]])
    g = np.array([[1.0], [0.5]])
    gens = [Sinusoid(1.0, 2.0)]
    args = (a, g, gens, np.array([1.0, -1.0]), 1000, 1e-2)
    with pytest.raises(DivergenceError) as ref:
        rk4_stage_loop(*args)
    with pytest.raises(DivergenceError) as err:
        integrate.rk4_linear(*args)
    assert err.value.t == ref.value.t
    # the whole message: a plain float magnitude (equal to rounding), limit and time
    got, want = (DIVERGENCE_MESSAGE.fullmatch(str(e.value)).groups() for e in (err, ref))
    assert float(got[0]) == pytest.approx(float(want[0]), rel=TOL, abs=0)
    assert got[1:] == want[1:] == ("1e+06", "4.96")


def test_negative_divergence_raises_at_the_oracle_time(monkeypatch):
    monkeypatch.setattr(integrate, "DIVERGENCE_LIMIT", 1e6)
    args = (np.array([[2.0]]), np.zeros((1, 0)), [], np.array([-1.0]), 1000, 1e-2)
    with pytest.raises(DivergenceError) as ref:
        rk4_stage_loop(*args)
    with pytest.raises(DivergenceError) as err:
        integrate.rk4_linear(*args)
    assert err.value.t == ref.value.t


def test_unexcited_unstable_mode_stays_unexcited():
    # Phi**256 of the unstable mode overflows; the stable mode's exact zeros
    # must not meet it as inf * 0 = nan
    a = np.diag([-1.0, 50.0])
    x0 = np.array([1.0, 0.0])
    x = integrate.rk4_linear(a, np.zeros((2, 0)), [], x0, 4099, 0.1)
    assert not x[:, 1].any()
    assert_agrees(x, rk4_stage_loop(a, np.zeros((2, 0)), [], x0, 4099, 0.1))


def test_overflow_raises_without_warning(monkeypatch):
    monkeypatch.setattr(integrate, "DIVERGENCE_LIMIT", np.inf)
    # at 1e300 the step's own propagator overflows, before any state does
    for entry in (400.0, 1e300):
        with np.errstate(all="raise"):
            with pytest.raises(DivergenceError) as err:
                integrate.rk4_linear(np.array([[entry]]), np.zeros((1, 0)), [], np.ones(1),
                                     5000, 1.0)
        assert err.value.t > 0.0


class Spike:
    """sin(t), except the value ``bad`` at the single grid time ``at``."""

    def __init__(self, at, bad, dt):
        self.at, self.bad, self.dt = at, bad, dt

    def sample(self, t):
        t = np.asarray(t, dtype=float)
        return np.where(np.abs(t - self.at) < 0.25 * self.dt, self.bad, np.sin(t))

    def value(self, t):
        return float(self.sample(t))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_row_raises_at_the_oracle_time_without_warning(bad):
    rng = np.random.default_rng(11)
    a = rng.normal(size=(5, 5)) - 3.0 * np.eye(5)
    g = rng.normal(size=(5, 1))
    dt, n_steps = 0.01, 4099
    gens = [Spike(3001 * dt, bad, dt)]
    args = (a, g, gens, rng.normal(size=5), n_steps, dt)
    with pytest.raises(DivergenceError) as ref, np.errstate(all="ignore"):
        rk4_stage_loop(*args)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(all="raise"), pytest.raises(DivergenceError) as err:
            integrate.rk4_linear(*args)
    assert err.value.t == ref.value.t == pytest.approx(3001 * dt)
    assert str(err.value).split(" at ")[1] == str(ref.value).split(" at ")[1]


class Recorder:
    """sin(t), recording every time it is sampled at."""

    def __init__(self):
        self.times = []

    def sample(self, t):
        self.times.append(np.array(t, dtype=float))
        return np.sin(t)


def test_forcing_is_sampled_on_the_half_step_grid_only():
    n_steps, dt = 2 * integrate.DRIVE_ROWS + 6, 0.01
    gens = [Recorder(), Recorder()]
    integrate.rk4_linear(-np.eye(2), np.eye(2), gens, np.ones(2), n_steps, dt)
    grid = np.arange(2 * n_steps + 1) * (0.5 * dt)
    blocks = -(-n_steps // integrate.DRIVE_ROWS)
    for gen in gens:
        times = np.concatenate(gen.times)
        assert times.size <= 2 * n_steps + blocks
        assert np.array_equal(np.unique(times), grid)


def _lower_triangular_system(rng, n_upper, n_lower, spread=1.0):
    """A random stable block lower-triangular (a, g) and forcing generators;
    ``spread`` scales the random part of ``a`` around -3 I."""
    dim = n_upper + n_lower
    a = spread * rng.normal(size=(dim, dim)) - 3.0 * np.eye(dim)
    a[:n_upper, n_upper:] = 0.0
    g = rng.normal(size=(dim, 2))
    gens = [Sinusoid(1.0, 3.0, 0.2), PiecewiseConstantRandom(-1.0, 1.0, 0.07, 4)]
    return a, g, gens


@pytest.mark.parametrize("n_steps", [1, 15, 257, 2 * integrate.DRIVE_ROWS + 6])
def test_lower_block_matches_the_full_system(n_steps):
    rng = np.random.default_rng(n_steps)
    a, g, gens = _lower_triangular_system(rng, 3, 5)
    x0, dt = rng.normal(size=8), 0.01
    full = integrate.rk4_linear(a, g, gens, x0, n_steps, dt)
    table = integrate.tabulate(gens, n_steps, dt)
    assert table.shape == (2 * n_steps + 1, 2)
    lower = integrate.rk4_lower_block(a, g, table, full[:, :3], x0[3:], dt)
    assert_agrees(lower, full[:, 3:])


@pytest.mark.parametrize("n_steps", CHUNK_STRADDLES)
def test_lower_block_with_coupling_matches_the_stage_loop(n_steps):
    rng = np.random.default_rng(n_steps)
    a, g, gens = _lower_triangular_system(rng, 3, 5)
    assert np.abs(a[3:, :3]).min() > 0.0
    x0, dt = rng.normal(size=8), 0.01
    ref = rk4_stage_loop(a, g, gens, x0, n_steps, dt)
    lower = integrate.rk4_lower_block(a, g, integrate.tabulate(gens, n_steps, dt), ref[:, :3],
                                      x0[3:], dt)
    assert_agrees(lower, ref[:, 3:])


# An observer network's size: the preset's 5 nodes of 4 states below its plant.
@pytest.mark.parametrize("n_steps", CHUNK_STRADDLES)
def test_twenty_states_match_the_stage_loop_across_chunks(n_steps):
    rng = np.random.default_rng(n_steps)
    a, g, gens = _lower_triangular_system(rng, 4, 20, spread=0.2)
    x0, dt = rng.normal(size=24), 0.01
    ref = rk4_stage_loop(a, g, gens, x0, n_steps, dt)
    assert_agrees(integrate.rk4_linear(a[4:, 4:], g[4:], gens, x0[4:], n_steps, dt),
                  rk4_stage_loop(a[4:, 4:], g[4:], gens, x0[4:], n_steps, dt))
    lower = integrate.rk4_lower_block(a, g, integrate.tabulate(gens, n_steps, dt), ref[:, :4],
                                      x0[4:], dt)
    assert_agrees(lower, ref[:, 4:])


# Fewer blocks than one chunk, as a short collect of a large plant runs: the
# chunk buffers are sized to the run's blocks; the second also takes a
# coarse level.
@pytest.mark.parametrize("n_steps", [16 * 3 + 5, 16 * 17 + 5])
def test_a_run_shorter_than_one_chunk_matches_the_stage_loop(n_steps):
    rng = np.random.default_rng(n_steps)
    a = 0.2 * rng.normal(size=(32, 32)) - 3.0 * np.eye(32)
    g = rng.normal(size=(32, 2))
    gens = [Sinusoid(1.0, 3.0, 0.2), PiecewiseConstantRandom(-1.0, 1.0, 0.07, 4)]
    x0, dt = rng.normal(size=32), 0.01
    assert_agrees(integrate.rk4_linear(a, g, gens, x0, n_steps, dt),
                  rk4_stage_loop(a, g, gens, x0, n_steps, dt))


def test_lower_block_divergence_raises_at_the_full_system_time(monkeypatch):
    rng = np.random.default_rng(2)
    a, g, gens = _lower_triangular_system(rng, 2, 3)
    a[2:, 2:] += 4.0 * np.eye(3)
    x0, dt, n_steps = rng.normal(size=5), 0.01, 4099
    upper = integrate.rk4_linear(a[:2, :2], g[:2], gens, x0[:2], n_steps, dt)
    monkeypatch.setattr(integrate, "DIVERGENCE_LIMIT", 1e6)
    with pytest.raises(DivergenceError) as ref:
        integrate.rk4_linear(a, g, gens, x0, n_steps, dt)
    with pytest.raises(DivergenceError) as err:
        integrate.rk4_lower_block(a, g, integrate.tabulate(gens, n_steps, dt), upper,
                                  x0[2:], dt)
    assert err.value.t == ref.value.t


@pytest.mark.parametrize("gens", [[Zero()], []])
def test_generator_count_must_match_the_columns_of_g(gens):
    with pytest.raises(DimensionError, match=f"^{len(gens)} forcing signals for the 2 "):
        integrate.rk4_linear(-np.eye(2), np.ones((2, 2)), gens, np.ones(2), 3, 0.1)


def test_lower_block_table_width_must_match_the_columns_of_g():
    rng = np.random.default_rng(3)
    a, g, gens = _lower_triangular_system(rng, 2, 3)
    upper = integrate.rk4_linear(a[:2, :2], g[:2], gens, np.ones(2), 3, 0.1)
    table = integrate.tabulate(gens[:1], 3, 0.1)
    with pytest.raises(DimensionError, match="^1 forcing signals for the 2 columns of g$"):
        integrate.rk4_lower_block(a, g, table, upper, np.ones(3), 0.1)


# Pass 1 solves the block starts level by level: 15 blocks make one seeded
# tail block at the coarse level; 256 blocks take two coarse levels, the
# second of exactly STRIDE coarse steps.
@pytest.mark.parametrize("n_steps", [16 * 15 + 7, 16 * 256])
def test_coarse_levels_match_the_stage_loop(n_steps):
    rng = np.random.default_rng(n_steps)
    a, g, gens = _lower_triangular_system(rng, 3, 5)
    x0, dt = rng.normal(size=8), 0.01
    ref = rk4_stage_loop(a, g, gens, x0, n_steps, dt)
    assert_agrees(integrate.rk4_linear(a, g, gens, x0, n_steps, dt), ref)
    lower = integrate.rk4_lower_block(a, g, integrate.tabulate(gens, n_steps, dt), ref[:, :3],
                                      x0[3:], dt)
    assert_agrees(lower, ref[:, 3:])


def test_divergence_in_a_later_chunk_raises_at_the_oracle_time(monkeypatch):
    monkeypatch.setattr(integrate, "DIVERGENCE_LIMIT", 1e6)
    rng = np.random.default_rng(4)
    a, g, gens = _lower_triangular_system(rng, 2, 3, spread=0.1)
    a[2:, 2:] += 3.5 * np.eye(3)
    x0, dt, n_steps = rng.normal(size=5), 0.01, 2 * integrate.DRIVE_ROWS + 6
    with pytest.raises(DivergenceError) as ref:
        rk4_stage_loop(a, g, gens, x0, n_steps, dt)
    # the first bad row lies in the second chunk, past whole chunks of blocks
    assert integrate.DRIVE_ROWS < round(ref.value.t / dt) < 2 * integrate.DRIVE_ROWS
    upper = rk4_stage_loop(a[:2, :2], g[:2], gens, x0[:2], n_steps, dt)
    table = integrate.tabulate(gens, n_steps, dt)
    for integrated in (lambda: integrate.rk4_linear(a, g, gens, x0, n_steps, dt),
                       lambda: integrate.rk4_lower_block(a, g, table, upper, x0[2:], dt),
                       lambda: list(integrate.rk4_chunks(a, g, table, upper, x0[2:], dt))):
        with pytest.raises(DivergenceError) as err:
            integrated()
        assert err.value.t == ref.value.t


def test_divergence_in_the_tail_raises_at_the_oracle_time(monkeypatch):
    rng = np.random.default_rng(4)
    a, g, gens = _lower_triangular_system(rng, 2, 3, spread=0.1)
    a[2:, 2:] += 3.5 * np.eye(3)
    x0, dt, n_steps = rng.normal(size=5), 0.01, 2 * integrate.DRIVE_ROWS + 6
    # the limit falls between the largest entry before row 2 DRIVE_ROWS + 3 and
    # that row's: the first bad row is the third of the 6 steps past the last
    # whole block
    bad = 2 * integrate.DRIVE_ROWS + 3
    monkeypatch.setattr(integrate, "DIVERGENCE_LIMIT", np.inf)
    magnitude = np.abs(rk4_stage_loop(a, g, gens, x0, n_steps, dt)).max(axis=1)
    assert magnitude[bad] > magnitude[:bad].max()
    monkeypatch.setattr(integrate, "DIVERGENCE_LIMIT",
                        np.sqrt(magnitude[bad] * magnitude[:bad].max()))
    with pytest.raises(DivergenceError) as ref:
        rk4_stage_loop(a, g, gens, x0, n_steps, dt)
    assert round(ref.value.t / dt) == bad
    upper = rk4_stage_loop(a[:2, :2], g[:2], gens, x0[:2], n_steps, dt)
    table = integrate.tabulate(gens, n_steps, dt)
    for integrated in (lambda: integrate.rk4_linear(a, g, gens, x0, n_steps, dt),
                       lambda: integrate.rk4_lower_block(a, g, table, upper, x0[2:], dt),
                       lambda: list(integrate.rk4_chunks(a, g, table, upper, x0[2:], dt))):
        with pytest.raises(DivergenceError) as err:
            integrated()
        assert err.value.t == ref.value.t


def test_non_finite_stride_power_steps_every_step_plainly():
    # Phi**16 of the unexcited mode overflows while Phi stays finite, so no
    # STRIDE-step block is summed: each chunk is one block of one row, seeded
    # from the row before it
    a = np.diag([-1.0, 2e6])
    g = np.array([[1.0], [0.0]])
    gens = [Sinusoid(1.0, 0.3)]
    x0, dt, n_steps = np.array([1.0, 0.0]), 0.1, 2 * integrate.DRIVE_ROWS + 6
    phi, _ = integrate._propagator(a, dt)
    with np.errstate(over="ignore"):
        assert np.isfinite(phi).all() and integrate._powers(phi) is None
    x = integrate.rk4_linear(a, g, gens, x0, n_steps, dt)
    assert not x[:, 1].any()
    assert_agrees(x, rk4_stage_loop(a, g, gens, x0, n_steps, dt))


def test_zero_steps_give_the_initial_state_alone():
    # no step is taken: x0's row is the one chunk
    a, g, gens = _lower_triangular_system(np.random.default_rng(0), 3, 5)
    x0 = np.arange(8.0)
    assert integrate.rk4_linear(a, g, gens, x0, 0, 0.01).tobytes() == x0[None].tobytes()


@pytest.mark.parametrize("n_steps", [1, 15, 255, integrate.DRIVE_ROWS, *CHUNK_STRADDLES,
                                     2 * integrate.DRIVE_ROWS])
def test_lower_block_rows_are_the_same_kept_or_handed_on(n_steps):
    rng = np.random.default_rng(n_steps)
    a, g, gens = _lower_triangular_system(rng, 3, 5)
    x0, dt = rng.normal(size=8), 0.01
    upper = integrate.rk4_linear(a[:3, :3], g[:3], gens, x0[:3], n_steps, dt)
    table = integrate.tabulate(gens, n_steps, dt)
    kept = integrate.rk4_lower_block(a, g, table, upper, x0[3:], dt)
    firsts, handed = [], []
    for first, rows, _ in integrate.rk4_chunks(a, g, table, upper, x0[3:], dt):
        firsts.append(first)
        handed.append(rows.copy())   # the next chunk overwrites the buffer
    # blocks of DRIVE_ROWS rows from row 0, the last one with the final row too
    assert firsts == list(range(0, n_steps, integrate.DRIVE_ROWS))
    assert np.vstack(handed).tobytes() == kept.tobytes()
    # rk4_lower_block copies these chunks, so only the oracle can fault them
    assert_agrees(np.vstack(handed), rk4_stage_loop(a, g, gens, x0, n_steps, dt)[:, 3:])


def _chunks_kept(chunks):
    """Each chunk of an ``rk4_chunks`` pass, copied before the next one, after
    which the pass's block and scratch are overwritten with NaN: the pass
    reads neither again."""
    kept = []
    for first, rows, scratch in chunks:
        assert scratch.size == rows.size
        kept.append((first, rows.copy()))
        rows[...] = np.nan
        scratch[...] = np.nan
    return kept


@pytest.mark.parametrize("n_steps", [1, 15, 2047, 2048, 2049, 4096])
@pytest.mark.parametrize("systems", [1, 2, 3])
def test_stacked_systems_are_each_systems_own_pass_bit_for_bit(n_steps, systems):
    # B lower blocks with their own a, g and x0 share one table, one upper
    # trajectory and one chunking; each system's rows are its own pass's
    rng = np.random.default_rng(100 * n_steps + systems)
    stack = [_lower_triangular_system(rng, 3, 5) for _ in range(systems)]
    x0s = rng.normal(size=(systems, 5))
    dt, gens = 0.01, stack[0][2]
    table = integrate.tabulate(gens, n_steps, dt)
    upper = integrate.rk4_linear(stack[0][0][:3, :3], stack[0][1][:3], gens,
                                 rng.normal(size=3), n_steps, dt)
    together = _chunks_kept(integrate.rk4_chunks(
        np.stack([a for a, _, _ in stack]), np.stack([g for _, g, _ in stack]), table, upper,
        x0s, dt))
    assert all(rows.shape[1:] == (systems, 5) for _, rows in together)
    # a stack's chunks are DRIVE_ROWS / 2**k rows, 2**k <= systems
    rows_per = integrate.DRIVE_ROWS // (2 if systems > 1 else 1)
    assert [first for first, _ in together] == list(range(0, max(n_steps, 1), rows_per))
    rows = np.vstack([rows for _, rows in together])
    for b, (a, g, _) in enumerate(stack):
        alone = _chunks_kept(integrate.rk4_chunks(a, g, table, upper, x0s[b], dt))
        assert rows[:, b].tobytes() == np.vstack([own for _, own in alone]).tobytes()


def test_stacked_system_with_a_non_finite_stride_power_steps_the_stack_plainly(monkeypatch):
    # system 1's Phi**16 overflows while its Phi stays finite, so the stack
    # steps every row plainly, from the row before it.  Excited, system 1
    # diverges at its own run's time, with its own run's message; unexcited,
    # its rows are its own run's bit for bit and system 0's agree with its
    # own run to rounding
    monkeypatch.setattr(integrate, "DIVERGENCE_LIMIT", 1e250)
    rng = np.random.default_rng(5)
    stable, g, gens = _lower_triangular_system(rng, 3, 5)
    fast = stable.copy()
    fast[3:, 3:] = np.diag([-1.0, 2e6, -2.0, -3.0, -4.0])
    dt, n_steps = 0.1, 2 * integrate.DRIVE_ROWS + 6
    phi, _ = integrate._propagator(fast[3:, 3:], dt)
    with np.errstate(over="ignore"):
        assert np.isfinite(phi).all() and integrate._powers(phi[None]) is None
    table = integrate.tabulate(gens, n_steps, dt)
    upper = integrate.rk4_linear(stable[:3, :3], g[:3], gens, np.ones(3), n_steps, dt)
    x0s = rng.normal(size=(2, 5))
    with pytest.raises(DivergenceError) as alone:
        integrate.rk4_lower_block(fast, g, table, upper, x0s[1], dt)
    with pytest.raises(DivergenceError) as together:
        list(integrate.rk4_chunks(np.stack([stable, fast]), np.stack([g, g]), table, upper,
                                  x0s, dt))
    assert 0.0 < alone.value.t < n_steps * dt
    assert together.value.t == alone.value.t
    assert str(together.value) == str(alone.value)
    # nothing drives the fast mode: no coupling, no forcing, a zero start
    quiet, g_quiet, x0s[1, 1] = fast.copy(), g.copy(), 0.0
    quiet[4, :4], quiet[4, 5:], g_quiet[4] = 0.0, 0.0, 0.0
    stacked = _chunks_kept(integrate.rk4_chunks(np.stack([stable, quiet]),
                                                np.stack([g, g_quiet]), table, upper, x0s, dt))
    rows = np.vstack([rows for _, rows in stacked])
    own = [integrate.rk4_lower_block(a, b, table, upper, z0, dt)
           for a, b, z0 in ((stable, g, x0s[0]), (quiet, g_quiet, x0s[1]))]
    assert not rows[:, 1, 1].any()
    assert rows[:, 1].tobytes() == own[1].tobytes()
    assert_agrees(rows[:, 0], own[0])
