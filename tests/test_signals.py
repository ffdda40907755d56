"""Vectorized signal sampling against pointwise evaluation."""
import math

import numpy as np
import pytest

from dduio.signals import (MAX_SAMPLES, AutonomousLinear, PiecewiseConstantRandom, Sinusoid,
                           Tabulated, Zero)


def pointwise_index(t, hold):
    """The scalar held-value index rule, evaluated one time at a time."""
    return max(int(np.floor(t / hold * (1.0 + 1e-12) + 1e-9)), 0)


@pytest.mark.parametrize("hold", [1e-3, 0.1, 0.07, 2.5])
def test_piecewise_sample_is_bit_identical_at_hold_boundaries(hold):
    boundaries = np.arange(200) * hold
    ts = np.concatenate([np.nextafter(boundaries, -np.inf), boundaries,
                         np.nextafter(boundaries, np.inf)])
    ts = np.concatenate([ts, [-hold, -0.0]])
    gen = PiecewiseConstantRandom(-1.0, 1.0, hold, 11)
    sampled = gen.sample(ts)
    pointwise = np.array([gen.value(float(t)) for t in ts])
    assert np.array_equal(sampled, pointwise)
    reference = PiecewiseConstantRandom(-1.0, 1.0, hold, 11)
    reference._ensure(250)
    assert np.array_equal(sampled, reference._values[[pointwise_index(float(t), hold)
                                                      for t in ts]])


def test_piecewise_sample_on_the_rk4_stage_grid():
    dt = 1e-3
    n_steps = 5000
    t = np.arange(n_steps) * dt
    gen = PiecewiseConstantRandom(-0.1, 0.1, dt, 7)
    for offset in (0.0, 0.5 * dt, dt):
        stage = t + offset
        pointwise = np.array([gen.value(j * dt + offset) for j in range(n_steps)])
        assert np.array_equal(gen.sample(stage), pointwise)
    # Consecutive stage grids: the k4 time of step j reads hold index j + 1.
    assert np.array_equal(gen.sample(t + dt)[:-1], gen.sample(t)[1:])


@pytest.mark.parametrize("gen", [
    Zero(),
    Sinusoid(0.3, 2.1, 0.4),
    AutonomousLinear([[-0.2]], [0.8]),
    AutonomousLinear([[0.0, 1.5], [-1.5, -0.1]], [1.0, -0.5], component=1),
    PiecewiseConstantRandom(-2.0, 3.0, 0.05, 3),
], ids=["zero", "sinusoid", "autonomous-scalar", "autonomous-oscillator",
        "piecewise-constant-random"])
def test_sample_matches_value(gen):
    ts = np.linspace(0.0, 12.0, 1201)
    sampled = gen.sample(ts)
    pointwise = np.array([gen.value(float(t)) for t in ts])
    np.testing.assert_allclose(sampled, pointwise, rtol=1e-15, atol=0.0)


def test_autonomous_signal_takes_complex_exponentials_only_for_complex_modes():
    ts = np.linspace(0.0, 12.0, 1201)

    def complex_formula(gen):
        return np.real(np.exp(np.outer(ts, gen._lam)) @ gen._modes)
    # real eigenvalues and modes: real exponentials, equal to rounding
    decay = AutonomousLinear([[-0.2, 0.1], [0.0, -0.7]], [0.8, -0.3])
    np.testing.assert_allclose(decay.sample(ts), complex_formula(decay), rtol=1e-15, atol=0.0)
    # an oscillator keeps the complex formula bit for bit
    oscillator = AutonomousLinear([[0.0, 1.5], [-1.5, -0.1]], [1.0, -0.5], component=1)
    assert oscillator.sample(ts).tobytes() == complex_formula(oscillator).tobytes()


@pytest.mark.parametrize("build, match", [
    (lambda: AutonomousLinear([[-1.0]], [1.0], component=3),
     r"component must be an integer in \[0, 1\), got 3"),
    (lambda: AutonomousLinear([[-1.0, 0.0], [0.0, -2.0]], [1.0, 1.0], component=-1),
     r"component must be an integer in \[0, 2\), got -1"),
    (lambda: AutonomousLinear([[-1.0, 0.0], [0.0, -2.0]], [1.0, 1.0], component=1.0),
     r"component must be an integer in \[0, 2\), got 1.0"),
    (lambda: PiecewiseConstantRandom(1.0, -1.0, 0.1, 0),
     r"^low 1.0 exceeds high -1.0$"),
    (lambda: PiecewiseConstantRandom(-1.0, float("inf"), 0.1, 0),
     r"^high must be a finite number, got inf$"),
    (lambda: PiecewiseConstantRandom(-1.0, 1.0, float("nan"), 0),
     r"^hold must be a finite number > 0, got nan$"),
    # evaluated through its eigenvectors, this one would read 0 at t = 1 (true value 2)
    (lambda: AutonomousLinear([[0, 1], [0, 0]], [1, 1]),
     r"^transition must be diagonalizable, but its eigenvector matrix has condition number"),
    (lambda: AutonomousLinear([[np.inf]], [1.0]), r"^transition must be finite"),
    (lambda: AutonomousLinear([[1, 2], [3]], [1.0]), r"^transition: not a numeric matrix"),
    (lambda: AutonomousLinear([[-1.0, 0.0], [0.0, -2.0]], [[1.0], [1.0]]),
     r"^initial must be 2 numbers"),
    (lambda: AutonomousLinear([[np.log(0.5)]], [np.nan]), r"^initial must be finite, got \[nan\]$"),
    (lambda: AutonomousLinear([[-1.0, 0.0], [0.0, -2.0]], [1.0, -np.inf]),
     r"^initial must be finite, got \[1\.0, -inf\]$"),
    (lambda: PiecewiseConstantRandom(-1.0, 1.0, "0.1", 0),
     r"^hold must be a finite number > 0, got '0.1'$"),
    (lambda: PiecewiseConstantRandom(-1.0, 1.0, True, 0),
     r"^hold must be a finite number > 0, got True$"),
    (lambda: PiecewiseConstantRandom("-1", 1.0, 0.1, 0), r"^low must be a finite number, got '-1'$"),
    (lambda: PiecewiseConstantRandom(-1.0, 10 ** 400, 0.1, 0), r"^high must be a finite number"),
], ids=["component-too-large", "component-negative", "component-float", "low-above-high",
        "infinite-high", "nan-hold", "defective-transition", "infinite-transition",
        "ragged-transition", "initial-column", "nan-initial", "infinite-initial", "text-hold",
        "bool-hold", "text-low", "huge-integer-high"])
def test_generators_refuse_bad_arguments_when_built(build, match):
    # refused by name at construction, not at the first sample or value
    with pytest.raises(ValueError, match=match):
        build()


@pytest.mark.parametrize("low, high", [(0.0, -0.0), (-0.0, 0.0), (-0.0, -0.0)])
def test_signed_zero_bounds_read_as_zero(low, high):
    # numpy's uniform refuses high = -0.0 above low = 0.0 as "high - low < 0"
    gen = PiecewiseConstantRandom(low, high, 0.1, 3)
    assert math.copysign(1.0, gen.low) == math.copysign(1.0, gen.high) == 1.0
    assert gen.sample(np.linspace(0.0, 1.0, 11)).tolist() == [0.0] * 11


@pytest.mark.parametrize("hold, t", [(1e-300, 1.0), (1.0, MAX_SAMPLES + 1.0), (1.0, np.nan)],
                         ids=["tiny-hold", "past", "nan"])
def test_a_time_past_the_held_value_ceiling_is_refused_before_any_draw(hold, t):
    # unchecked, the index cast warns and the draw fails with a bare IndexError
    gen = PiecewiseConstantRandom(-0.1, 0.1, hold, 0)
    with pytest.raises(ValueError, match=rf"^hold {hold!r} reaches held value .*, "
                                         rf"past {MAX_SAMPLES}$"):
        gen.sample(np.array([0.0, t]))
    with pytest.raises(ValueError, match="past"):
        gen.value(t)
    assert gen._values.size == 0


def test_tabulated_replays_its_grid_and_refuses_other_times():
    step = 5e-4
    gen = Sinusoid(0.3, 2.1, 0.4)
    table = Tabulated(gen.sample(np.arange(81) * step), step)
    # RK4 stage times of step 2 * step, computed as the integrator does
    t = np.arange(40) * (2 * step)
    for offset in (0.0, step, 2 * step):
        np.testing.assert_allclose(table.sample(t + offset), gen.sample(t + offset),
                                   rtol=0, atol=1e-15)
    assert table.value(0.01) == table.values[20]
    for bad in ([0.3 * step], [-step], [-0.25 * step]):
        with pytest.raises(ValueError, match="off its grid"):
            table.sample(np.array(bad))
