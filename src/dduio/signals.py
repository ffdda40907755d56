"""Deterministic scalar signal generators for inputs and disturbances.

Every generator is a pure function of time given its parameters (and
seed, for the random kind), so repeated evaluation in any order yields
identical values.
"""
from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass, field

import numpy as np

# The most steps a run takes, and the largest held-value index a
# PiecewiseConstantRandom draws: 10**8 floats are 0.8 GB
MAX_SAMPLES = 10 ** 8


def float_array(value, name: str) -> np.ndarray:
    """``value`` as a float array; else a ValueError naming it ``name``."""
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name}: not a numeric matrix: {exc}") from exc


def is_finite_number(value) -> bool:
    """A real number, not a bool, of magnitude at most the largest float."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)  # exact: an int past a float's range fails


def transition_modes(transition) -> tuple:
    """``transition`` as a finite, square, diagonalizable matrix, with its eigenvalues
    and eigenvectors; else a ValueError naming the fault."""
    m = np.atleast_2d(float_array(transition, "transition"))
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"transition must be a square matrix, got {transition!r}")
    if not np.isfinite(m).all():
        raise ValueError(f"transition must be finite, got {transition!r}")
    lam, vec = np.linalg.eig(m)
    cond = np.linalg.cond(vec)
    if not cond < np.finfo(float).eps ** -0.5:
        raise ValueError(f"transition must be diagonalizable, but its eigenvector "
                         f"matrix has condition number {cond:.3g}")
    return m, lam, vec


def held_index(ts, hold: float):
    """Index of the value held at each time, refused with a ValueError past MAX_SAMPLES."""
    # Nudge guards against sample times landing epsilon below a boundary.
    k = np.maximum(np.floor(ts / hold * (1.0 + 1e-12) + 1e-9), 0.0)
    top = k.max() if k.size else 0.0
    if not top <= MAX_SAMPLES:
        raise ValueError(f"hold {hold!r} reaches held value {top:.3g}, past {MAX_SAMPLES}")
    return k.astype(np.intp)


class SignalGenerator:
    """Scalar signal evaluable at arbitrary nonnegative times."""

    def value(self, t: float) -> float:
        """One time through ``sample``; a generator with a pointwise formula overrides it."""
        return float(self.sample(np.array([t], dtype=float))[0])


@dataclass(frozen=True)
class Zero(SignalGenerator):
    def sample(self, ts: np.ndarray) -> np.ndarray:
        return np.zeros(np.asarray(ts).shape)


@dataclass(frozen=True)
class Sinusoid(SignalGenerator):
    """amplitude * cos(frequency * t + phase)"""

    amplitude: float
    frequency: float
    phase: float = 0.0

    def value(self, t: float) -> float:
        return self.amplitude * np.cos(self.frequency * t + self.phase)

    def sample(self, ts: np.ndarray) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        return self.amplitude * np.cos(self.frequency * ts + self.phase)


class AutonomousLinear(SignalGenerator):
    """One component of the autonomous system s' = T s, s(0) = s0.

    Evaluated through the eigendecomposition of ``T``, so ``transition_modes``
    refuses a defective ``T``: its eigenvectors cannot carry every initial state.
    """

    def __init__(self, transition, initial, component: int = 0):
        self.transition, lam, vec = transition_modes(transition)
        k = self.transition.shape[0]
        self.initial = np.atleast_1d(float_array(initial, "initial"))
        if self.initial.shape != (k,):
            raise ValueError(f"initial must be {k} numbers, got {initial!r}")
        if not np.isfinite(self.initial).all():
            raise ValueError(f"initial must be finite, got {initial!r}")
        if not (isinstance(component, numbers.Integral) and not isinstance(component, bool)
                and 0 <= component < k):
            raise ValueError(f"component must be an integer in [0, {k}), got {component!r}")
        self.component = component
        self._lam = lam
        self._modes = vec[component, :] * np.linalg.solve(vec, self.initial.astype(complex))
        # all real: ``sample`` takes real exponentials, the complex formula to rounding
        self._real = not (lam.imag.any() or self._modes.imag.any())

    def value(self, t: float) -> float:
        return float(np.real(np.sum(self._modes * np.exp(self._lam * t))))

    def sample(self, ts: np.ndarray) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        if self._real:
            return np.exp(np.outer(ts, self._lam.real)) @ self._modes.real
        return np.real(np.exp(np.outer(ts, self._lam)) @ self._modes)


@dataclass
class PiecewiseConstantRandom(SignalGenerator):
    """Uniform random value in [low, high], held for ``hold`` seconds.

    The k-th held value depends only on (seed, k), so evaluation order
    does not matter.
    """

    low: float
    high: float
    hold: float
    seed: object
    _values: np.ndarray = field(default_factory=lambda: np.zeros(0), repr=False, compare=False)
    _rng: object = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        for name, value in (("low", self.low), ("high", self.high)):
            if not is_finite_number(value):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
            setattr(self, name, float(value) + 0.0)  # a signed zero reads as 0.0
        if self.low > self.high:
            raise ValueError(f"low {self.low!r} exceeds high {self.high!r}")
        if not (is_finite_number(self.hold) and self.hold > 0):
            raise ValueError(f"hold must be a finite number > 0, got {self.hold!r}")
        self._rng = np.random.default_rng(self.seed)

    def _ensure(self, k: int) -> None:
        if k >= self._values.size:
            extra = self._rng.uniform(self.low, self.high, size=max(256, k + 1 - self._values.size))
            self._values = np.concatenate([self._values, extra])

    def sample(self, ts: np.ndarray) -> np.ndarray:
        idx = held_index(np.asarray(ts, dtype=float), self.hold)
        if idx.size:
            self._ensure(int(idx.max()))
        return self._values[idx]


@dataclass(frozen=True)
class Tabulated(SignalGenerator):
    """A signal known only on the grid k * step, replayed from ``values[k]``.

    Sampling a time off the grid, or before its start, raises ValueError
    instead of guessing.
    """

    values: np.ndarray
    step: float

    def sample(self, ts: np.ndarray) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        k = np.rint(ts / self.step)
        if not ((np.abs(k * self.step - ts) <= 1e-6 * self.step) & (k >= 0)).all():
            raise ValueError(f"tabulated signal sampled off its grid of step {self.step:g}")
        return self.values[k.astype(np.intp)]
