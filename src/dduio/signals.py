"""Deterministic scalar signal generators for inputs and disturbances.

Every generator is a pure function of time given its parameters (and
seed, for the random kind), so repeated evaluation in any order yields
identical values.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np


class SignalGenerator:
    """Scalar signal evaluable at arbitrary nonnegative times."""

    def value(self, t: float) -> float:
        raise NotImplementedError

    def sample(self, ts: np.ndarray) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class Zero(SignalGenerator):
    def value(self, t: float) -> float:
        return 0.0

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

    Evaluation uses the eigendecomposition of ``T``; the transition
    matrix must be diagonalizable (always true for the scalar case).
    """

    def __init__(self, transition, initial, component: int = 0):
        self.transition = np.atleast_2d(np.asarray(transition, dtype=float))
        self.initial = np.atleast_1d(np.asarray(initial, dtype=float))
        self.component = component
        if self.transition.shape[0] != self.transition.shape[1]:
            raise ValueError("transition matrix must be square")
        if self.initial.shape[0] != self.transition.shape[0]:
            raise ValueError("initial value length must match transition size")
        k = self.transition.shape[0]
        if not (isinstance(component, numbers.Integral) and not isinstance(component, bool)
                and 0 <= component < k):
            raise ValueError(f"component must be an integer in [0, {k}), got {component!r}")
        lam, vec = np.linalg.eig(self.transition)
        self._lam = lam
        self._modes = vec[component, :] * np.linalg.solve(vec, self.initial.astype(complex))

    def value(self, t: float) -> float:
        return float(np.real(np.sum(self._modes * np.exp(self._lam * t))))

    def sample(self, ts: np.ndarray) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
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
        if not self.hold > 0:
            raise ValueError(f"hold interval must be positive, got {self.hold!r}")
        if not (np.isfinite(self.low) and np.isfinite(self.high) and self.low <= self.high):
            raise ValueError(f"low and high must be finite with low <= high, "
                             f"got low={self.low!r}, high={self.high!r}")
        self._rng = np.random.default_rng(self.seed)

    def _index(self, ts):
        """Held-value index of each time; scalars and arrays alike."""
        # Nudge guards against sample times landing epsilon below a boundary.
        return np.maximum(np.floor(ts / self.hold * (1.0 + 1e-12) + 1e-9), 0.0).astype(np.intp)

    def _ensure(self, k: int) -> None:
        if k >= self._values.size:
            extra = self._rng.uniform(self.low, self.high, size=max(256, k + 1 - self._values.size))
            self._values = np.concatenate([self._values, extra])

    def value(self, t: float) -> float:
        k = int(self._index(t))
        self._ensure(k)
        return float(self._values[k])

    def sample(self, ts: np.ndarray) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        idx = self._index(ts)
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

    def value(self, t: float) -> float:
        return float(self.sample(np.array([t]))[0])

    def sample(self, ts: np.ndarray) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        k = np.rint(ts / self.step)
        if not ((np.abs(k * self.step - ts) <= 1e-6 * self.step) & (k >= 0)).all():
            raise ValueError(f"tabulated signal sampled off its grid of step {self.step:g}")
        return self.values[k.astype(np.intp)]
