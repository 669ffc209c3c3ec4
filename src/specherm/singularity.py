"""Abel-regularized probes of the distributional singularity (i t)^{-z-1}.

The series sum_k k^z e^{-i t k}, damped by e^{-tau k}, splits into a power
singularity Gamma(z+1) (tau + i t)^{-z-1} plus a smooth remainder b(t).
This module computes both sides, profiles the remainder, and fits the
blow-up rate of the related semigroup kernel t^{-z-1} K_{tau+it}.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gamma as _gamma

from .propagator import ComplexTime, mehler_kernel


@dataclass(frozen=True)
class ProbeConfig:
    """Parameters of one Abel-summation probe.

    The damping must make the tail past ``k_cut`` negligible
    (e^{-tau k_cut} < 1e-10), and the sample times must avoid t = 0 where
    the singular term has no principal-branch limit.
    """

    z: complex
    tau: float
    k_cut: int
    t_samples: tuple = field(default=())

    def __post_init__(self):
        z = complex(self.z)
        if not (-1.0 < z.real <= 0.0):
            raise ValueError("Re z must lie in (-1, 0]")
        if self.tau <= 0.0:
            raise ValueError("Abel parameter tau must be positive")
        if math.exp(-self.tau * self.k_cut) >= 1e-10:
            raise ValueError("k_cut too small for tau: tail e^{-tau k_cut} not below 1e-10")
        ts = tuple(float(t) for t in self.t_samples)
        if any(t == 0.0 or not (-math.pi <= t <= math.pi) for t in ts):
            raise ValueError("t samples must lie in [-pi, pi] and avoid 0")
        object.__setattr__(self, "t_samples", ts)
        object.__setattr__(self, "z", z)


def default_config(z: complex, tau: float = 1e-4, t_samples=()) -> ProbeConfig:
    k_cut = int(math.ceil(24.0 / tau))  # e^{-24} ~ 4e-11
    return ProbeConfig(z=z, tau=tau, k_cut=k_cut, t_samples=tuple(t_samples))


def abel_sum(cfg: ProbeConfig, t: float) -> complex:
    """Damped series sum_{k=1}^{k_cut} k^z e^{-(tau + i t) k}.

    The k = 0 term vanishes under the convention 0_+^z = 0.  Terms are
    accumulated in ascending k (vectorized, which matches the ascending
    pairwise order to well below the tolerance of every consumer).
    """
    k = np.arange(1, cfg.k_cut + 1, dtype=float)
    return complex(np.sum(k**cfg.z * np.exp(-(cfg.tau + 1j * t) * k)))


def geometric_closed_form(tau: float, t: float) -> complex:
    """Exact value of the z = 0 series: e^{-s}/(1 - e^{-s}) with s = tau + i t."""
    w = np.exp(-(tau + 1j * t))
    return complex(w / (1.0 - w))


def singular_term(z: complex, t: float, tau: float = 0.0) -> complex:
    """Leading singularity Gamma(z+1) (tau + i t)^{-z-1}, principal branch.

    tau > 0 or t != 0 keeps Re or Im of the base nonzero, so the principal
    branch is single-valued; the ambiguous origin is rejected.
    """
    if tau == 0.0 and t == 0.0:
        raise ValueError("branch-ambiguous input tau = t = 0")
    s = complex(tau, t)
    return complex(_gamma(z + 1) * s ** (-z - 1.0))


@dataclass
class RemainderProfile:
    """Tabulated smooth-part estimates b(t) = abel_sum - singular_term."""

    t_samples: np.ndarray
    abel: np.ndarray
    singular: np.ndarray
    remainder: np.ndarray
    sup_abs: float


def remainder_profile(cfg: ProbeConfig) -> RemainderProfile:
    """Estimate the smooth remainder and the sup of |b| over the configured time samples."""
    ts = np.array(sorted(cfg.t_samples))
    if ts.size == 0:
        raise ValueError("no time samples configured")
    abel = np.array([abel_sum(cfg, t) for t in ts])
    sing = np.array([singular_term(cfg.z, t, cfg.tau) for t in ts])
    rem = abel - sing
    return RemainderProfile(
        t_samples=ts,
        abel=abel,
        singular=sing,
        remainder=rem,
        sup_abs=float(np.abs(rem).max()),
    )


_FIT_WINDOW = (0.01, 0.3)


def h_kernel(z: complex, u: complex, w: complex, t: float, tau: float, n: int = 1) -> complex:
    """H(u, w, t) = t^{-z-1} (2 pi)^n K_{tau + i t}(u - w)."""
    eta = ComplexTime.reduced(tau, t)
    return (t ** (-z - 1.0)) * (2.0 * math.pi) ** n * mehler_kernel(eta, u - w, n)


def h_kernel_rate(
    z: complex,
    u: complex = 0.0,
    w: complex = 0.0,
    t_samples=None,
    tau: float = 1e-6,
    n: int = 1,
) -> float:
    """Fitted log-log slope of |H(u, w, t)| versus t.

    The fit window is restricted to [0.01, 0.3]: below it the tau
    regularization contaminates, above it the smooth remainder does.  The
    expected slope is -Re(z + 1 + n).
    """
    if t_samples is None:
        t_samples = np.geomspace(0.012, 0.28, 12)
    ts = np.array([t for t in np.atleast_1d(t_samples) if _FIT_WINDOW[0] <= t <= _FIT_WINDOW[1]])
    if ts.size < 4:
        raise ValueError("need at least 4 time samples inside the fit window")
    vals = np.array([abs(h_kernel(z, u, w, t, tau, n)) for t in ts])
    slope = np.polyfit(np.log(ts), np.log(vals), 1)[0]
    return float(slope)
