"""Abel-regularized probes of the distributional singularity (i t)^{-z-1}.

The series sum_k k^z e^{-i t k}, damped by e^{-tau k}, splits into a power
singularity Gamma(z+1) (tau + i t)^{-z-1} plus a smooth remainder b(t).
This module computes both sides, profiles the remainder, and fits the
blow-up rate of the related semigroup kernel t^{-z-1} K_{tau+it}.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

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


# Lanczos g = 7 with 9 coefficients (Lanczos, SIAM J. Numer. Anal. B 1, 1964):
# about 15 correct digits for Re z >= 1/2
_LANCZOS_G = 7.0
_LANCZOS_COEFFS = (
    0.99999999999980993, 676.5203681218851, -1259.1392167224028,
    771.32342877765313, -176.61502916214059, 12.507343278686905,
    -0.13857109526572012, 9.9843695780195716e-6, 1.5056327351493116e-7,
)


def gamma(z: complex) -> complex:
    """Gamma(z) for complex z: ``math.gamma`` on the real axis, Lanczos off it.

    Off the real axis the Lanczos sum serves Re z >= 1/2 and the reflection
    Gamma(z) Gamma(1 - z) = pi / sin(pi z) the rest.  The poles
    z = 0, -1, -2, ... raise ``ValueError``.
    """
    z = complex(z)
    if z.imag == 0.0:
        if z.real <= 0.0 and z.real == math.floor(z.real):
            raise ValueError(f"Gamma has a pole at z = {z.real:g}")
        return complex(math.gamma(z.real))
    if z.real < 0.5:
        return math.pi / (cmath.sin(math.pi * z) * gamma(1.0 - z))
    z -= 1.0
    x = _LANCZOS_COEFFS[0] + sum(c / (z + i) for i, c in enumerate(_LANCZOS_COEFFS[1:], start=1))
    t = z + _LANCZOS_G + 0.5
    return math.sqrt(2.0 * math.pi) * cmath.exp((z + 0.5) * cmath.log(t) - t) * x


def default_config(z: complex, tau: float = 1e-4, t_samples=()) -> ProbeConfig:
    k_cut = int(math.ceil(24.0 / tau))  # e^{-24} ~ 4e-11
    return ProbeConfig(z=z, tau=tau, k_cut=k_cut, t_samples=tuple(t_samples))


# k = qB + r with r = 1..B: B inner phases e^{-itr} are shared by every block
_BLOCK = 128
# blocks per slice: no complex temporary exceeds 2^16 terms
_SLICE_BLOCKS = 512


def _phases(ts: np.ndarray, k: np.ndarray) -> np.ndarray:
    """e^{-i t k} for every t in ``ts`` (rows) and integer-valued k (columns), to roundoff.

    t = hi + lo with hi on the lattice 2^-26 Z, so hi k is exact for |t| < 4 and
    k < 2^25, and lo k < 2^-2 carries no roundoff that matters; the plain product
    t k would be off by up to half an ulp of t k, a phase error that grows with k.
    """
    hi = np.ldexp(np.round(np.ldexp(ts, 26)), -26)
    return np.exp(-1j * np.outer(hi, k)) * np.exp(-1j * np.outer(ts - hi, k))


def abel_sum(cfg: ProbeConfig, t: float | np.ndarray) -> complex | np.ndarray:
    """Damped series sum_{k=1}^{k_cut} k^z e^{-(tau + i t) k} at a scalar t or a 1-D array of t.

    The k = 0 term vanishes under the convention 0_+^z = 0.  With k = qB + r
    (r = 1..B) the phase splits as e^{-itqB} e^{-itr}: the weights
    k^z e^{-tau k}, padded with zeros past k_cut, are computed once for all t,
    each slice of blocks is one matrix product with the inner phases, and one
    phase per block and t finishes the sum.  At real z the weights are real,
    and the product is one real GEMM with the interleaved real and imaginary
    parts of the inner phases.  A scalar t gives a complex, an array one
    value per t.
    """
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    if ts.ndim != 1:
        raise ValueError("t must be a scalar or a 1-D array")
    r = np.arange(1, _BLOCK + 1, dtype=float)
    inner = _phases(ts, r)
    z = cfg.z.real if cfg.z.imag == 0.0 else cfg.z
    inner_parts = np.ascontiguousarray(inner.T).view(np.float64)  # (B, 2 n_t): re, im per t
    n_blocks = -(-cfg.k_cut // _BLOCK)
    total = np.zeros(ts.size, dtype=complex)
    for q0 in range(0, n_blocks, _SLICE_BLOCKS):
        qB = np.arange(q0, min(q0 + _SLICE_BLOCKS, n_blocks), dtype=float) * _BLOCK
        k = qB[:, None] + r
        w = np.exp(z * np.log(k) - cfg.tau * k)
        w[k > cfg.k_cut] = 0.0
        sums = (w @ inner_parts).view(complex).T if np.isrealobj(w) else inner @ w.T
        total += np.sum(sums * _phases(ts, qB), axis=1)
    return complex(total[0]) if np.ndim(t) == 0 else total


def geometric_closed_form(tau: float, t: float) -> complex:
    """Exact value of the z = 0 series: e^{-s}/(1 - e^{-s}) with s = tau + i t."""
    w = np.exp(-(tau + 1j * t))
    return complex(w / (1.0 - w))


def singular_term(z: complex, t: float, tau: float = 0.0) -> complex:
    """Leading singularity Gamma(z+1) (tau + i t)^{-z-1}, principal branch.

    tau > 0 or t != 0 keeps Re or Im of the base nonzero, so the principal
    branch is single-valued; the ambiguous origin is rejected, and so is
    z + 1 at a pole of Gamma.
    """
    if tau == 0.0 and t == 0.0:
        raise ValueError("branch-ambiguous input tau = t = 0")
    s = complex(tau, t)
    return gamma(z + 1) * s ** (-z - 1.0)


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
    abel = abel_sum(cfg, ts)
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
