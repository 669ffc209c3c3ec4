"""Abel-regularized probes of the distributional singularity (i t)^{-z-1}.

The series sum_k k^z e^{-i t k}, damped by e^{-tau k}, splits into a power
singularity Gamma(z+1) (tau + i t)^{-z-1} plus a smooth remainder b(t).
This module computes both sides, profiles the remainder, and fits the
blow-up rate of the related semigroup kernel t^{-z-1} K_{tau+it}.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .propagator import ComplexTime, mehler_kernel


@dataclass(frozen=True)
class ProbeConfig:
    """Parameters of one Abel-summation probe.

    The damping must make the tail past ``k_cut`` negligible
    (e^{-tau k_cut} < 1e-10).
    """

    z: complex
    tau: float
    k_cut: int

    def __post_init__(self):
        z = complex(self.z)
        if not (-1.0 < z.real <= 0.0):
            raise ValueError("Re z must lie in (-1, 0]")
        if self.tau <= 0.0:
            raise ValueError("Abel parameter tau must be positive")
        if math.exp(-self.tau * self.k_cut) >= 1e-10:
            raise ValueError("k_cut too small for tau: tail e^{-tau k_cut} not below 1e-10")
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


def default_config(z: complex, tau: float) -> ProbeConfig:
    k_cut = int(math.ceil(24.0 / tau))  # e^{-24} ~ 4e-11
    return ProbeConfig(z=z, tau=tau, k_cut=k_cut)


# k = qB + r with r = 1..B: B inner phases e^{-itr} are shared by every block
_BLOCK = 128
# q = aA + b: a block phase e^{-itqB} is the product of one table entry per a and one per b
_TABLE = 128
# real entries of the largest temporary of one slice of blocks
_SLICE_ENTRIES = 1 << 16
# the head summed term by term is at least this many blocks
_MIN_HEAD = 32


def _phases(ts: np.ndarray, k: np.ndarray) -> np.ndarray:
    """e^{-i t k} for every t in ``ts`` (rows) and integer-valued k (columns), to roundoff.

    t = hi + lo with hi on the lattice 2^-26 Z, so hi k is exact for |t| < 4 and
    k < 2^25, and lo k < 2^-2 carries no roundoff that matters; the plain product
    t k would be off by up to half an ulp of t k, a phase error that grows with k.
    """
    hi = np.ldexp(np.round(np.ldexp(ts, 26)), -26)
    return np.exp(-1j * np.outer(hi, k)) * np.exp(-1j * np.outer(ts - hi, k))


def _series_plan(z: complex) -> tuple[int, int]:
    """Head H in blocks and the term count of the binomial expansion of k^z past it.

    In a block q >= H, k = qB + r gives k^z = (qB)^z sum_m C(z, m) q^{-m} (r/B)^m,
    whose m-th term is at most a_m = |C(z, m)| H^{-m} relative to (qB)^z.  H is
    the least power of two, at least _MIN_HEAD, with H >= 2 max(|z|, 1): then
    a_{m+1}/a_m = |z - m|/((m+1) H) <= 1/2, so the a_m sum to at most 2 (roundoff
    at most doubles against the per-term sum) and the remainder past m is at most
    2 a_{m+1}.  The series stops at the first m where that bound is below 2^-53.
    """
    head = max(_MIN_HEAD, 1 << math.ceil(math.log2(2.0 * max(abs(z), 1.0))))
    a, m = 1.0, 0
    while True:
        a *= abs(z - m) / ((m + 1) * head)
        if 2.0 * a < 2.0**-53:
            return head, m + 1
        m += 1


def _expanded_blocks(cfg: ProbeConfig, z, ts: np.ndarray, inner_parts: np.ndarray, blocks: range,
                     terms: int) -> np.ndarray:
    """Sum of the blocks q in ``blocks`` by the binomial expansion of k^z, one value per t.

    With s = tau + it a block sums to e^{-sqB} (qB)^z sum_m C(z, m) q^{-m} mu_m(s),
    mu_m(s) = sum_r (r/B)^m e^{-sr}, so all blocks together are
    sum_m C(z, m) mu_m(s) sum_q q^{-m} (qB)^z e^{-sqB}: per slice of blocks one
    real matrix product of the weights q^{-m} with the block phases.
    """
    r = np.arange(1, _BLOCK + 1, dtype=float)
    moments = (np.vander(r / _BLOCK, terms, increasing=True).T * np.exp(-cfg.tau * r)) @ inner_parts
    binomials = np.ones(terms, dtype=np.result_type(float, z))
    for m in range(1, terms):
        binomials[m] = binomials[m - 1] * (z - (m - 1)) / m
    first, last = blocks.start // _TABLE, -(-blocks.stop // _TABLE)
    outer = np.ascontiguousarray(_phases(ts, np.arange(first, last) * float(_TABLE * _BLOCK)).T)  # e^{-it aAB}
    low = np.ascontiguousarray(_phases(ts, np.arange(_TABLE) * float(_BLOCK)).T)  # e^{-it bB}
    step = max(1, _SLICE_ENTRIES // (_TABLE * max(2 * ts.size, terms)))  # values of a per slice
    series = np.zeros((terms, 2 * ts.size))
    for a0 in range(first, last, step):
        a = outer[a0 - first : a0 - first + step]
        q0, q1 = max(a0 * _TABLE, blocks.start), min((a0 + len(a)) * _TABLE, blocks.stop)
        q = np.arange(q0, q1, dtype=float)
        ph = (a[:, None] * low).reshape(len(a) * _TABLE, ts.size)[q0 - a0 * _TABLE : q1 - a0 * _TABLE]
        ph *= np.exp(z * np.log(q * _BLOCK) - cfg.tau * _BLOCK * q)[:, None]
        series += np.vander(1.0 / q, terms, increasing=True).T @ ph.view(np.float64)
    return binomials @ (moments.view(complex) * series.view(complex))


def abel_sum(cfg: ProbeConfig, t: float | np.ndarray) -> complex | np.ndarray:
    """Damped series sum_{k=1}^{k_cut} k^z e^{-(tau + i t) k} at a scalar t or a 1-D array of t.

    The k = 0 term vanishes under the convention 0_+^z = 0.  With k = qB + r
    (r = 1..B) the phase splits as e^{-itqB} e^{-itr}, and every block shares
    the B inner phases.  The head blocks q < H of ``_series_plan`` and the
    part block past the last full one are summed term by term: their weights
    k^z e^{-tau k}, zero past k_cut, times the inner phases, one matrix product
    per slice of blocks, and one phase per block and t.  Every other block
    expands k^z binomially in r/(qB) (``_expanded_blocks``), which costs one
    transcendental per block instead of one per term.  At real z the weights
    are real and each product is one real GEMM.  No temporary exceeds 2^16
    entries for up to 128 times.  A scalar t gives a complex, an array one
    value per t.
    """
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    if ts.ndim != 1:
        raise ValueError("t must be a scalar or a 1-D array")
    r = np.arange(1, _BLOCK + 1, dtype=float)
    inner = _phases(ts, r)
    inner_parts = np.ascontiguousarray(inner.T).view(np.float64)  # (B, 2 n_t): re, im per t
    z = cfg.z.real if cfg.z.imag == 0.0 else cfg.z
    head, terms = _series_plan(cfg.z)
    full = cfg.k_cut // _BLOCK
    expanded = range(min(head, full), full)
    total = np.zeros(ts.size, dtype=complex)
    if expanded:
        total += _expanded_blocks(cfg, z, ts, inner_parts, expanded, terms)
    direct = np.r_[0 : expanded.start, full : -(-cfg.k_cut // _BLOCK)]
    step = _SLICE_ENTRIES // _BLOCK
    for i in range(0, direct.size, step):
        qB = direct[i : i + step] * float(_BLOCK)
        k = qB[:, None] + r
        w = np.exp(z * np.log(k) - cfg.tau * k)
        w[k > cfg.k_cut] = 0.0
        sums = (w @ inner_parts).view(complex).T if np.isrealobj(w) else inner @ w.T
        total += np.sum(sums * _phases(ts, qB), axis=1)
    return complex(total[0]) if np.ndim(t) == 0 else total


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


def remainder_profile(cfg: ProbeConfig, t_samples) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The sorted sample times t with abel_sum and singular_term at each; their difference is the remainder b(t).

    The times must avoid t = 0, where the singular term has no principal-branch limit, and lie in [-pi, pi].
    """
    ts = np.array(sorted(float(t) for t in t_samples))
    if ts.size == 0:
        raise ValueError("no time samples given")
    if any(t == 0.0 or not (-math.pi <= t <= math.pi) for t in ts):
        raise ValueError("t samples must lie in [-pi, pi] and avoid 0")
    return ts, abel_sum(cfg, ts), np.array([singular_term(cfg.z, t, cfg.tau) for t in ts])


def h_kernel(z: complex, u: complex, w: complex, t: float, tau: float, n: int = 1) -> complex:
    """H(u, w, t) = t^{-z-1} (2 pi)^n K_{tau + i t}(u - w)."""
    eta = ComplexTime.reduced(tau, t)
    return (t ** (-z - 1.0)) * (2.0 * math.pi) ** n * mehler_kernel(eta, u - w, n)


def h_kernel_rate(z: complex, n: int = 1) -> float:
    """Fitted log-log slope of |H(0, 0, t)| versus t, at tau = 1e-6.

    The 12 fit times are geometric in [0.012, 0.28], inside the window
    [0.01, 0.3]: below it the tau regularization contaminates, above it the
    smooth remainder does.  The expected slope is -Re(z + 1 + n).
    """
    ts = np.geomspace(0.012, 0.28, 12)
    vals = np.array([abs(h_kernel(z, 0.0, 0.0, t, 1e-6, n)) for t in ts])
    slope = np.polyfit(np.log(ts), np.log(vals), 1)[0]
    return float(slope)
