"""Command-line entry points for the verification suites.

Every subcommand runs a self-contained battery of checks at desk scale,
prints one line per check, and exits 0 when all pass, 1 when any fails
(failures are repeated on stderr), or 2 on usage/config errors.  A config
file of ``key = value`` lines can seed the common flags; explicit flags
win over the file.
"""
from __future__ import annotations

import json
import math
import sys

import click
import numpy as np

from . import __version__
from .grids import Field, default_half_width, lp_norm, make_grid, make_time_grid, mixed_norm
from .indices import enumerate_pairs
from .propagator import ComplexTime, evolve_kernel, evolve_spectral, mehler_kernel, propagate_coeffs
from .schatten import duality_check, matched_system, random_smoothed_weight, sandwich_schatten
from .singularity import default_config, h_kernel_rate, remainder_profile, write_probe_csv
from .strichartz import CoefficientVector, SweepConfig, eigenfunction_system, strichartz_ratio, sweep
from .twisted import SpectralCoeffs, apply_twisted_laplacian, cached_basis, inverse_transform


def _read_config(path: str) -> dict:
    out = {}
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise click.UsageError(f"{path}:{lineno}: expected 'key = value'")
                key, value = (part.strip() for part in line.split("=", 1))
                out[key.replace("-", "_")] = value
    except OSError as exc:
        raise click.UsageError(f"cannot read config file: {exc}")
    return out


_COMMON = [
    click.option("--n", "n", type=int, default=None, help="complex dimension"),
    click.option("--kmax", type=int, default=None, help="degree cap of the truncation"),
    click.option("--grid-m", type=int, default=None, help="grid points per axis"),
    click.option("--grid-l", type=float, default=None, help="grid half-width (default: auto)"),
    click.option("--nt", type=int, default=None, help="time nodes on the circle"),
    click.option("--seed", type=int, default=None, help="base random seed"),
    click.option("--out", type=click.Path(dir_okay=False), default=None, help="write results to this path"),
    click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default=None, help="output format"),
    click.option("--config", "config_path", type=click.Path(exists=False), default=None, help="key=value config file"),
]


def common_options(fn):
    for opt in reversed(_COMMON):
        fn = opt(fn)
    return fn


_DEFAULTS = {"n": 1, "kmax": 4, "grid_m": 48, "grid_l": None, "nt": 16, "seed": 0, "fmt": "json"}
_TYPES = {"n": int, "kmax": int, "grid_m": int, "grid_l": float, "nt": int, "seed": int, "fmt": str, "out": str}


def resolve(config_path, defaults: dict | None = None, **flags) -> dict:
    """Merge defaults, command defaults, config file, and explicit flags (strongest last)."""
    merged = dict(_DEFAULTS, out=None, **(defaults or {}))
    if config_path:
        raw = _read_config(config_path)
        for key, value in raw.items():
            key = {"format": "fmt"}.get(key, key)
            if key not in _TYPES:
                raise click.UsageError(f"unknown config key: {key}")
            try:
                merged[key] = _TYPES[key](value)
            except ValueError:
                raise click.UsageError(f"bad value for {key}: {value!r}")
    for key, value in flags.items():
        if value is not None:
            merged[key] = value
    if merged["fmt"] not in ("csv", "json"):
        raise click.UsageError(f"bad format: {merged['fmt']}")
    return merged


class CheckRun:
    """Accumulates named pass/fail checks and renders the exit status."""

    def __init__(self):
        self.results = []

    def check(self, name: str, ok: bool, detail: str = ""):
        self.results.append((name, bool(ok), detail))
        status = "PASS" if ok else "FAIL"
        click.echo(f"[{status}] {name}" + (f" ({detail})" if detail else ""))

    def finish(self, payload: dict | None = None, out=None, fmt="json"):
        failures = [name for name, ok, _ in self.results if not ok]
        if out and payload is not None:
            _write_payload(out, fmt, payload)
        if failures:
            for name in failures:
                click.echo(f"failed: {name}", err=True)
            sys.exit(1)
        sys.exit(0)


def _write_payload(path, fmt, payload: dict):
    if fmt == "json":
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    else:
        rows = payload.get("rows")
        with open(path, "w") as fh:
            if rows:
                header = payload.get("header") or [f"col{i}" for i in range(len(rows[0]))]
                fh.write(",".join(header) + "\n")
                for row in rows:
                    fh.write(",".join(str(x) for x in row) + "\n")
            else:
                for key, value in payload.items():
                    fh.write(f"{key},{value}\n")


def _discretization(p):
    """Truncation, spatial grid and time grid of the resolved flags.

    Values the constructors reject (say an odd --grid-m, from a flag or a
    config file) are usage errors, not failed checks.
    """
    try:
        tr = enumerate_pairs(p["n"], p["kmax"])
        L = p["grid_l"] if p["grid_l"] is not None else default_half_width(p["n"], p["kmax"])
        return tr, make_grid(p["n"], L, p["grid_m"]), make_time_grid(p["nt"])
    except ValueError as exc:
        raise click.UsageError(str(exc))


@click.group()
@click.version_option(__version__)
def main():
    """Numerical toolkit for the twisted-Laplacian spectral inequalities."""


@main.command("verify-basis")
@common_options
def verify_basis(config_path, out, fmt, **flags):
    """Orthonormality and eigenrelation of the truncated eigenbasis."""
    p = resolve(config_path, out=out, fmt=fmt, **flags)
    tr, grid, _ = _discretization(p)
    run = CheckRun()
    basis = cached_basis(tr, grid).reshape(len(tr), -1)
    w = grid.weight_tensor.ravel()
    gram = (basis * w) @ basis.conj().T
    gram_err = float(np.abs(gram - np.eye(len(tr))).max())
    run.check("gram-identity", gram_err <= 1e-6, f"max err {gram_err:.3e}")
    worst = 0.0
    for i, pair in enumerate(tr.index_set):
        f = Field(grid, basis[i].reshape(grid.shape))
        lf = apply_twisted_laplacian(f)
        res = lp_norm(Field(grid, lf.values - pair.eigenvalue() * f.values), 2) / lp_norm(f, 2)
        worst = max(worst, res)
    run.check("eigenrelation", worst <= 1e-3, f"max residual {worst:.3e}")
    run.finish({"gram_error": gram_err, "max_eigen_residual": worst}, p["out"], p["fmt"])


@main.command("verify-kernel")
@common_options
def verify_kernel(config_path, out, fmt, **flags):
    """Closed-form kernel against the diagonal spectral propagator."""
    p = resolve(config_path, out=out, fmt=fmt, **flags)
    tr, grid, _ = _discretization(p)
    run = CheckRun()
    rng = np.random.default_rng(p["seed"])
    c = SpectralCoeffs(tr, rng.standard_normal(len(tr)) + 1j * rng.standard_normal(len(tr)))
    eta = ComplexTime(0.5, 0.3)
    via_kernel = evolve_kernel(inverse_transform(c, grid), eta)
    via_spectral = inverse_transform(evolve_spectral(c, eta), grid)
    rel = lp_norm(Field(grid, via_kernel.values - via_spectral.values), 2) / lp_norm(via_spectral, 2)
    run.check("kernel-vs-spectral", rel <= 1e-6, f"rel L2 err {rel:.3e}")
    ts = np.linspace(0.3, math.pi - 0.3, 7)
    bound = max(
        abs(mehler_kernel(ComplexTime(0.0, t), z, p["n"])) * abs(math.sin(t)) ** p["n"]
        for t in ts
        for z in (0.0, 1.0 + 0.5j)
    )
    run.check("kernel-modulus-law", bound <= 2.0, f"max |K||sin t|^n {bound:.4f}")
    c1 = propagate_coeffs(c, 1.0)
    c2 = propagate_coeffs(c, 1.0 + 2.0 * math.pi)
    per = float(np.abs(c1.coeffs - c2.coeffs).max())
    run.check("periodicity", per == 0.0, f"max coeff diff {per:.1e}")
    u2 = float(np.abs(np.linalg.norm(c1.coeffs) - np.linalg.norm(c.coeffs)))
    run.check("unitarity", u2 <= 1e-12, f"norm drift {u2:.1e}")
    run.finish({"kernel_vs_spectral": rel, "kernel_bound": bound}, p["out"], p["fmt"])


@main.command("schatten-bound")
@click.option("--trials", type=click.IntRange(min=1), default=20, help="number of random weights")
@common_options
def schatten_bound(config_path, out, fmt, trials, **flags):
    """Schatten-4 bound for sandwiched projections over random weights."""
    p = resolve(config_path, out=out, fmt=fmt, **flags)
    tr, grid, tg = _discretization(p)
    ratios = []
    for k in range(trials):
        W = random_smoothed_weight(tg, grid, p["seed"] + k)
        num = sandwich_schatten(W, tr, tg, grid, 4.0).norm
        den = mixed_norm(W, tg, grid, 4.0, 4.0, measure="dt/2pi") ** 2
        ratios.append(num / den)
    arr = np.array(ratios)
    run = CheckRun()
    run.check("ratios-finite", bool(np.all(np.isfinite(arr))), f"{trials} weights")
    spread = float(arr.max() / np.median(arr))
    run.check("max-over-median", spread <= 5.0, f"{spread:.3f}")
    payload = {
        "header": ["trial", "ratio"],
        "rows": [(k, float(r)) for k, r in enumerate(arr)],
        "max_ratio": float(arr.max()),
        "median_ratio": float(np.median(arr)),
    }
    run.finish(payload, p["out"], p["fmt"])


@main.command("singularity")
@common_options
def singularity_cmd(config_path, out, fmt, **flags):
    """Abel-regularized singularity expansion and kernel blow-up rates."""
    p = resolve(config_path, out=out, fmt=fmt, **flags)
    _discretization(p)  # unused here, but invalid common flags are rejected as everywhere
    run = CheckRun()
    ts = tuple(np.linspace(0.2, math.pi - 0.2, 9))
    sup = {}
    for tau in (1e-4, 1e-5):
        sup[tau] = remainder_profile(default_config(-0.5, tau, t_samples=ts)).sup_abs
    drift = abs(sup[1e-4] - sup[1e-5]) / sup[1e-5]
    run.check("remainder-tau-stable", drift <= 0.10, f"drift {drift:.2%}")
    worst = 0.0
    for z in (-0.25, -0.5, -1.0, -1.5, -2.0):
        slope = h_kernel_rate(complex(z), n=p["n"])
        worst = max(worst, abs(slope + (z + 1 + p["n"])))
    run.check("kernel-rate-law", worst <= 0.1, f"max slope err {worst:.3f}")
    if p["out"]:
        cfg = default_config(-0.5, 1e-4, t_samples=ts)
        if p["fmt"] == "csv":
            write_probe_csv(p["out"], cfg)
        else:
            prof = remainder_profile(cfg)
            _write_payload(p["out"], "json", {
                "t": list(prof.t_samples),
                "remainder_abs": [float(a) for a in np.abs(prof.remainder)],
                "sup_abs": prof.sup_abs,
            })
    run.finish(None)


@main.command("strichartz-sweep")
@click.option("--trials", type=click.IntRange(min=1), default=20, help="random systems per size")
@common_options
def strichartz_sweep(config_path, out, fmt, trials, **flags):
    """Mixed-norm quotient sweep over exponents, sizes, and random systems."""
    p = resolve(config_path, out=out, fmt=fmt, **flags)
    tr, grid, tg = _discretization(p)
    sizes = tuple(N for N in (1, 2, 4, 8, 16) if N <= len(tr))
    cfg = SweepConfig(truncation=tr, grid=grid, n_t=p["nt"], system_sizes=sizes, trials=trials, seed=p["seed"])
    report = sweep(cfg)
    run = CheckRun()
    run.check("ratios-finite", math.isfinite(report.max_ratio), f"max {report.max_ratio:.4f}")
    r0 = strichartz_ratio(eigenfunction_system(tr, 1), CoefficientVector([1.0]), 2.0, 2.0, tg, grid)
    run.check("single-mode-closed-form", abs(r0 - 2**-0.5) <= 1e-3, f"ratio {r0:.6f}")
    run.check("growth-exponent", 0.6 <= report.growth_exponent <= 0.85, f"{report.growth_exponent:.4f}")
    if p["out"]:
        if p["fmt"] == "csv":
            report.write_csv(p["out"])
        else:
            with open(p["out"], "w") as fh:
                fh.write(report.to_json() + "\n")
    run.finish(None)


@main.command("duality-check")
@click.option("--trials", type=click.IntRange(min=1), default=20, help="number of paired samples")
@common_options
def duality_cmd(config_path, out, fmt, trials, **flags):
    """Both sides of the sandwich/density duality on paired samples."""
    p = resolve(config_path, defaults={"kmax": 6}, out=out, fmt=fmt, **flags)
    tr, grid, tg = _discretization(p)
    weights, systems = [], []
    for k in range(trials):
        W = random_smoothed_weight(tg, grid, p["seed"] + k)
        weights.append(W)
        systems.append(matched_system(tr, tg, grid, W, alpha=4.0))
    rep = duality_check(tr, tg, grid, systems, weights, alpha=4.0, w_exponents=(4.0, 4.0), density_exponents=(2.0, 2.0))
    run = CheckRun()
    run.check("constants-finite", math.isfinite(rep.max_sandwich) and math.isfinite(rep.max_density),
              f"sandwich {rep.max_sandwich:.4f}, density {rep.max_density:.4f}")
    factor = max(rep.max_sandwich, rep.max_density) / min(rep.max_sandwich, rep.max_density)
    run.check("constants-comparable", factor <= 3.0, f"factor {factor:.3f}")
    payload = {
        "alpha": rep.alpha,
        "max_sandwich_ratio": rep.max_sandwich,
        "max_density_ratio": rep.max_density,
        "factor": factor,
        "skipped": rep.skipped,
    }
    run.finish(payload, p["out"], p["fmt"])


if __name__ == "__main__":
    main()
