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

from . import __version__, checks
from .grids import default_half_width, make_grid, make_time_grid
from .indices import enumerate_pairs
from .propagator import ComplexTime
from .schatten import duality_check, random_smoothed_weight
from .singularity import default_config, remainder_profile
from .strichartz import SweepConfig, sweep
from .twisted import SpectralCoeffs


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


def finish(results: list, p: dict, payload: dict, table: tuple | None = None):
    """Print the verdict lines, write ``--out``, echo failures to stderr and exit 0 or 1.

    ``--out`` gets the payload as JSON or, under ``--format csv``, the
    (header, rows) table, or one key,value line per payload entry when
    there is no table.
    """
    for check in results:
        click.echo(f"[{'PASS' if check.passed else 'FAIL'}] {check.name} ({check.detail})")
    if p["out"]:
        with open(p["out"], "w") as fh:
            if p["fmt"] == "json":
                json.dump(payload, fh, indent=2)
                fh.write("\n")
            else:
                for row in [table[0], *table[1]] if table else payload.items():
                    fh.write(",".join(str(x) for x in row) + "\n")
    failures = [check.name for check in results if not check.passed]
    for name in failures:
        click.echo(f"failed: {name}", err=True)
    sys.exit(1 if failures else 0)


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
    try:
        results = [checks.gram_identity(tr, grid), checks.eigenrelation(tr, grid)]
    except ValueError as exc:  # a grid too coarse for the Laplacian, a usage error as in _discretization
        raise click.UsageError(str(exc))
    finish(results, p, {"gram_error": results[0].value, "max_eigen_residual": results[1].value})


@main.command("verify-kernel")
@common_options
def verify_kernel(config_path, out, fmt, **flags):
    """Closed-form kernel against the diagonal spectral propagator."""
    p = resolve(config_path, out=out, fmt=fmt, **flags)
    tr, grid, _ = _discretization(p)
    rng = np.random.default_rng(p["seed"])
    c = SpectralCoeffs(tr, rng.standard_normal(len(tr)) + 1j * rng.standard_normal(len(tr)))
    results = [
        checks.kernel_vs_spectral(c, grid, ComplexTime(0.5, 0.3)),
        checks.kernel_modulus_law(np.linspace(0.3, math.pi - 0.3, 7), (0.0, 1.0 + 0.5j), p["n"]),
        checks.periodicity(c, 1.0),
        checks.unitarity(c, 1.0),
    ]
    finish(results, p, {"kernel_vs_spectral": results[0].value, "kernel_bound": results[1].value})


@main.command("schatten-bound")
@click.option("--trials", type=click.IntRange(min=1), default=20, help="number of random weights")
@common_options
def schatten_bound(config_path, out, fmt, trials, **flags):
    """Schatten-4 bound for sandwiched projections over random weights."""
    p = resolve(config_path, out=out, fmt=fmt, **flags)
    tr, grid, tg = _discretization(p)
    arr = checks.schatten_ratios(tr, tg, grid, range(p["seed"], p["seed"] + trials))
    results = [
        checks.weight_ratios_finite(arr),
        checks.max_over_median(arr),
    ]
    header, rows = ["trial", "ratio"], [(k, float(r)) for k, r in enumerate(arr)]
    payload = {"header": header, "rows": rows, "max_ratio": float(arr.max()), "median_ratio": float(np.median(arr))}
    finish(results, p, payload, (header, rows))


@main.command("singularity")
@common_options
def singularity_cmd(config_path, out, fmt, **flags):
    """Abel-regularized singularity expansion and kernel blow-up rates."""
    p = resolve(config_path, out=out, fmt=fmt, **flags)
    _discretization(p)  # unused here, but invalid common flags are rejected as everywhere
    ts = tuple(np.linspace(0.2, math.pi - 0.2, 9))
    cfg = default_config(-0.5, 1e-4, t_samples=ts)
    prof = remainder_profile(cfg)
    fine = remainder_profile(default_config(-0.5, 1e-5, t_samples=ts))
    results = [checks.remainder_tau_stable(prof, fine), checks.kernel_rate_law(p["n"])]
    payload = {"t": list(prof.t_samples), "remainder_abs": [float(a) for a in np.abs(prof.remainder)],
               "sup_abs": prof.sup_abs}
    header = ["z_re", "z_im", "t", "tau", "abel_re", "abel_im", "singular_re", "singular_im", "remainder_abs"]
    rows = [
        (cfg.z.real, cfg.z.imag, t, cfg.tau, a.real, a.imag, s.real, s.imag, abs(r))
        for t, a, s, r in zip(prof.t_samples, prof.abel, prof.singular, prof.remainder)
    ]
    finish(results, p, payload, (header, rows))


@main.command("strichartz-sweep")
@click.option("--trials", type=click.IntRange(min=1), default=20, help="random systems per size")
@common_options
def strichartz_sweep(config_path, out, fmt, trials, **flags):
    """Mixed-norm quotient sweep over exponents, sizes, and random systems."""
    p = resolve(config_path, out=out, fmt=fmt, **flags)
    tr, grid, tg = _discretization(p)
    sizes = tuple(N for N in (1, 2, 4, 8, 16) if N <= len(tr))
    try:
        cfg = SweepConfig(truncation=tr, grid=grid, n_t=p["nt"], system_sizes=sizes, trials=trials, seed=p["seed"])
    except ValueError as exc:  # a truncation too small for the growth fit, a usage error as in _discretization
        raise click.UsageError(str(exc))
    report = sweep(cfg)
    results = [
        checks.ratios_finite(report.max_ratio),
        checks.single_mode_closed_form(tr, tg, grid),
        checks.growth_exponent(report.growth_exponent),
    ]
    cells = {f"q={q},N={N}": v for (q, N), v in sorted(report.max_ratio_by_cell.items())}
    # sweep takes every p on the admissible line, so "off_line_cells" is always empty;
    # it stays in the payload because the stored reference outputs hold the key
    payload = {"max_ratio": report.max_ratio, "growth_exponent": report.growth_exponent, "max_ratio_by_cell": cells,
               "off_line_cells": [], "n_rows": len(report.rows)}
    finish(results, p, payload, (["n", "p", "q", "N", "trial", "ratio", "lhs", "rhs"], report.rows))


@main.command("duality-check")
@click.option("--trials", type=click.IntRange(min=1), default=20, help="number of paired samples")
@common_options
def duality_cmd(config_path, out, fmt, trials, **flags):
    """Both sides of the sandwich/density duality on paired samples."""
    p = resolve(config_path, defaults={"kmax": 6}, out=out, fmt=fmt, **flags)
    tr, grid, tg = _discretization(p)
    weights = [random_smoothed_weight(tg, grid, p["seed"] + k) for k in range(trials)]
    rep = duality_check(tr, tg, grid, weights, alpha=4.0, w_exponents=(4.0, 4.0), density_exponents=(2.0, 2.0))
    results = [checks.constants_finite(rep), checks.constants_comparable(rep)]
    payload = {"alpha": rep.alpha, "max_sandwich_ratio": rep.max_sandwich, "max_density_ratio": rep.max_density,
               "factor": results[1].value, "skipped": rep.skipped}
    finish(results, p, payload)


if __name__ == "__main__":
    main()
