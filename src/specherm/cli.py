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
import os
import sys

import click
import numpy as np

from . import __version__, checks
from .grids import default_half_width, make_grid
from .indices import enumerate_pairs
from .propagator import ComplexTime
from .schatten import duality_check, random_smoothed_weights
from .singularity import default_config, remainder_profile
from .strichartz import eigenfunction_growth, sweep


def _common_options(kmax: int = 4) -> list[click.Option]:
    """The flags every subcommand takes, each with its type, range and default (``kmax``: the command's)."""
    return [
        click.Option(["--n"], type=int, default=1, help="complex dimension"),
        click.Option(["--kmax"], type=int, default=kmax, help="degree cap of the truncation"),
        click.Option(["--grid-m"], type=int, default=48, help="grid points per axis"),
        click.Option(["--grid-l"], type=float, default=None, help="grid half-width (default: auto)"),
        click.Option(["--nt"], type=click.IntRange(min=1), default=16,
                     help="time nodes on the circle"),
        click.Option(["--seed"], type=click.IntRange(min=0), default=0, help="base random seed"),
        click.Option(["--out"], type=click.Path(dir_okay=False), callback=_check_out, help="write results to this path"),
        click.Option(["--format", "fmt"], type=click.Choice(["csv", "json"]), default="json", help="output format"),
        click.Option(["--config"], type=click.Path(), is_eager=True, expose_value=False, callback=_read_config,
                     help="key=value config file"),
    ]


def _check_out(ctx, param, path):
    """Reject an ``--out`` whose directory does not exist before any check runs."""
    if path and not os.path.isdir(os.path.dirname(os.path.abspath(path))):
        raise click.BadParameter(f"no such directory: {os.path.dirname(path)}")
    return path


def _read_config(ctx, param, path):
    """Make the ``key = value`` lines of the file the command's defaults.

    ``--config`` is eager, so click then reads the other flags as usual: it
    type-checks the file's values as it checks flags, and an explicit flag wins.
    """
    if path is None:
        return
    values = {}
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise click.UsageError(f"{path}:{lineno}: expected 'key = value'")
                key, value = (part.strip() for part in line.split("=", 1))
                key = {"format": "fmt"}.get(key, key.replace("-", "_"))
                if key not in _CONFIG_KEYS:
                    raise click.UsageError(f"unknown config key: {key}")
                values[key] = value
    except OSError as exc:
        raise click.UsageError(f"cannot read config file: {exc}")
    ctx.default_map = values


_CONFIG_KEYS = {opt.name for opt in _common_options() if opt.expose_value}


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
    """Truncation and spatial grid of the resolved flags.

    Values the constructors reject (say an odd --grid-m, from a flag or a
    config file) are usage errors, not failed checks.
    """
    try:
        tr = enumerate_pairs(p["n"], p["kmax"])
        L = p["grid_l"] if p["grid_l"] is not None else default_half_width(p["n"], p["kmax"])
        return tr, make_grid(p["n"], L, p["grid_m"])
    except ValueError as exc:
        raise click.UsageError(str(exc))


@click.group()
@click.version_option(__version__)
def main():
    """Numerical toolkit for the twisted-Laplacian spectral inequalities."""


@main.command("verify-basis", params=_common_options())
def verify_basis(**p):
    """Orthonormality and eigenrelation of the truncated eigenbasis."""
    tr, grid = _discretization(p)
    try:
        results = [checks.gram_identity(tr, grid), checks.eigenrelation(tr, grid)]
    except ValueError as exc:  # a grid too coarse for the Laplacian, a usage error as in _discretization
        raise click.UsageError(str(exc))
    finish(results, p, {"gram_error": results[0].value, "max_eigen_residual": results[1].value})


@main.command("verify-kernel", params=_common_options())
def verify_kernel(**p):
    """Closed-form kernel against the diagonal spectral propagator."""
    tr, grid = _discretization(p)
    rng = np.random.default_rng(p["seed"])
    c = rng.standard_normal(len(tr)) + 1j * rng.standard_normal(len(tr))
    results = [
        checks.kernel_vs_spectral(c, tr, grid, ComplexTime(0.5, 0.3)),
        checks.kernel_modulus_law(np.linspace(0.3, math.pi - 0.3, 7), (0.0, 1.0 + 0.5j), p["n"]),
        checks.periodicity(c, tr, 1.0),
        checks.unitarity(c, tr, 1.0),
    ]
    finish(results, p, {"kernel_vs_spectral": results[0].value, "kernel_bound": results[1].value})


@main.command("schatten-bound", params=_common_options())
@click.option("--trials", type=click.IntRange(min=1), default=20, help="number of random weights")
def schatten_bound(trials, **p):
    """Schatten-4 bound for sandwiched projections over random weights."""
    tr, grid = _discretization(p)
    arr = checks.schatten_ratios(tr, p["nt"], grid, range(p["seed"], p["seed"] + trials))
    results = [
        checks.weight_ratios_finite(arr),
        checks.max_over_median(arr),
    ]
    header, rows = ["trial", "ratio"], [(k, float(r)) for k, r in enumerate(arr)]
    payload = {"header": header, "rows": rows, "max_ratio": float(arr.max()), "median_ratio": float(np.median(arr))}
    finish(results, p, payload, (header, rows))


@main.command("singularity", params=_common_options())
def singularity_cmd(**p):
    """Abel-regularized singularity expansion and kernel blow-up rates."""
    _discretization(p)  # unused here, but invalid common flags are rejected as everywhere
    ts = tuple(np.linspace(0.2, math.pi - 0.2, 9))
    cfg = default_config(-0.5, 1e-4, t_samples=ts)
    times, abel, singular = remainder_profile(cfg)
    _, fine_abel, fine_singular = remainder_profile(default_config(-0.5, 1e-5, t_samples=ts))
    remainder = abel - singular
    results = [checks.remainder_tau_stable(remainder, fine_abel - fine_singular), checks.kernel_rate_law(p["n"])]
    payload = {"t": list(times), "remainder_abs": [float(a) for a in np.abs(remainder)],
               "sup_abs": float(np.abs(remainder).max())}
    header = ["z_re", "z_im", "t", "tau", "abel_re", "abel_im", "singular_re", "singular_im", "remainder_abs"]
    rows = [
        (cfg.z.real, cfg.z.imag, t, cfg.tau, a.real, a.imag, s.real, s.imag, abs(r))
        for t, a, s, r in zip(times, abel, singular, remainder)
    ]
    finish(results, p, payload, (header, rows))


@main.command("strichartz-sweep", params=_common_options())
@click.option("--trials", type=click.IntRange(min=1), default=20, help="random systems per size")
def strichartz_sweep(trials, **p):
    """Mixed-norm quotient sweep over exponents, sizes, and random systems."""
    tr, grid = _discretization(p)
    sizes = tuple(N for N in (1, 2, 4, 8, 16) if N <= len(tr))
    try:
        growth = eigenfunction_growth(tr, p["nt"], grid, sizes)
    except ValueError as exc:  # a truncation too small for the growth fit, a usage error as in _discretization
        raise click.UsageError(str(exc))
    rows = sweep(tr, p["nt"], grid, sizes, trials, p["seed"])
    results = [
        checks.ratios_finite(np.array([row[5] for row in rows])),
        checks.single_mode_closed_form(tr, p["nt"], grid),
        checks.growth_exponent(growth),
    ]
    cell_max = {}
    for _, _, q, N, _, ratio, _, _ in rows:
        cell_max[q, N] = float(np.maximum(cell_max.get((q, N), 0.0), ratio))  # a NaN ratio stays NaN
    cells = {f"q={q},N={N}": v for (q, N), v in sorted(cell_max.items())}
    # sweep takes every p on the admissible line, so "off_line_cells" is always empty;
    # it stays in the payload because the stored reference outputs hold the key
    payload = {"max_ratio": results[0].value, "growth_exponent": growth, "max_ratio_by_cell": cells,
               "off_line_cells": [], "n_rows": len(rows)}
    finish(results, p, payload, (["n", "p", "q", "N", "trial", "ratio", "lhs", "rhs"], rows))


@main.command("duality-check", params=_common_options(kmax=6))
@click.option("--trials", type=click.IntRange(min=1), default=20, help="number of paired samples")
def duality_cmd(trials, **p):
    """Both sides of the sandwich/density duality on paired samples."""
    tr, grid = _discretization(p)
    weights = random_smoothed_weights(p["nt"], grid, range(p["seed"], p["seed"] + trials))
    alpha = 4.0
    sandwich, density, skipped = duality_check(tr, grid, weights, alpha=alpha, density_exponents=(2.0, 2.0))
    max_sandwich, max_density = float(sandwich.max()), float(density.max())
    results = [checks.constants_finite(max_sandwich, max_density),
               checks.constants_comparable(max_sandwich, max_density)]
    payload = {"alpha": alpha, "max_sandwich_ratio": max_sandwich, "max_density_ratio": max_density,
               "factor": results[1].value, "skipped": skipped}
    finish(results, p, payload)


if __name__ == "__main__":
    main()
