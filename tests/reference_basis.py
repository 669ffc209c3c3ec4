"""The closed-form basis builder as it stood before it multiplied in place: a bitwise oracle.

``reference_basis_matrix`` picks the n = 1 rows out of the (mu, nu) table
with index arrays at every n and forms the phase and radial products as new
arrays.  ``specherm.basis.basis_matrix`` reads the n = 1 table in place and
multiplies into the phase rows, with the same operands in the same order, so
the two must agree bit for bit.
"""
from __future__ import annotations

import math

import numpy as np

from specherm.basis import laguerre_table

_I_POWERS = np.array([1, 1j, -1, -1j])


def reference_sh1d(mu, nu, x, y) -> np.ndarray:
    mu, nu = np.asarray(mu), np.asarray(nu)
    d = mu - nu
    k_max = int(np.maximum(mu, nu).max())
    point_axes = (...,) + (None,) * x.ndim
    radial = laguerre_table(k_max, 0.5 * (x * x + y * y))[np.abs(d), np.minimum(mu, nu)]
    phases = np.exp(-1j * np.arange(-k_max, k_max + 1)[point_axes] * np.arctan2(y, x))
    return (2.0 * math.pi) ** (-0.5) * _I_POWERS[np.abs(d) % 4][point_axes] * phases[d + k_max] * radial


def reference_basis_matrix(tr, grid) -> np.ndarray:
    x, y = np.meshgrid(grid.axis, grid.axis, indexing="ij")
    degrees = np.arange(tr.k_max + 1)
    table = reference_sh1d(degrees[:, None], degrees[None, :], x, y)
    out = table[tr.mu[:, 0], tr.nu[:, 0]]
    for j in range(1, tr.n):
        factor = table[tr.mu[:, j], tr.nu[:, j]]
        out = out[..., None, None] * np.expand_dims(factor, tuple(range(1, out.ndim)))
    return out
