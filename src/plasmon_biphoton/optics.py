"""Paraxial multimode propagation through the confocal telescope and film.

The telescope-plus-film transfer matrix connecting a normally incident plane
wave to the output mode q3, in the lab (x, y) basis, is

    T(q3) = Int_{|q2| <= k sin(theta_ap)} dq2
            exp(i a |q2 - mag q3|^2) F_lab(q2, lambda)

In mode-aligned (p, s) bases the same matrix carries an extra rotation by the
azimuth of q3 (the paraxial p direction of mode q3 is the unit vector along
q3); that factor is pure bookkeeping between bases and must not act on
lab-frame fields, polarizers or detectors, so everything here stays in the
lab basis throughout.

with a = (n - 1) Delta / (2 n k) and angular magnification
mag = n f / ((n - 1) Delta).  The integral is evaluated by a midpoint rule on
a square grid masked to the aperture disc.  On that grid the phase factor
separates into exp(i a (q2x - mag q3x)^2) exp(i a (q2y - mag q3y)^2), so T on
the square q3 grid q3 x q3 is two matrix products per Jones component (the
matrix Fourier transform of Soummer et al., Opt. Express 15, 15935 (2007)).
Every film is point-group symmetric (``film`` refuses a table that is not),
so it is sampled once per point-group orbit and T is contracted on one
quadrant with parity-folded kernels: T keeps the point group up to rounding
in the matrix products, and its diagonal mirror exactly, T_yy and T_yx being
the transposes of the two contractions T_xx and T_xy.  The grid density is
the caller's choice (``n_grid``); nothing here refines it or estimates its
error.

The overall scalar normalization of T is arbitrary (one global constant per
setup); all downstream observables are invariant under it.

``transfer`` is the one entry point: T on the square grid over one q3 axis,
with ``q3_axis`` for a symmetric window.
Every observable (output fields and their ellipses, the coincidence form of
the visibility) is a contraction of T that its caller makes.  This module
opens no files.

Units: nm, nm^-1, radians.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .film import FilmModel, TabulatedGrid, film_matrix_grid

__all__ = ["SetupParams", "transfer", "q3_axis"]

PARAXIAL_LIMIT_RAD = 0.3


@dataclass(frozen=True)
class SetupParams:
    """Geometry of the telescope, substrate and film.

    lam : wavelength in nm
    f : lens focal length in nm
    n : substrate refractive index
    delta : substrate thickness in nm
    theta_ap : telescope semiaperture in radians, measured at the film (on q2)
    film : the film, analytic or a table
    """

    lam: float
    f: float
    n: float
    delta: float
    theta_ap: float
    film: FilmModel | TabulatedGrid

    def __post_init__(self):
        for name in ("lam", "f", "delta"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite")
        if self.n <= 1.0:
            raise ValueError("substrate index must exceed 1")
        if not 0.0 <= self.theta_ap <= PARAXIAL_LIMIT_RAD:
            raise ValueError(
                f"semiaperture {self.theta_ap} rad outside paraxial range "
                f"[0, {PARAXIAL_LIMIT_RAD}]")

    @property
    def k(self) -> float:
        return 2.0 * np.pi / self.lam

    @property
    def magnification(self) -> float:
        """Angular magnification theta2 / theta3 = n f / ((n - 1) Delta)."""
        return self.n * self.f / ((self.n - 1.0) * self.delta)

    @property
    def alpha(self) -> float:
        """Quadratic phase coefficient (n - 1) Delta / (2 n k), in nm^2."""
        return (self.n - 1.0) * self.delta / (2.0 * self.n * self.k)

    @property
    def q2_max(self) -> float:
        """Aperture disc radius k sin(theta_ap) in nm^-1."""
        return self.k * np.sin(self.theta_ap)

    @property
    def theta3_max(self) -> float:
        """Half-angle theta_ap / mag of the aperture mapped to the output, in radians."""
        return self.theta_ap / self.magnification


def transfer(setup: SetupParams, q3, n_grid: int) -> np.ndarray:
    """T(q3) on the square grid q3 x q3; returns shape (M, M, 2, 2).

    ``T[i, j]`` is T at (q3[i], q3[j]).  One point (x, y) is
    ``transfer(setup, [x, y], n_grid)[0, 1]``, and q3 = 0 the 1 x 1 grid.

    The film is sampled at the midpoints of an n_grid x n_grid square masked
    to the aperture disc, a point set symmetric under the square-lattice
    point group for any n_grid.  The phase factor separates by axis,

        exp(i a |q2 - mag q3|^2) = k[i, u] k[j, v],

    so each Jones component G, with zeros outside the disc, becomes
    k @ G @ k.T.  Components are transformed one at a time, so memory
    stays O(n_grid^2).

    The film obeys F(R q) = R F(q) R^T for the whole point group, so it is
    sampled once per point-group orbit: on the wedge 0 <= q2y <= q2x of the
    disc, on the q >= 0 half of the midpoint axis (i - (n_grid - 1) / 2) h,
    whose other half is exactly its mirror image.  The diagonal mirror fills
    the rest of the qx, qy >= 0 quadrant (xx <-> yy, xy <-> yx), which makes
    G_yy = G_xx^T and G_yx = G_xy^T.  The axis mirrors make G_xx even in
    each axis and G_xy odd, so each is contracted on the quadrant alone with
    the folded kernels k(+q) + k(-q) and k(+q) - k(-q); the q = 0 column of
    an odd n_grid is counted once.  Only G_xx and G_xy are filled and
    contracted; T_yy = T_xx.T and T_yx = T_xy.T, so the diagonal mirror of
    T holds bit for bit, and the axis mirrors up to rounding in the matrix
    products.
    """
    r = setup.q2_max
    if r <= 0.0:
        raise ValueError("telescope quadrature needs a positive semiaperture")
    h = 2.0 * r / n_grid

    # the largest array comes first, so a grid too large for memory fails at once
    g = np.zeros((n_grid - n_grid // 2,) * 2, dtype=complex)
    half = (np.arange(n_grid // 2, n_grid) - 0.5 * (n_grid - 1)) * h
    a, b = np.nonzero(np.tril(half[:, None] ** 2 + half[None, :] ** 2 <= r * r))
    fxx, fxy, fyx, fyy = film_matrix_grid(setup.film, half[a], half[b], setup.lam)

    centers = setup.magnification * np.asarray(q3, dtype=float)
    plus, minus = (np.exp(1j * setup.alpha * (q2[None, :] - centers[:, None]) ** 2)
                   for q2 in (half, -half))
    even, odd = plus + minus, plus - minus
    if n_grid % 2:
        even[:, 0] = plus[:, 0]
    out = np.empty((centers.size, centers.size, 2, 2), dtype=complex)
    for c, values, mirrored, k in ((0, fxx, fyy, even), (1, fxy, fyx, odd)):
        g[b, a] = mirrored
        g[a, b] = values
        out[..., 0, c] = k @ g @ k.T
        out[..., 1, 1 - c] = out[..., 0, c].T
    return out * (h * h)


def q3_axis(setup: SetupParams, n: int, theta3_max: float) -> np.ndarray:
    """n points from -q3_max to q3_max, q3_max = k sin(theta3_max); one point is q3 = 0.

    The half with q3 >= 0 is a linspace, mirrored, so the axis is exactly
    antisymmetric and an odd n holds 0 exactly.
    """
    q3_max = setup.k * np.sin(theta3_max)
    half = np.linspace(q3_max / (n - 1) if n % 2 == 0 else 0.0, q3_max, (n + 1) // 2)
    return np.concatenate([-half[n % 2:][::-1], half])
