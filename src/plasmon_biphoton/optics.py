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
a square grid masked to the aperture disc; the grid is symmetric under the
square-lattice point group so that the symmetry properties of the film carry
over to T exactly up to floating point.  On that tensor grid the phase
factor separates into exp(i a (q2x - mag q3x)^2) exp(i a (q2y - mag q3y)^2),
so T on a tensor grid of q3 is two matrix products per Jones component (the
matrix Fourier transform of Soummer et al., Opt. Express 15, 15935 (2007)).
The film is sampled once per point-group orbit for analytic films, which
are point-group symmetric by construction, and T is contracted on one
quadrant with parity-folded kernels; a tabulated film is sampled once per
grid point.  The grid density is the caller's choice (``n_grid``); nothing
here refines it or estimates its error.

The overall scalar normalization of T is arbitrary (one global constant per
setup); all downstream observables are invariant under it.

This module computes maps and opens no files; ``scenarios`` writes them.

Units: nm, nm^-1, radians.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .film import FilmModel, default_film, film_matrix_grid
from .jones import ellipse_arrays

__all__ = [
    "SetupParams",
    "GridSpec",
    "FieldMap",
    "telescope_matrix",
    "transfer_map",
    "field_map",
]

DEFAULT_QUAD_POINTS = 201
PARAXIAL_LIMIT_RAD = 0.3


@dataclass(frozen=True)
class SetupParams:
    """Geometry of the telescope, substrate and film.

    lam : wavelength in nm
    f : lens focal length in nm
    n : substrate refractive index
    delta : substrate thickness in nm
    theta_ap : telescope semiaperture in radians, measured at the film (on q2)
    film : hole-array film model
    """

    lam: float
    f: float
    n: float
    delta: float
    theta_ap: float
    film: FilmModel

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

    @staticmethod
    def paper_defaults(lam: float = 797.0, theta_ap_deg: float = 8.0,
                       film: FilmModel | None = None) -> "SetupParams":
        """f = 15 mm, n = 1.52, Delta = 0.5 mm, default calibrated film."""
        return SetupParams(
            lam=lam, f=15e6, n=1.52, delta=0.5e6,
            theta_ap=np.deg2rad(theta_ap_deg),
            film=film if film is not None else default_film(),
        )


@dataclass(frozen=True)
class GridSpec:
    """Output q3 grid: n x n points, half-extent theta3_max_deg (None = mapped aperture)."""

    n: int = 41
    theta3_max_deg: float | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("grid size must be at least 1")


@dataclass(frozen=True)
class FieldMap:
    """Output Jones field on a square q3 grid with derived polarization data.

    fields[i, j] is the Jones vector at (q3x_axis[i], q3y_axis[j]).  The
    relative phases between grid points are carried along but are not
    physically meaningful for coincidence observables.
    """

    q3x_axis: np.ndarray
    q3y_axis: np.ndarray
    fields: np.ndarray
    intensity: np.ndarray
    psi: np.ndarray
    axis_ratio: np.ndarray
    theta3_max_deg: float


def _transfer_grid(setup: SetupParams, q3x, q3y, n_grid: int) -> np.ndarray:
    """T(q3) on the tensor grid q3x x q3y; returns shape (Mx, My, 2, 2).

    The film is sampled on the midpoint points of an n_grid x n_grid square
    masked to the aperture disc, a point set symmetric under the
    square-lattice point group for any n_grid.  The phase factor separates
    by axis,

        exp(i a |q2 - mag q3|^2) = kx[i, u] ky[j, v],

    so each Jones component G, with zeros outside the disc, becomes
    kx @ G @ ky.T.  Components are transformed one at a time, so memory
    stays O(n_grid^2).

    An analytic film obeys F(R q) = R F(q) R^T for the whole point group,
    so it is sampled once per point-group orbit: on the wedge
    0 <= q2y <= q2x of the disc, on the axis (i - (n_grid - 1) / 2) h, which
    is exactly antisymmetric.  The diagonal mirror fills the rest of the
    qx, qy >= 0 quadrant (xx <-> yy, xy <-> yx).  The axis mirrors make
    G_xx and G_yy even in each axis and G_xy and G_yx odd, so each component
    is contracted on the quadrant alone with the folded kernels
    k(+q) + k(-q) and k(+q) - k(-q); the q = 0 column of an odd n_grid is
    counted once.  The symmetry of T thus holds by construction, up to
    rounding in the matrix products.  A tabulated film is not assumed
    symmetric: it is sampled on the whole disc of the axis
    -r + (i + 1/2) h and contracted on the full square.
    """
    r = setup.q2_max
    if r <= 0.0:
        raise ValueError("telescope quadrature needs a positive semiaperture")
    h = 2.0 * r / n_grid

    def kernel(q3_axis, q2_axis):
        centers = setup.magnification * np.asarray(q3_axis, dtype=float)
        return np.exp(1j * setup.alpha * (q2_axis[None, :] - centers[:, None]) ** 2)

    if setup.film.tabulated is not None:
        axis = -r + (np.arange(n_grid) + 0.5) * h
        qx, qy = np.meshgrid(axis, axis, indexing="ij")
        mask = qx ** 2 + qy ** 2 <= r * r
        components = film_matrix_grid(setup.film, qx[mask], qy[mask], setup.lam)
        kx, ky = kernel(q3x, axis), kernel(q3y, axis)
        out = np.empty((kx.shape[0], ky.shape[0], 4), dtype=complex)
        g = np.zeros((n_grid, n_grid), dtype=complex)
        for c, values in enumerate(components):
            g[mask] = values
            out[..., c] = kx @ g @ ky.T
        return out.reshape(kx.shape[0], ky.shape[0], 2, 2) * (h * h)

    # exactly antisymmetric, so -half is the mirror image of the q >= 0 half
    axis = (np.arange(n_grid) - 0.5 * (n_grid - 1)) * h
    half = axis[n_grid // 2:]
    a, b = np.nonzero(np.tril(half[:, None] ** 2 + half[None, :] ** 2 <= r * r))
    fxx, fxy, fyx, fyy = film_matrix_grid(setup.film, half[a], half[b], setup.lam)

    def folded(q3_axis):
        plus, minus = kernel(q3_axis, half), kernel(q3_axis, -half)
        even, odd = plus + minus, plus - minus
        if n_grid % 2:
            even[:, 0] = plus[:, 0]
        return even, odd

    (xe, xo), (ye, yo) = folded(q3x), folded(q3y)
    out = np.empty((xe.shape[0], ye.shape[0], 4), dtype=complex)
    g = np.zeros((half.size, half.size), dtype=complex)
    for c, (values, mirrored, kx, ky) in enumerate([
            (fxx, fyy, xe, ye), (fxy, fyx, xo, yo), (fyx, fxy, xo, yo), (fyy, fxx, xe, ye)]):
        g[b, a] = mirrored
        g[a, b] = values
        out[..., c] = kx @ g @ ky.T
    return out.reshape(xe.shape[0], ye.shape[0], 2, 2) * (h * h)


def telescope_matrix(q3, setup: SetupParams, n_grid: int = DEFAULT_QUAD_POINTS) -> np.ndarray:
    """Telescope-plus-film transfer matrix T(q3, 0) by aperture quadrature."""
    return _transfer_grid(setup, [q3[0]], [q3[1]], n_grid)[0, 0]


def _q3_axis(grid_spec: GridSpec, setup: SetupParams) -> tuple[np.ndarray, float]:
    """Symmetric q3 axis of ``grid_spec`` and its half-extent theta3_max in radians."""
    if grid_spec.theta3_max_deg is None:
        theta3_max = setup.theta_ap / setup.magnification
    else:
        theta3_max = np.deg2rad(grid_spec.theta3_max_deg)
    q3_max = setup.k * np.sin(theta3_max)
    axis = np.linspace(-q3_max, q3_max, grid_spec.n) if grid_spec.n > 1 \
        else np.zeros(1)
    return axis, theta3_max


def transfer_map(grid_spec: GridSpec, setup: SetupParams,
                 n_grid: int = DEFAULT_QUAD_POINTS) -> np.ndarray:
    """T(q3) over the symmetric square q3 grid of ``grid_spec``; shape (n, n, 2, 2)."""
    axis, _ = _q3_axis(grid_spec, setup)
    return _transfer_grid(setup, axis, axis, n_grid)


def field_map(input_pol: np.ndarray, grid_spec: GridSpec, setup: SetupParams,
              n_grid: int = DEFAULT_QUAD_POINTS) -> FieldMap:
    """Output field T(q3) input_pol over a symmetric square q3 grid, with its ellipses."""
    input_pol = np.asarray(input_pol, dtype=complex)
    norm = np.sqrt(np.real(np.vdot(input_pol, input_pol)))
    if not np.isclose(norm, 1.0, atol=1e-9):
        raise ValueError("input polarization must be normalized")
    axis, theta3_max = _q3_axis(grid_spec, setup)
    fields = _transfer_grid(setup, axis, axis, n_grid) @ input_pol
    intensity, psi, ratio = ellipse_arrays(fields[..., 0], fields[..., 1])
    return FieldMap(
        q3x_axis=axis, q3y_axis=axis.copy(), fields=fields,
        intensity=intensity, psi=psi, axis_ratio=ratio,
        theta3_max_deg=float(np.rad2deg(theta3_max)),
    )
