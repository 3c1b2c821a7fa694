"""Transfer matrix of a square-lattice hole array in a thin metal film.

The film is modeled as a direct (non-resonant) transmission term plus dyadic
surface-mode resonances.  Each resonance family is a set of reciprocal-lattice
orders closed under the square-lattice point group; order G contributes a
projector onto the unit vector (q + G)/|q + G| weighted by a unit-peak complex
Lorentzian in wavelength centered at the momentum-matching wavelength
lambda_G(q) = 2 pi n_eff / |q + G|.

Everything is expressed in the lab (x, y) frame, so the returned matrix obeys
F_lab(q) = R(phi_q)^-1 F_rot(q) R(phi_q) with respect to any rotated-frame
formulation.  Alternatively a tabulated grid of matrices (from an external
rigorous solver) can be loaded; it is interpolated bilinearly and never
extrapolated; it must be point-group symmetric, as an analytic film is.

``film_matrix_grid`` is the one evaluator for both kinds of film: qx, qy and
lambda may be scalars or arrays of any shapes that broadcast together, and
each of the four returned component arrays has the broadcast shape.  An
aperture sample is a flat q array at one wavelength; a spectrum is q and
lambda arrays along the wavelength axis.  ``film_matrix`` is its one-point
case.

Units: lengths and wavelengths in nm, transverse wavevectors in nm^-1.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ResonanceFamily",
    "FilmModel",
    "TableRangeError",
    "TabulatedGrid",
    "default_film",
    "resonance_wavelength",
    "film_matrix",
    "film_matrix_grid",
    "transmittance",
    "load_tabulated",
    "save_tabulated",
]

# point group of the square lattice, 4 rotations x 2 reflections, each an
# integer matrix ((a, b), (c, d)) acting on lattice orders (m1, m2)
_QUARTER_TURNS = [(1, 0), (0, 1), (-1, 0), (0, -1)]
_POINT_GROUP = ([((c, -s), (s, c)) for c, s in _QUARTER_TURNS]
                + [((c, -s), (-s, -c)) for c, s in _QUARTER_TURNS])

TABULATED_HEADER = "qx,qy,lambda_nm,re_xx,im_xx,re_xy,im_xy,re_yx,im_yx,re_yy,im_yy"

SYMMETRY_TOL = 1e-8  # relative asymmetry of a table: the rounding of save_tabulated's "%.8e"


class TableRangeError(ValueError):
    """A requested (q, lambda) lies outside the range of a tabulated film."""


def _point_group_closure(orders):
    return frozenset((a * m1 + b * m2, c * m1 + d * m2)
                     for m1, m2 in orders for (a, b), (c, d) in _POINT_GROUP)


@dataclass(frozen=True)
class ResonanceFamily:
    """One surface-mode resonance: a point-group-closed set of lattice orders.

    lambda0 is the resonance wavelength at normal incidence (nm), width the
    Lorentzian half-width (nm), amplitude the complex peak transmission
    amplitude per order.  n_eff is derived from lambda0 and the lattice period.
    """

    orders: frozenset
    lambda0: float
    width: float
    amplitude: complex
    n_eff: float

    @staticmethod
    def make(seed_order, lambda0, width, amplitude, period):
        """Build a family from one seed order, closing it under the point group."""
        for name, value in (("lambda0", lambda0), ("width", width), ("period", period)):
            if value <= 0:
                raise ValueError(f"{name} must be positive")
        orders = _point_group_closure([seed_order])
        m1, m2 = seed_order
        n_eff = lambda0 * np.hypot(m1, m2) / period
        if n_eff <= 1.0:
            raise ValueError(f"effective index {n_eff:.4f} must exceed 1")
        return ResonanceFamily(orders, float(lambda0), float(width), complex(amplitude), n_eff)


@dataclass(frozen=True)
class TabulatedGrid:
    """Rectangular, point-group symmetric grid of film matrices on (qx, qy, lambda).

    On its nodes qx = qy = -qx[::-1], and F(R q) = R F(q) R^T for the x and diagonal
    mirrors, which generate the group, to SYMMETRY_TOL of max |q| or max |F|; else ValueError.
    """

    qx: np.ndarray
    qy: np.ndarray
    lam: np.ndarray
    # shape (n_lam, n_qx, n_qy, 2, 2)
    matrices: np.ndarray

    def __post_init__(self):
        qx, qy, m = self.qx, self.qy, self.matrices
        if qx.shape != qy.shape:
            raise ValueError(f"film table is not point-group symmetric: {qx.size} qx, {qy.size} qy")
        # x mirror: xy and yx change sign; diagonal mirror: xx <-> yy, xy <-> yx
        axes = max(np.max(np.abs(qx + qx[::-1])), np.max(np.abs(qy - qx)))
        mats = max(np.max(np.abs(m[:, ::-1] - m * np.array([[1, -1], [-1, 1]]))),
                   np.max(np.abs(m.transpose(0, 2, 1, 3, 4) - m[..., ::-1, ::-1])))
        for what, worst, scale in (("q axes", axes, np.max(np.abs([qx, qy]))),
                                   ("matrices", mats, np.max(np.abs(m)))):
            if not worst <= SYMMETRY_TOL * scale:
                raise ValueError(f"film table is not point-group symmetric: {what} asymmetry "
                                 f"{worst / scale:.3g} exceeds the tolerance {SYMMETRY_TOL:g}")


@dataclass(frozen=True)
class FilmModel:
    """Hole-array film: lattice period, direct amplitude and resonance families.

    A film with a ``tabulated`` grid is interpolated from it instead.
    """

    period: float
    direct_amplitude: complex
    families: tuple
    tabulated: TabulatedGrid | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.period <= 0:
            raise ValueError("lattice period must be positive")


def default_film(
    gamma_diagonal_nm: float = 4.0,
    gamma_axis_nm: float = 5.0,
    peak_transmittance: float = 0.03,
    direct_amplitude: complex = 0.03,
    axis_amplitude_scale: float = 0.38,
    period: float = 700.0,
    lambda_diagonal: float = 797.0,
    lambda_axis: float = 728.0,
) -> FilmModel:
    """Film calibrated to the 797 nm diagonal and 728 nm axis resonances.

    The per-order amplitude is chosen so the normal-incidence peak
    transmittance of the diagonal family equals ``peak_transmittance``
    (the four diagonal dyads sum to twice the identity at q = 0).  The
    axis family is weaker by ``axis_amplitude_scale`` and slightly broader
    than the diagonal one; together with the direct amplitude these ratios
    balance the resonance rings the two families sweep across the telescope
    aperture so that the focused-case visibility asymmetry, its exchange at
    the axis resonance, and the clean off-diagonal polarization maps all
    hold at the default 8 degree semiaperture.
    """
    if not peak_transmittance > abs(direct_amplitude) ** 2:
        raise ValueError("peak transmittance must exceed the direct intensity")
    amp = 0.5 * (np.sqrt(peak_transmittance) - abs(direct_amplitude))
    fam_diag = ResonanceFamily.make((1, 1), lambda_diagonal, gamma_diagonal_nm,
                                    amp, period)
    fam_axis = ResonanceFamily.make((1, 0), lambda_axis, gamma_axis_nm,
                                    amp * axis_amplitude_scale, period)
    return FilmModel(period=period, direct_amplitude=complex(direct_amplitude),
                     families=(fam_diag, fam_axis))


def resonance_wavelength(family: ResonanceFamily, order, q, period: float) -> float:
    """Momentum-matching wavelength of one order at transverse wavevector q.

    Solves |q + G| = 2 pi n_eff / lambda with G = (2 pi / period)(m1, m2).
    """
    m1, m2 = order
    gx = 2.0 * np.pi * m1 / period
    gy = 2.0 * np.pi * m2 / period
    norm = np.hypot(q[0] + gx, q[1] + gy)
    if norm == 0.0:
        raise ValueError(f"order {order} is singular at q = {tuple(q)}")
    return 2.0 * np.pi * family.n_eff / norm


def _analytic_matrix_grid(model: FilmModel, qx: np.ndarray, qy: np.ndarray,
                          lam: np.ndarray):
    """Vectorized analytic F_lab over broadcast arrays of (q, lambda)."""
    shape = np.broadcast_shapes(qx.shape, qy.shape, lam.shape)
    fxx = np.full(shape, model.direct_amplitude, dtype=complex)
    fyy = fxx.copy()
    fxy = np.zeros(shape, dtype=complex)
    for fam in model.families:
        for (m1, m2) in sorted(fam.orders):
            gx = 2.0 * np.pi * m1 / model.period
            gy = 2.0 * np.pi * m2 / model.period
            ux = qx + gx
            uy = qy + gy
            norm = np.hypot(ux, uy)
            if np.any(norm == 0.0):
                raise ValueError(f"order {(m1, m2)} singular inside the requested q range")
            ux = ux / norm
            uy = uy / norm
            lam_res = 2.0 * np.pi * fam.n_eff / norm
            lor = fam.amplitude * (1j * fam.width) / (lam - lam_res + 1j * fam.width)
            fxx += lor * ux * ux
            fyy += lor * uy * uy
            fxy += lor * ux * uy
    # every dyad u u^T is symmetric; the copy keeps the four arrays independent
    return fxx, fxy, fxy.copy(), fyy


def film_matrix_grid(model: FilmModel, qx, qy, lam):
    """F_lab component arrays (fxx, fxy, fyx, fyy) over broadcast (q, lambda).

    qx, qy (nm^-1) and lam (nm) are scalars or arrays whose shapes broadcast
    together; every returned component is a complex array of the broadcast
    shape, so one call covers a flat aperture sample at one wavelength, a
    spectrum along its wavelength axis, or a single point (0-d arrays).
    Raises ValueError if any wavelength is not positive, and TableRangeError
    if a tabulated film does not cover a requested point.
    """
    qx = np.asarray(qx, dtype=float)
    qy = np.asarray(qy, dtype=float)
    lam = np.asarray(lam, dtype=float)
    if not np.all(lam > 0):
        raise ValueError("wavelength must be positive")
    if model.tabulated is not None:
        return _interpolate_tabulated(model.tabulated, qx, qy, lam)
    return _analytic_matrix_grid(model, qx, qy, lam)


def film_matrix(model: FilmModel, q, lam: float) -> np.ndarray:
    """Lab-frame film transfer matrix F_lab(q, lambda) as a 2x2 complex array."""
    fxx, fxy, fyx, fyy = film_matrix_grid(model, q[0], q[1], lam)
    return np.array([[fxx, fxy], [fyx, fyy]], dtype=complex)


def transmittance(model: FilmModel, q, lam: float, pol: np.ndarray) -> float:
    """Transmitted intensity fraction |F_lab(q, lambda) pol|^2 for unit pol."""
    out = film_matrix(model, q, lam) @ np.asarray(pol, dtype=complex)
    return float(np.real(np.vdot(out, out)))


# ---------------------------------------------------------------------------
# tabulated grids
# ---------------------------------------------------------------------------

def _interpolate_tabulated(grid: TabulatedGrid, qx: np.ndarray, qy: np.ndarray,
                          lam: np.ndarray):
    """Bilinear in (qx, qy), linear in lambda over broadcast arrays.

    Returns the four component arrays (fxx, fxy, fyx, fyy); refuses to
    extrapolate, naming the first value outside the table.
    """
    # (lambda, qx, qy) flattened: one base index per point, a fixed offset
    # per axis to the upper neighbour (0 on a size-1 axis)
    base, frac, step = 0, [], []
    for axis, value, name, stride in (
            (grid.qx, qx, "qx", grid.qy.size), (grid.qy, qy, "qy", 1),
            (grid.lam, lam, "lambda", grid.qx.size * grid.qy.size)):
        bad = ~((value >= axis[0]) & (value <= axis[-1]))
        if np.any(bad):
            raise TableRangeError(
                f"{name} = {value[bad].flat[0]:g} outside tabulated range "
                f"[{axis[0]:g}, {axis[-1]:g}]")
        if axis.size == 1:
            frac.append(np.zeros(value.shape))
            step.append(0)
            continue
        i = np.minimum(np.searchsorted(axis, value, side="right") - 1, axis.size - 2)
        frac.append((value - axis[i]) / (axis[i + 1] - axis[i]))
        base = base + i * stride
        step.append(stride)
    (tx, ty, tl), (dx, dy, dl) = frac, step
    # the four bilinear weights, shared by every component and both lambda
    # planes; tx and ty go, so that the weights add no memory
    w00, w10, w01, w11 = (1 - tx) * (1 - ty), tx * (1 - ty), (1 - tx) * ty, tx * ty
    del frac, tx, ty

    # each sum runs in place, in the operand order of the bilinear formula,
    # so the results keep every bit; a plane is the left operand of its
    # scaling, so NumPy scales it in place.  Both keep the peak memory down.
    def component(m):
        c = m.reshape(-1)

        def plane(b):
            out = w00 * c[b]
            out += w10 * c[b + dx]
            out += w01 * c[b + dy]
            out += w11 * c[b + dx + dy]
            return out

        return plane(base) * (1 - tl) + plane(base + dl) * tl

    m = grid.matrices
    return (component(m[..., 0, 0]), component(m[..., 0, 1]),
            component(m[..., 1, 0]), component(m[..., 1, 1]))


def _distinct(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values of a finite 1-D array.

    What ``np.unique`` returns, without its first-call import of numpy.ma.
    """
    s = np.sort(values)
    return s[np.append(True, s[1:] != s[:-1])]


def load_tabulated(path, period: float = 700.0, direct_amplitude: complex = 0.0) -> FilmModel:
    """Load a tabulated film-matrix grid from CSV (see TABULATED_HEADER).

    The rows must list each point of a nonempty rectangular (qx, qy, lambda)
    grid once, sorted lexicographically by (lambda, qx, qy), with finite
    entries.  Every malformed table raises ValueError with a one-line message.
    """
    expected = TABULATED_HEADER.split(",")
    with open(path) as fh:
        if fh.readline().strip() != TABULATED_HEADER:
            raise ValueError(f"tabulated film header must be exactly '{TABULATED_HEADER}'")
        # loadtxt streams the file; it would only warn on an empty body
        first = next((line for line in fh if line.strip()), None)
        if first is None:
            raise ValueError("tabulated film has no rows")
        data = np.loadtxt(itertools.chain([first], fh), delimiter=",", ndmin=2)
    if data.shape[1] != len(expected):
        raise ValueError(f"tabulated film rows must have {len(expected)} entries")
    finite = np.isfinite(data).all(axis=0)
    if not finite.all():
        raise ValueError(f"non-finite entries in column {expected[np.argmin(finite)]}")

    lam_ax, qx_ax, qy_ax = (_distinct(data[:, k]) for k in (2, 0, 1))
    shape = (lam_ax.size, qx_ax.size, qy_ax.size)
    if data.shape[0] != np.prod(shape):
        raise ValueError("tabulated grid is not rectangular in (qx, qy, lambda)")
    # row by row, the coordinates must be those of the grid: this also
    # refuses a repeated row standing in for a missing one
    for axis, column in ((lam_ax[:, None, None], 2), (qx_ax[:, None], 0), (qy_ax, 1)):
        if not np.array_equal(data[:, column].reshape(shape), np.broadcast_to(axis, shape)):
            raise ValueError("rows must list each grid point once, sorted "
                             "lexicographically by (lambda, qx, qy)")

    # columns re_xx, im_xx, re_xy, ... : xx, xy, yx, yy in row-major 2x2 order
    mats = (data[:, 3::2] + 1j * data[:, 4::2]).reshape(*shape, 2, 2)
    grid = TabulatedGrid(qx=qx_ax, qy=qy_ax, lam=lam_ax, matrices=mats)
    return FilmModel(period=period, direct_amplitude=complex(direct_amplitude),
                     families=(), tabulated=grid)


def save_tabulated(model: FilmModel, path) -> None:
    """Write the tabulated grid of ``model`` back to CSV (round-trips load)."""
    if model.tabulated is None:
        raise ValueError("film model has no tabulated grid to save")
    g = model.tabulated
    lam, qx, qy = np.meshgrid(g.lam, g.qx, g.qy, indexing="ij")
    m = g.matrices.reshape(-1, 4)
    table = np.column_stack([qx.ravel(), qy.ravel(), lam.ravel(),
                             np.stack([m.real, m.imag], axis=-1).reshape(-1, 8)])
    np.savetxt(path, table, fmt="%.8e", delimiter=",", header=TABULATED_HEADER,
               comments="")
