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
quadrant with parity-folded kernels, on the distinct |q3| only: T keeps its
diagonal mirror exactly, T_yy and T_yx being the transposes of the two
contractions T_xx and T_xy, and on an exactly antisymmetric q3 axis its axis
mirrors too, bit for bit.  The grid density is the caller's choice
(``n_grid``); nothing here makes it finer or estimates its error.

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

import os
from dataclasses import dataclass

import numpy as np

from .film import FilmModel, TabulatedGrid, film_matrix_grid

__all__ = ["SetupParams", "transfer", "q3_axis"]

PARAXIAL_LIMIT_RAD = 0.3

# wedge points per film sample: a chunk's film temporaries stay in cache
_FILM_CHUNK = 8192


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
        if not self.magnification < np.inf:
            raise ValueError("angular magnification n f / ((n - 1) delta) must be finite")
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
    The axis may be unsorted and hold repeats.

    The film is sampled at the midpoints of an n_grid x n_grid square masked
    to the aperture disc, a point set symmetric under the square-lattice
    point group for any n_grid.  The phase factor separates by axis,

        exp(i a |q2 - mag q3|^2) = k[i, u] k[j, v],

    so each Jones component G, with zeros outside the disc, becomes
    k @ G @ k.T.  Components are transformed one at a time in one quadrant
    buffer, so memory stays O(n_grid^2).

    The film obeys F(R q) = R F(q) R^T for the whole point group, so it is
    sampled once per point-group orbit: on the wedge 0 <= q2y <= q2x of the
    disc, on the q >= 0 half of the midpoint axis (i - (n_grid - 1) / 2) h,
    whose other half is exactly its mirror image.  The diagonal mirror fills
    the rest of the qx, qy >= 0 quadrant (xx <-> yy, xy <-> yx), which makes
    G_yy = G_xx^T and G_yx = G_xy^T.  The axis mirrors make G_xx even in
    each axis and G_xy odd, so each is contracted on the quadrant alone with
    the folded kernels k(+q) + k(-q) and k(+q) - k(-q); the q = 0 column of
    an odd n_grid is counted once.  Only G_xx and G_xy are filled and
    contracted; T_yy = T_xx.T and T_yx = T_xy.T.

    The folded kernel rows are mirror images in q3, bit for bit: the even
    row at -c is the row at c, the odd row its negative.  So the kernels
    are built and contracted on the distinct |q3| of the axis only, and T
    is gathered back from them, T_xy with the product of the two signs.
    T keeps its diagonal mirror and, on an exactly antisymmetric axis such
    as ``q3_axis``, its axis mirrors bit for bit.  Each contraction is two
    real matrix products on the float views of the complex arrays
    (``_contract``).  OpenBLAS threads a complex product from 65 536
    M N K on, a real one only from about 1e6, so at 201 grid points the
    contractions stay on the calling thread up to about 48 q3 points.

    The film is sampled in chunks of ``_FILM_CHUNK`` wedge points, in the
    wedge's own order, so the film evaluator's temporaries stay in cache
    and scale with the chunk, not the wedge.  Each chunk's xx and yy
    components go straight into the quadrant and are dropped; its xy and
    yx components are held until the G_xx contraction is done and then
    scattered into the same quadrant.  Every entry of G is the value a
    single film call would give, so T does not depend on the chunk size,
    bit for bit.

    Before any array is made, the peak memory of the call is predicted
    (``_peak_bytes``); MemoryError if it exceeds the machine's physical
    memory.
    """
    r = setup.q2_max
    if r <= 0.0:
        raise ValueError("telescope quadrature needs a positive semiaperture")
    h = 2.0 * r / n_grid
    centers = setup.magnification * np.asarray(q3, dtype=float)
    # row of each q3 among the distinct |q3|, in order of first appearance
    distinct = {}
    rows = np.array([distinct.setdefault(c, len(distinct)) for c in np.abs(centers).tolist()],
                    dtype=np.intp)
    need, have = _peak_bytes(n_grid, centers.size, len(distinct)), _physical_memory()
    if have is not None and need > have:
        raise MemoryError(f"the aperture transform needs about {need / 2 ** 30:.3g} GiB, "
                          f"more than the {have / 2 ** 30:.3g} GiB of memory")

    # the largest array comes first, so where sysconf cannot tell the memory
    # size, a grid far beyond it still fails at once
    g = np.zeros((n_grid - n_grid // 2,) * 2, dtype=complex)
    half = (np.arange(n_grid // 2, n_grid) - 0.5 * (n_grid - 1)) * h
    a, b = _wedge(half, r)
    # G_xx goes into the quadrant chunk by chunk; G_xy waits, chunk by chunk,
    # for the G_xx contraction to free the quadrant
    off_diagonal = []
    for start in range(0, a.size, _FILM_CHUNK):
        i, j = a[start:start + _FILM_CHUNK], b[start:start + _FILM_CHUNK]
        fxx, fxy, fyx, fyy = film_matrix_grid(setup.film, half[i], half[j], setup.lam)
        g[j, i] = fyy
        g[i, j] = fxx
        off_diagonal.append((i, j, fxy, fyx))
        del fxx, fyy

    folded = np.array(list(distinct), dtype=float)
    plus, minus = (np.exp(1j * setup.alpha * (q2[None, :] - folded[:, None]) ** 2)
                   for q2 in (half, -half))
    even, odd = plus + minus, plus - minus
    if n_grid % 2:
        even[:, 0] = plus[:, 0]
    sign = np.where(centers < 0.0, -1.0, 1.0)
    out = np.empty((centers.size, centers.size, 2, 2), dtype=complex)
    out[..., 0, 0] = _contract(even, g)[rows[:, None], rows]
    for i, j, fxy, fyx in off_diagonal:
        g[j, i] = fyx
        g[i, j] = fxy
    out[..., 0, 1] = _contract(odd, g)[rows[:, None], rows]
    out[..., 0, 1] *= sign[:, None]
    out[..., 0, 1] *= sign
    out[..., 1, 1] = out[..., 0, 0].T
    out[..., 1, 0] = out[..., 0, 1].T
    out *= h * h
    return out


def _wedge(half: np.ndarray, r: float) -> tuple[np.ndarray, np.ndarray]:
    """Indices (a, b) of the wedge b <= a with half[a]**2 + half[b]**2 <= r*r, row by row.

    ``half`` is ascending and not negative, so the rounded sum grows with b
    and each row a is a prefix of the columns b <= a.  ``searchsorted``
    counts it on the rearranged test, and the exact test moves each count
    across the disc edge where the two round differently.  The order is
    that of ``np.nonzero`` on the m x m mask, which is never made.
    """
    sq, rr, m = half ** 2, r * r, half.size
    count = np.searchsorted(sq, rr - sq, side="right")
    while (drop := (count > 0) & ~(sq + sq[np.maximum(count - 1, 0)] <= rr)).any():
        count -= drop
    while (grow := (count < m) & (sq + sq[np.minimum(count, m - 1)] <= rr)).any():
        count += grow
    count = np.minimum(count, np.arange(1, m + 1))
    a = np.repeat(np.arange(m), count)
    return a, np.arange(a.size) - np.repeat(np.cumsum(count) - count, count)


def _contract(k: np.ndarray, g: np.ndarray) -> np.ndarray:
    """k @ g @ k.T for complex k and g, as two real matrix products.

    With k = A + iB, the stack [A; B] times the float view of g holds
    A g and B g with real and imaginary parts interleaved, which combine in
    place into k @ g; the same stack times the float view of (k @ g).T
    gives (k @ g @ k.T).T the same way.
    """
    stack = np.concatenate([k.real, k.imag])
    p = _combine(stack @ g.view(float))
    return _combine(stack @ np.ascontiguousarray(p.T).view(float)).T


def _combine(q: np.ndarray) -> np.ndarray:
    """(A + iB) z from [A; B] @ z.view(float), in place in the top half of q."""
    u = q.shape[0] // 2
    top, bottom = q[:u], q[u:]
    top[:, 0::2] -= bottom[:, 1::2]
    top[:, 1::2] += bottom[:, 0::2]
    return top.view(complex)


def _peak_bytes(n_grid: int, m_out: int, m_folded: int) -> float:
    """Bytes ``transfer`` holds at its peak on an n_grid quadrature onto m_out q3 points.

    With m = n_grid - n_grid // 2, m_folded distinct |q3|, at most
    w = pi m^2 / 8 + m wedge points and c = min(w, _FILM_CHUNK) points in
    a film chunk, the sum of: the complex quadrant, 16 m^2 B; per wedge
    point, the two index arrays and the held complex xy and yx components,
    48 B (the wedge's integer temporaries fit in the same bytes before the
    film is sampled); per chunk point, its two q arrays, the film
    evaluator's temporaries and the chunk's xx and yy components, 176 B;
    per folded kernel entry, the four complex kernels, the real stack, the
    real first product and its transposed copy, 128 B; the real second
    product, 32 m_folded^2 B; the output, one gathered component and the
    buffers of the gather and the sign product, 96 m_out^2 B; and 16 KiB of
    small arrays and Python objects.  The parts are not all alive at once,
    so the sum is above the peak, and from 51 quadrature points on within a
    factor of 2 of it.  It needs no array, so a grid of any size is priced
    at once.
    """
    m = n_grid - n_grid // 2
    wedge = np.pi * m * m / 8 + m
    return (16384.0 + 16.0 * m * m + 48.0 * wedge + 176.0 * min(wedge, _FILM_CHUNK)
            + m_folded * (128.0 * m + 32.0 * m_folded) + 96.0 * m_out ** 2)


def _physical_memory() -> int | None:
    """Bytes of physical memory of the machine, or None where ``os.sysconf`` cannot tell."""
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return None


def q3_axis(setup: SetupParams, n: int, theta3_max: float) -> np.ndarray:
    """n points from -q3_max to q3_max, q3_max = k sin(theta3_max); one point is q3 = 0.

    The half with q3 >= 0 is a linspace, mirrored, so the axis is exactly
    antisymmetric and an odd n holds 0 exactly.
    """
    q3_max = setup.k * np.sin(theta3_max)
    half = np.linspace(q3_max / (n - 1) if n % 2 == 0 else 0.0, q3_max, (n + 1) // 2)
    return np.concatenate([-half[n % 2:][::-1], half])
