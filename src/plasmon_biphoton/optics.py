"""Paraxial multimode propagation through the confocal telescope and film.

The telescope-plus-film transfer matrix connecting a normally incident plane
wave to the output mode q3, in the lab (x, y) basis, is

    T(q3) = Int_{|q2| <= k sin(theta_ap)} dq2
            exp(i a |q2 - mag q3|^2) F_lab(q2, lambda)

with a = (n - 1) Delta / (2 n k) and angular magnification
mag = n f / ((n - 1) Delta).

In mode-aligned (p, s) bases the same matrix carries an extra rotation by the
azimuth of q3 (the paraxial p direction of mode q3 is the unit vector along
q3); that factor is pure bookkeeping between bases and must not act on
lab-frame fields, polarizers or detectors, so everything here stays in the
lab basis throughout.  The integral is evaluated by a midpoint rule on
a square grid masked to the aperture disc.  On that grid the phase factor
separates into exp(i a (q2x - mag q3x)^2) exp(i a (q2y - mag q3y)^2), so T on
the square q3 grid q3 x q3 is two matrix products per Jones component (the
matrix Fourier transform of Soummer et al., Opt. Express 15, 15935 (2007)).
Every film is point-group symmetric (``film`` refuses a table that is not),
so it is sampled once per point-group orbit and T is contracted on one
quadrant with parity-folded kernels, on the q3 >= 0 half of an exactly
antisymmetric q3 axis only: T keeps its diagonal mirror exactly, T_yy and
T_yx being the transposes of the two contractions T_xx and T_xy, and its
axis mirrors too, bit for bit.  The grid density is the caller's choice
(``n_grid``); nothing here makes it finer or estimates its error.

The overall scalar normalization of T is arbitrary (one global constant per
setup); all downstream observables are invariant under it.

``transfer`` is the one entry point: T on the square grid over one exactly
antisymmetric q3 axis, such as the window ``q3_axis`` builds.
Every observable (output fields and their ellipses, the coincidence form of
the visibility) is a contraction of T that its caller makes.  This module
opens no files.

Units: nm, nm^-1, radians.
"""

from __future__ import annotations

import math
import os

import numpy as np

from .film import film_matrix_grid

__all__ = ["SetupParams", "transfer", "q3_axis"]

PARAXIAL_LIMIT_RAD = 0.3

# wedge points per film sample: a chunk's film temporaries stay in cache
_FILM_CHUNK = 8192

# folded rows per block of a contraction: at 201 grid points its real
# products, 48 x 202 x 101, stay below OpenBLAS's threading size (about 1e6)
_CONTRACT_ROWS = 24


class SetupParams:
    """Geometry of the telescope, substrate and film: a plain record, checked and computed once.

    lam : wavelength in nm, positive, with 2 pi / lam positive and finite
    f, n, delta : lens focal length in nm, substrate refractive index, and
        substrate thickness in nm, not kept
    theta_ap : telescope semiaperture in radians at the film (on q2), in [0, PARAXIAL_LIMIT_RAD]
    film : the film, analytic or a table

    Besides lam, theta_ap and film it keeps what a transform reads: the
    wavenumber k = 2 pi / lam (nm^-1), the angular magnification
    theta2 / theta3 = n f / ((n - 1) delta), the quadratic phase coefficient
    alpha = (n - 1) delta / (2 n k) (nm^2), the aperture disc radius
    q2_max = k sin(theta_ap) (nm^-1), and the half-angle
    theta3_max = theta_ap / magnification of the aperture mapped to the
    output (radians).
    """

    __slots__ = ("lam", "theta_ap", "film", "magnification", "k", "alpha", "q2_max",
                 "theta3_max")

    def __init__(self, lam: float, f: float, n: float, delta: float, theta_ap: float, film):
        self.lam, self.theta_ap, self.film = lam, theta_ap, film
        for name, value in (("f", f), ("delta", delta)):
            if not 0 < value < np.inf:
                raise ValueError(f"{name} must be positive and finite")
        if n <= 1.0:
            raise ValueError("substrate index must exceed 1")
        self.magnification = n * f / ((n - 1.0) * delta)
        if not self.magnification < np.inf:
            raise ValueError("angular magnification n f / ((n - 1) delta) must be finite")
        # a transform squares differences of up to 2 k sin(theta_ap) and maps
        # the aperture through theta_ap / mag; Python floats overflow quietly
        if not (lam > 0.0 and 0.0 < 2.0 * math.pi / float(lam) < math.inf):
            raise ValueError("wavenumber 2 pi / lam must be positive and finite")
        self.k = 2.0 * np.pi / lam
        self.q2_max = self.k * np.sin(theta_ap)
        if not self.q2_max < 2.0 ** 511:
            raise ValueError("aperture radius k sin(theta_ap) must be below 2**511 nm^-1")
        self.alpha = (n - 1.0) * delta / (2.0 * n * self.k)
        mag = float(self.magnification)
        if not (mag > 0.0 and float(theta_ap) / mag < math.inf):
            raise ValueError("mapped half-angle theta_ap / magnification must be finite")
        self.theta3_max = theta_ap / self.magnification


def transfer(setup: SetupParams, q3, n_grid: int) -> np.ndarray:
    """T(q3) on the square grid q3 x q3; returns shape (M, M, 2, 2).

    ``T[i, j]`` is T at (q3[i], q3[j]).  The axis must be exactly
    antisymmetric, q3 == -q3[::-1] bit for bit, as ``q3_axis`` and the
    1 x 1 grid q3 = 0 are; else ValueError.

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
    are built and contracted on the (M + 1) // 2 folded rows |q3| of the
    axis's first half only; q3[i] and its mirror image q3[M - 1 - i] share
    row min(i, M - 1 - i), and T is gathered back from them, T_xy with the
    product of the two signs.  T keeps its diagonal mirror and its axis
    mirrors bit for bit.  Each contraction is real matrix products on the
    float views of the complex arrays, in blocks of 24 folded rows
    (``_contract``).  OpenBLAS threads a complex product from 65 536 M N K
    on, a real one only from about 1e6, so at 201 grid points the
    contractions stay on the calling thread up to about 200 q3 points (100
    folded rows).

    The film is sampled in chunks of ``_FILM_CHUNK`` wedge points, in the
    wedge's own order, so the film evaluator's temporaries stay in cache
    and scale with the chunk, not the wedge.  Each chunk's xx and yy
    components go straight into the quadrant and are dropped; its xy and
    yx components are held until the G_xx contraction is done and then
    scattered into the same quadrant.  Every entry of G is the value a
    single film call would give, so T does not depend on the chunk size,
    bit for bit.

    ``setup.q2_max`` is positive (a runner takes the film matrix at 0).
    Before the quadrature makes any array, its peak memory is predicted
    (``_peak_bytes``); MemoryError if it exceeds the machine's physical
    memory.
    """
    q3 = np.asarray(q3, dtype=float)
    if not np.array_equal(q3, -q3[::-1]):
        raise ValueError("the q3 axis must be exactly antisymmetric, q3 == -q3[::-1]")
    r = setup.q2_max
    h = 2.0 * r / n_grid
    centers = setup.magnification * q3
    m_out = centers.size
    need, have = _peak_bytes(n_grid, m_out), _physical_memory()
    if have is not None and need > have:
        raise MemoryError(f"the aperture transform needs about {need / 2 ** 30:.3g} GiB, "
                          f"more than the {have / 2 ** 30:.3g} GiB of memory")
    # q3 and its mirror image share the folded row of the axis's first half
    rows = np.minimum(np.arange(m_out), np.arange(m_out)[::-1])

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

    folded = np.abs(centers[:(m_out + 1) // 2])
    plus, minus = (np.exp(1j * setup.alpha * (q2[None, :] - folded[:, None]) ** 2)
                   for q2 in (half, -half))
    even, odd = plus + minus, plus - minus
    if n_grid % 2:
        even[:, 0] = plus[:, 0]
    sign = np.where(centers < 0.0, -1.0, 1.0)
    out = np.empty((m_out, m_out, 2, 2), dtype=complex)
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
    """Indices (a, b), row by row, of the wedge b <= a with half[a]**2 + half[b]**2 <= r*r."""
    sq = half ** 2
    return np.nonzero(np.tri(half.size, dtype=bool) & (sq[:, None] + sq <= r * r))


def _contract(k: np.ndarray, g: np.ndarray) -> np.ndarray:
    """k @ g @ k.T for complex k and g, as real matrix products in row blocks of k.

    With k = A + iB, the stack [A; B] times the float view of g holds
    A g and B g with real and imaginary parts interleaved, which combine in
    place into k @ g; the same stack times the float view of (k @ g).T
    gives (k @ g @ k.T).T the same way.  The stack is taken in blocks of
    ``_CONTRACT_ROWS`` rows of k, so that at 201 grid points each real
    product stays below the size from which OpenBLAS threads it; k of at
    most that many rows is one block.
    """
    u, m = k.shape
    starts = range(0, u, _CONTRACT_ROWS)
    stacks = [np.concatenate([k.real[s:s + _CONTRACT_ROWS], k.imag[s:s + _CONTRACT_ROWS]])
              for s in starts]
    pt = np.empty((m, u), dtype=complex)  # (k @ g).T
    for s, stack in zip(starts, stacks):
        pt[:, s:s + _CONTRACT_ROWS] = _combine(stack @ g.view(float)).T
    out = np.empty((u, u), dtype=complex)  # (k @ g @ k.T).T
    for s, stack in zip(starts, stacks):
        out[s:s + _CONTRACT_ROWS] = _combine(stack @ pt.view(float))
    return out.T


def _combine(q: np.ndarray) -> np.ndarray:
    """(A + iB) z from [A; B] @ z.view(float), in place in the top half of q."""
    u = q.shape[0] // 2
    top, bottom = q[:u], q[u:]
    top[:, 0::2] -= bottom[:, 1::2]
    top[:, 1::2] += bottom[:, 0::2]
    return top.view(complex)


def _peak_bytes(n_grid: int, m_out: int) -> float:
    """Bytes ``transfer`` holds at its peak on an n_grid quadrature onto m_out q3 points.

    With m = n_grid - n_grid // 2, m_folded = (m_out + 1) // 2 folded rows,
    at most w = pi m^2 / 8 + m wedge points and c = min(w, _FILM_CHUNK)
    points in a film chunk, the sum of: the complex quadrant, 16 m^2 B;
    per wedge point, the two index arrays and the held complex xy and yx
    components, 48 B (the wedge mask's float sum and boolean masks, about
    10 m^2 B, fit in the same bytes before the film is sampled); per chunk
    point, its two q arrays, the film evaluator's temporaries and the
    chunk's xx and yy components, 176 B; per folded kernel entry, the four
    complex kernels, the real stack, a block's real first product and
    (k g).T, 128 B; a block's real second product and (k g k.T).T,
    48 m_folded^2 B; the output, one gathered component and the buffers of
    the gather and the sign product, 96 m_out^2 B; and 16 KiB of small
    arrays and Python objects.  The parts are not all alive at once, so the
    sum is above the peak, and from 51 quadrature points on within a factor
    of 2 of it.  It needs no array, so a grid of any size is priced at once.
    """
    m, m_folded = n_grid - n_grid // 2, (m_out + 1) // 2
    wedge = np.pi * m * m / 8 + m
    return (16384.0 + 16.0 * m * m + 48.0 * wedge + 176.0 * min(wedge, _FILM_CHUNK)
            + m_folded * (128.0 * m + 48.0 * m_folded) + 96.0 * m_out ** 2)


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
