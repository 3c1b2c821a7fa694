"""Transfer matrix of a square-lattice hole array in a thin metal film.

The film is modeled as a direct (non-resonant) transmission term plus dyadic
surface-mode resonances.  Each resonance family is the orbit of one seed
order under the square-lattice point group; order G = (2 pi / period)(m1, m2)
contributes a projector onto the unit vector (q + G)/|q + G| weighted by a
unit-peak complex Lorentzian in wavelength centered at the momentum-matching
wavelength lambda_G(q) = 2 pi n_eff / |q + G|.

Everything is expressed in the lab (x, y) frame, so the returned matrix obeys
F_lab(q) = R(phi_q)^-1 F_rot(q) R(phi_q) with respect to any rotated-frame
formulation.  ``FilmModel`` is that analytic film, one record that states
the lattice period once, for G and for every n_eff.  A film table (from an
external rigorous solver) is its own kind of film: ``load_tabulated`` reads
it into a ``TabulatedGrid``, which holds the whole film matrix, direct term
included, and is interpolated bilinearly and never extrapolated; it must be
point-group symmetric, as an analytic film is.  The first load of a table
parses its CSV and leaves the grid beside it in a binary sidecar keyed by
the CSV's checksums; a later load of the same bytes reads the sidecar
instead, checks it as a parse would, and falls back to the CSV on any
mismatch, so the CSV alone decides what a table holds.  Neither load
holds a temporary as large as the table besides the parsed rows and the
grid: a parse peaks at about 152 B per table row, a sidecar hit at 88.

``film_matrix_grid`` is the one evaluator for both kinds of film: qx, qy and
lambda may be scalars or arrays of any shapes that broadcast together, and
each of the four returned component arrays has the broadcast shape.  An
aperture sample is a flat q array at one wavelength; a spectrum is q and
lambda arrays along the wavelength axis.

Units: lengths and wavelengths in nm, transverse wavevectors in nm^-1.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import zlib

import numpy as np

__all__ = [
    "FilmModel",
    "TabulatedGrid",
    "film_matrix_grid",
    "load_tabulated",
]

TABULATED_HEADER = "qx,qy,lambda_nm,re_xx,im_xx,re_xy,im_xy,re_yx,im_yx,re_yy,im_yy"

SYMMETRY_TOL = 1e-8  # relative asymmetry of a table: the rounding of "%.8e", 9 digits


class TabulatedGrid:
    """Rectangular, point-group symmetric grid of film matrices on (qx, qy, lambda).

    qx and qy are one axis q, so matrices[l, i, j] is the film at (q[i], q[j], lam[l]).
    The axes q and lam are 1-D, nonempty, finite and strictly increasing, the matrices of
    shape (n_lambda, n_q, n_q, 2, 2).  On its nodes q = -q[::-1], and F(R q) = R F(q) R^T
    for the x and diagonal mirrors, which generate the group, to SYMMETRY_TOL of max |q| or
    max |F|.  Else ValueError.  A plain record, checked once when it is built.
    """

    __slots__ = ("q", "lam", "matrices")

    def __init__(self, q: np.ndarray, lam: np.ndarray, matrices: np.ndarray):
        self.q, self.lam, self.matrices = q, lam, matrices
        m = matrices
        if not all(a.ndim == 1 and a.size and np.isfinite(a).all() and (a[1:] > a[:-1]).all()
                   for a in (q, lam)):
            raise ValueError("film table axes must be 1-D, nonempty, finite and strictly increasing")
        if m.shape != (lam.size, q.size, q.size, 2, 2):
            raise ValueError(f"film table matrices of shape {m.shape} are not "
                             "(n_lambda, n_q, n_q, 2, 2)")
        # the largest |entry|, one component at a time; a NaN carries through
        largest = np.max([np.max(np.abs(m[..., i, j])) for i in (0, 1) for j in (0, 1)])
        for what, worst, scale in (("q axis", np.max(np.abs(q + q[::-1])), np.max(np.abs(q))),
                                   ("matrices", _matrix_asymmetry(m), largest)):
            # an infinite entry is refused even where its mirror image is finite
            if not worst <= SYMMETRY_TOL * scale < np.inf:
                ratio = worst / scale if scale < np.inf else np.nan
                raise ValueError(f"film table is not point-group symmetric: {what} asymmetry "
                                 f"{ratio:.3g} exceeds the tolerance {SYMMETRY_TOL:g}")


def _matrix_asymmetry(m: np.ndarray) -> float:
    """Largest |F(R q) - R F(q) R^T| on the nodes of m over the x and diagonal mirrors R.

    The x mirror changes the sign of xy and yx, so those entries are sums,
    bit for bit the differences from the negated entries; the diagonal
    mirror swaps xx with yy and xy with yx.  Each difference is taken one
    2x2 component at a time, in one scratch array of a component's size, so
    the scratch and its modulus take 3/8 of m's bytes; a NaN carries
    through to the maximum.
    """
    d = np.empty(m.shape[:-2], dtype=m.dtype)
    worst = []
    for i, j, op in ((0, 0, np.subtract), (1, 1, np.subtract), (0, 1, np.add), (1, 0, np.add)):
        op(m[:, ::-1, :, i, j], m[..., i, j], out=d)
        worst.append(np.max(np.abs(d)))
        np.subtract(m.transpose(0, 2, 1, 3, 4)[..., i, j], m[..., 1 - i, 1 - j], out=d)
        worst.append(np.max(np.abs(d)))
    return np.max(worst)


class FilmModel:
    """Analytic hole-array film: lattice period (nm), direct amplitude, resonance families.

    Each family is (seed_order, lambda0, width, amplitude): resonant at
    lambda0 (nm) at normal incidence, with Lorentzian half-width width (nm)
    and complex peak transmission amplitude per order.  Its effective index
    n_eff = lambda0 |seed| / period must exceed 1, which with a positive
    period refuses lambda0 <= 0; each family's width, then the period, then
    n_eff is checked, else ValueError.  ``orders`` holds one (m1, m2, n_eff,
    width, amplitude) per order: the families in order, each orbit sorted.
    """

    __slots__ = ("period", "direct_amplitude", "orders")

    def __init__(self, period: float, direct_amplitude: complex, families: tuple):
        self.period, self.direct_amplitude, self.orders = period, direct_amplitude, []
        for (m1, m2), lambda0, width, amplitude in families:
            for name, value in (("width", width), ("period", period)):
                if value <= 0:
                    raise ValueError(f"{name} must be positive")
            n_eff = lambda0 * np.hypot(m1, m2) / period
            if n_eff <= 1.0:
                raise ValueError(f"effective index {n_eff:.4f} must exceed 1")
            # the square lattice's point group: every sign change of (m1, m2) and of (m2, m1)
            orbit = {(s1 * a, s2 * b) for a, b in ((m1, m2), (m2, m1))
                     for s1 in (1, -1) for s2 in (1, -1)}
            self.orders += [(g1, g2, n_eff, float(width), complex(amplitude))
                            for g1, g2 in sorted(orbit)]


def _analytic_matrix_grid(model: FilmModel, qx: np.ndarray, qy: np.ndarray,
                          lam: np.ndarray):
    """Vectorized analytic F_lab over broadcast arrays of (q, lambda).

    With u = q + G and d = lambda - 2 pi n_eff / |u|, order G adds the
    Lorentzian A i w / (d + i w) times the projector u u^T / |u|^2, in real
    arithmetic A w (w + i d) / ((d^2 + w^2) |u|^2) times the dyad (ux^2,
    uy^2, ux uy), with |u|^2 = ux^2 + uy^2.

    Memory: a call returns 48 B per point (fxx, fxy, fyy) and peaks at
    about 121 B per point: those, the complex term, the three dyad entries,
    |u|^2, d and two temporaries of the Lorentzian.  Each order's arrays
    are dropped after their last use.
    """
    shape = np.broadcast_shapes(qx.shape, qy.shape, lam.shape)
    fxx = np.full(shape, model.direct_amplitude, dtype=complex)
    fyy = fxx.copy()
    fxy = np.zeros(shape, dtype=complex)
    term = np.empty(shape, dtype=complex)
    # each temporary goes after its last use, so the next is made in its
    # place and not in fresh pages
    for m1, m2, n_eff, w, amplitude in model.orders:
        ux = qx + 2.0 * np.pi * m1 / model.period
        uy = qy + 2.0 * np.pi * m2 / model.period
        xx, yy, xy = ux * ux, uy * uy, ux * uy
        del ux, uy
        u2 = xx + yy
        if not u2.all():
            raise ValueError(f"order {(m1, m2)} singular inside the requested q range")
        d = lam - 2.0 * np.pi * n_eff / np.sqrt(u2)
        c = w / (d * d + w * w) / u2
        del u2
        np.multiply(c, w, out=term.real)
        np.multiply(c, d, out=term.imag)
        del c, d
        term *= amplitude
        fxx += term * xx
        del xx
        fyy += term * yy
        del yy
        fxy += term * xy
        del xy
    # every dyad u u^T is symmetric, so one read-only array is both xy and yx
    fxy.flags.writeable = False
    return fxx, fxy, fxy, fyy


def film_matrix_grid(model: FilmModel | TabulatedGrid, qx, qy, lam):
    """F_lab component arrays (fxx, fxy, fyx, fyy) over broadcast (q, lambda).

    qx, qy (nm^-1) and lam (nm) are scalars or arrays whose shapes broadcast
    together; every returned component is a complex array of the broadcast
    shape, so one call covers a flat aperture sample at one wavelength, a
    spectrum along its wavelength axis, or a single point (0-d arrays).
    For the analytic film, fxy and fyx are one read-only array.  Wavelengths
    must be positive.  Raises ValueError if a tabulated film does not cover a
    requested point, or if a lattice order of the analytic film is singular
    (q + G = 0) at one.
    """
    qx = np.asarray(qx, dtype=float)
    qy = np.asarray(qy, dtype=float)
    lam = np.asarray(lam, dtype=float)
    if isinstance(model, TabulatedGrid):
        return _interpolate_tabulated(model, qx, qy, lam)
    return _analytic_matrix_grid(model, qx, qy, lam)


# ---------------------------------------------------------------------------
# tabulated grids
# ---------------------------------------------------------------------------

def _interpolate_tabulated(grid: TabulatedGrid, qx: np.ndarray, qy: np.ndarray,
                          lam: np.ndarray):
    """Bilinear in (qx, qy), both on the axis grid.q, linear in lambda over broadcast arrays.

    Returns the four component arrays (fxx, fxy, fyx, fyy); refuses to
    extrapolate, naming the first value outside the table.
    """
    # (lambda, qx, qy) flattened: one base index per point, a fixed offset
    # per axis to the upper neighbour (0 on a size-1 axis)
    base, frac, step = 0, [], []
    for axis, value, name, stride in (
            (grid.q, qx, "qx", grid.q.size), (grid.q, qy, "qy", 1),
            (grid.lam, lam, "lambda", grid.q.size ** 2)):
        bad = ~((value >= axis[0]) & (value <= axis[-1]))
        if np.any(bad):
            raise ValueError(
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


def load_tabulated(path) -> TabulatedGrid:
    """Load a tabulated film-matrix grid from CSV (see TABULATED_HEADER).

    The rows must list each point of a nonempty rectangular (qx, qy, lambda)
    grid once, qx and qy on one axis, sorted by (lambda, qx, qy), with finite
    entries.  Every malformed table raises ValueError with a one-line message.

    The CSV is parsed once per content.  A parsed table is saved beside it,
    as ``.<name>.pbsim.npy``, under the key of the CSV's bytes
    (``_table_key``); a later load whose key matches reads that sidecar
    instead, and the grid must pass the checks a parse makes.  A missing,
    stale or damaged sidecar is a miss: the CSV is parsed and the sidecar
    written again.  A sidecar is written only if the CSV's key after the
    parse is the one taken before it, and never for a table that fails to
    load; one that cannot be written is skipped without a message.

    Memory: a parse holds the 88 B/row ``np.loadtxt`` array and the
    64 B/row grid, about 152 B per table row at its peak; a sidecar hit
    holds the grid and the symmetry check's scratch, about 88 B/row.
    """
    key = _table_key(path)
    head, name = os.path.split(os.fspath(path))
    sidecar = os.path.join(head, f".{name}.pbsim.npy")
    grid = _read_sidecar(sidecar, key)
    if grid is None:
        grid = _parse_tabulated(path)
        if _table_key(path) == key:
            _write_sidecar(sidecar, key, grid)
    return grid


# format version of a table's sidecar: change it with the sidecar's layout
SIDECAR_VERSION = 2


def _table_key(path) -> tuple:
    """(SIDECAR_VERSION, crc32, adler32, byte length) of a file, read in 64 KiB chunks.

    ``zlib`` comes loaded with NumPy; ``hashlib`` would load OpenSSL into
    every run.
    """
    crc, adler, size = 0, 1, 0
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 16):
            crc, adler = zlib.crc32(chunk, crc), zlib.adler32(chunk, adler)
            size += len(chunk)
    return (SIDECAR_VERSION, crc, adler, size)


def _read_sidecar(sidecar: str, key: tuple) -> TabulatedGrid | None:
    """The grid in ``sidecar`` if it holds ``key`` and passes a parse's checks, else None.

    Those checks: float axes and complex matrices, as a parse gives, and
    ``TabulatedGrid``'s.
    """
    try:
        with open(sidecar, "rb") as fh:
            if not np.array_equal(np.load(fh, allow_pickle=False), key):
                return None
            q, lam, m = (np.load(fh, allow_pickle=False) for _ in range(3))
        if not (q.dtype == lam.dtype == float and m.dtype == complex):
            return None
        return TabulatedGrid(q=q, lam=lam, matrices=m)
    except Exception:  # a damaged header fails in tokenize, a huge shape in malloc
        return None


def _write_sidecar(sidecar: str, key: tuple, grid: TabulatedGrid) -> None:
    """Write ``key`` and ``grid`` to ``sidecar`` through a temporary file; ignore OSError."""
    temporary = f"{sidecar}.{os.getpid()}.tmp"
    try:
        with open(temporary, "wb") as fh:
            for array in (np.array(key, dtype=np.int64), grid.q, grid.lam, grid.matrices):
                np.save(fh, array, allow_pickle=False)
        os.replace(temporary, sidecar)
    except OSError:
        with contextlib.suppress(OSError):
            os.remove(temporary)


def _parse_tabulated(path) -> TabulatedGrid:
    """The checked grid of the CSV at ``path``, streamed through ``np.loadtxt``.

    The q axis is the leading run of the qy column, which the qx column must
    repeat; an axis value written as both 0 and -0 takes its first row's sign.
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

    # rows per wavelength, and per qx within it: up to the first row unlike row 0
    per_lam = int(np.argmax(data[:, 2] != data[0, 2])) or len(data)
    n_qy = int(np.argmax(data[:per_lam, 0] != data[0, 0])) or per_lam
    shape = (len(data) // per_lam, per_lam // n_qy, n_qy)
    if len(data) != np.prod(shape):
        raise ValueError("tabulated grid is not rectangular in (qx, qy, lambda)")
    if shape[1] != n_qy:
        raise ValueError(f"film table is not point-group symmetric: {shape[1]} qx, {n_qy} qy")
    # copies, so that the grid does not keep the parsed rows alive
    lam, q = data[::per_lam, 2].copy(), data[:n_qy, 1].copy()
    if not np.array_equal(data[:per_lam:n_qy, 0], q):
        raise ValueError("film table qx and qy axes differ; a symmetric table has one q axis")
    # row by row, the coordinates must be those of the grid: this also
    # refuses a repeated row standing in for a missing one
    for axis, column in ((lam[:, None, None], 2), (q[:, None], 0), (q, 1)):
        if not np.array_equal(data[:, column].reshape(shape), np.broadcast_to(axis, shape)):
            raise ValueError("rows must list each grid point once, sorted "
                             "lexicographically by (lambda, qx, qy)")

    # columns re_xx, im_xx, re_xy, ... : xx, xy, yx, yy in row-major 2x2 order.
    # Built in place in one complex array, bit for bit re + 1j * im (signed
    # zeros included), and the parsed rows go before the symmetry check, so
    # the parse holds the loadtxt array and the grid, and nothing else as large
    mats = np.multiply(data[:, 4::2], 1j)
    mats += data[:, 3::2]
    del data
    return TabulatedGrid(q=q, lam=lam, matrices=mats.reshape(*shape, 2, 2))
