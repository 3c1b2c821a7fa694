"""Slow reference implementations that tests compare the library against,
the film tables they compare it on, and the helpers only tests need: the
film-table writer, the paper's setup, rotations and the singlet."""

import dataclasses

import numpy as np

from plasmon_biphoton.film import (
    TABULATED_HEADER,
    TabulatedGrid,
    default_film,
    film_matrix,
    film_matrix_grid,
)
from plasmon_biphoton.optics import PARAXIAL_LIMIT_RAD, SetupParams
from plasmon_biphoton.scenarios import KINDS, ScenarioConfig


def paper_setup(lam: float = 797.0, theta_ap_deg: float = 8.0, film=None) -> SetupParams:
    """f = 15 mm, n = 1.52, Delta = 0.5 mm, default calibrated film."""
    return SetupParams(lam=lam, f=15e6, n=1.52, delta=0.5e6, theta_ap=np.deg2rad(theta_ap_deg),
                       film=film if film is not None else default_film())


def rotation(phi: float) -> np.ndarray:
    """Rotation matrix by angle ``phi`` (counterclockwise, radians)."""
    c, s = np.cos(phi), np.sin(phi)
    return np.array([[c, -s], [s, c]], dtype=complex)


def singlet() -> np.ndarray:
    """Polarization singlet (|XY> - |YX>)/sqrt(2) as a 4-amplitude vector."""
    return np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / np.sqrt(2.0)


# solid-state labels (ab) = (output pol, input pol) of photon 1, in the order
# the channel amplitudes are enumerated
GRAM_LABELS = ("xx", "yx", "xy", "yy")

# channel label -> (sign, two-qubit basis index of the surviving biphoton ket)
CHANNEL_KETS = {"xx": (+1.0, 1), "yx": (+1.0, 3), "xy": (-1.0, 0), "yy": (-1.0, 2)}


def postselect_channel_labels(t, coherence: float) -> np.ndarray:
    """Post-selected density matrix of a singlet through ``t``, one labelled channel at a time.

    The reference for ``quantum.postselect_channel``: each channel ab of
    GRAM_LABELS leaves sign * t_ab / sqrt(2) on its ket of CHANNEL_KETS, one
    column of a 4x4 branch matrix B per channel, and rho = B Gram B^H, with
    the Gram matrix (1 - coherence) I + coherence J indexed by GRAM_LABELS,
    over its trace.
    """
    t = np.asarray(t, dtype=complex)
    gram = ((1.0 - coherence) * np.eye(4, dtype=complex)
            + coherence * np.ones((4, 4), dtype=complex))
    t_entries = {"xx": t[0, 0], "xy": t[0, 1], "yx": t[1, 0], "yy": t[1, 1]}
    branches = np.zeros((4, 4), dtype=complex)
    for col, label in enumerate(GRAM_LABELS):
        sign, ket = CHANNEL_KETS[label]
        branches[ket, col] = sign * t_entries[label] / np.sqrt(2.0)
    rho = branches @ gram @ branches.conj().T
    return rho / np.trace(rho).real


def resonance_wavelength(family, order, q, period: float) -> float:
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


def transmittance(model, q, lam: float, pol: np.ndarray) -> float:
    """Transmitted intensity fraction |F_lab(q, lambda) pol|^2 for unit pol."""
    out = film_matrix(model, q, lam) @ np.asarray(pol, dtype=complex)
    return float(np.real(np.vdot(out, out)))


def save_tabulated(grid: TabulatedGrid, path) -> None:
    """Write a film table as the CSV ``film.load_tabulated`` reads, each value "%.8e"."""
    lam, qx, qy = np.meshgrid(grid.lam, grid.qx, grid.qy, indexing="ij")
    m = grid.matrices.reshape(-1, 4)
    table = np.column_stack([qx.ravel(), qy.ravel(), lam.ravel(),
                             np.stack([m.real, m.imag], axis=-1).reshape(-1, 8)])
    np.savetxt(path, table, fmt="%.8e", delimiter=",", header=TABULATED_HEADER,
               comments="")


def film_matrix_direct(model, qx, qy, lam):
    """Analytic F_lab at each point of broadcast (qx, qy, lambda), one order at a time.

    The formula of the ``film`` docstring in complex arithmetic: the direct
    amplitude times the identity, plus for each order G the Lorentzian
    A i w / (lambda - lambda_G + i w), lambda_G from ``resonance_wavelength``,
    times the projector onto (q + G) / |q + G|.  Returns shape (..., 2, 2).
    """
    qx, qy, lam = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (qx, qy, lam)))
    out = np.empty(qx.shape + (2, 2), dtype=complex)
    for idx in np.ndindex(qx.shape):
        q = (float(qx[idx]), float(qy[idx]))
        f = model.direct_amplitude * np.eye(2, dtype=complex)
        for fam in model.families:
            for m1, m2 in sorted(fam.orders):
                u = np.array([q[0] + 2.0 * np.pi * m1 / model.period,
                              q[1] + 2.0 * np.pi * m2 / model.period])
                u /= np.hypot(u[0], u[1])
                lam_res = resonance_wavelength(fam, (m1, m2), q, model.period)
                f += (fam.amplitude * 1j * fam.width / (lam[idx] - lam_res + 1j * fam.width)
                      * np.outer(u, u))
        out[idx] = f
    return out


def transfer_direct(setup, q3_points, n_grid):
    """T(q3) for each row of ``q3_points`` by a per-point direct sum.

    The same masked midpoint grid as the library, with the two-dimensional
    phase exp(i a |q2 - mag q3|^2) evaluated point by point; returns shape
    (P, 2, 2).
    """
    r = setup.q2_max
    h = 2.0 * r / n_grid
    axis = -r + (np.arange(n_grid) + 0.5) * h
    qx, qy = np.meshgrid(axis, axis, indexing="ij")
    mask = qx ** 2 + qy ** 2 <= r * r
    q2x, q2y = qx[mask], qy[mask]
    film = np.stack(film_matrix_grid(setup.film, q2x, q2y, setup.lam), axis=-1)
    out = []
    for cx, cy in setup.magnification * np.atleast_2d(np.asarray(q3_points, dtype=float)):
        phase = np.exp(1j * setup.alpha * ((q2x - cx) ** 2 + (q2y - cy) ** 2))
        out.append(phase @ film)
    return np.array(out).reshape(-1, 2, 2) * (h * h)


def wedge_mask(half, r):
    """Indices (a, b) of the wedge b <= a with half[a]**2 + half[b]**2 <= r*r, by the full mask.

    The reference for ``optics._wedge``: ``np.nonzero`` of the lower
    triangle of the m x m disc mask over the q >= 0 half axis.
    """
    return np.nonzero(np.tril(half[:, None] ** 2 + half[None, :] ** 2 <= r * r))


def transfer_sp(q3, setup, margin: float = 0.05) -> np.ndarray:
    """Stationary-phase approximation of the telescope matrix.

    The Gaussian prefactor i pi / a times F_lab at the stationary point
    q2* = mag q3, which makes the result constant-factor-comparable to
    ``optics.transfer``.  Valid only when q2* lies inside the aperture disc
    by the relative ``margin``; raises ValueError otherwise.
    """
    q3 = np.asarray(q3, dtype=float)
    q2_star = setup.magnification * q3
    r = np.hypot(q2_star[0], q2_star[1])
    if r >= (1.0 - margin) * setup.q2_max:
        raise ValueError(
            f"stationary point |q2*| = {r:.4e} nm^-1 not inside the aperture "
            f"(limit {(1.0 - margin) * setup.q2_max:.4e})")
    return (1j * np.pi / setup.alpha) * film_matrix(setup.film, q2_star, setup.lam)


def interpolate_tabulated_point(grid, q, lam: float) -> np.ndarray:
    """One 2x2 matrix from a tabulated grid, one point at a time.

    Bilinear in (qx, qy), linear in lambda; the per-point reference for the
    array interpolation in ``film.film_matrix_grid``.
    """
    coords = []
    for axis, value, name in ((grid.qx, q[0], "qx"), (grid.qy, q[1], "qy"),
                              (grid.lam, lam, "lambda")):
        if value < axis[0] or value > axis[-1]:
            raise ValueError(
                f"{name} = {value:g} outside tabulated range [{axis[0]:g}, {axis[-1]:g}]")
        if axis.size == 1:
            coords.append((0, 0, 0.0))
            continue
        i = int(np.searchsorted(axis, value, side="right") - 1)
        i = min(i, axis.size - 2)
        t = (value - axis[i]) / (axis[i + 1] - axis[i])
        coords.append((i, i + 1, t))
    (ix0, ix1, tx), (iy0, iy1, ty), (il0, il1, tl) = coords
    m = grid.matrices

    def plane(il):
        return ((1 - tx) * (1 - ty) * m[il, ix0, iy0]
                + tx * (1 - ty) * m[il, ix1, iy0]
                + (1 - tx) * ty * m[il, ix0, iy1]
                + tx * ty * m[il, ix1, iy1])

    return (1 - tl) * plane(il0) + tl * plane(il1)


def default_film_table(q_max, lams, n_q=9) -> TabulatedGrid:
    """The default film sampled on an n_q x n_q grid over |qx|, |qy| <= q_max."""
    qs = np.linspace(-q_max, q_max, n_q)
    lam, qx, qy = np.meshgrid(lams, qs, qs, indexing="ij")
    mats = np.stack(film_matrix_grid(default_film(), qx, qy, lam), axis=-1)
    return TabulatedGrid(qx=qs, qy=qs, lam=np.asarray(lams, dtype=float),
                         matrices=mats.reshape(qx.shape + (2, 2)))


def symmetric_random_grid(rng, q, lam) -> TabulatedGrid:
    """A seeded random film table on the antisymmetric axis ``q`` (both qx and qy).

    Random complex matrices averaged over the 8 elements R of the square
    point group, F(q) -> R^T F(R q) R, so that F(R q) = R F(q) R^T holds up
    to rounding.  R maps the node of signed index s = i - (n - 1) / 2 to the
    node of signed index R s, because q is antisymmetric.
    """
    shape = (len(lam), q.size, q.size, 2, 2)
    raw = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    s = np.arange(q.size) - 0.5 * (q.size - 1)
    sx, sy = np.meshgrid(s, s, indexing="ij")
    total = np.zeros(shape, dtype=complex)
    for c, n in [(1, 0), (0, 1), (-1, 0), (0, -1)]:
        for r in (np.array([[c, -n], [n, c]]), np.array([[c, n], [n, -c]])):
            ix = np.rint(r[0, 0] * sx + r[0, 1] * sy + 0.5 * (q.size - 1)).astype(int)
            iy = np.rint(r[1, 0] * sx + r[1, 1] * sy + 0.5 * (q.size - 1)).astype(int)
            total += r.T @ raw[:, ix, iy] @ r
    return TabulatedGrid(qx=q, qy=q.copy(), lam=np.asarray(lam, dtype=float),
                         matrices=total / 8)


def matrix_asymmetry_direct(m) -> float:
    """Largest |F(R q) - R F(q) R^T| of a film table's matrices over the x and diagonal mirrors.

    The reference for ``film._matrix_asymmetry``: the x mirror as one
    product with the sign pattern of xy and yx, the diagonal mirror as one
    difference, each its own temporary.
    """
    return max(np.max(np.abs(m[:, ::-1] - m * np.array([[1, -1], [-1, 1]]))),
               np.max(np.abs(m.transpose(0, 2, 1, 3, 4) - m[..., ::-1, ::-1])))


def visibility_eigvalsh(form) -> float:
    """Visibility of a real symmetric 2x2 coincidence form from LAPACK's eigenvalues.

    The reference for the closed form in ``quantum.visibility``: the
    eigenvalues of ``np.linalg.eigvalsh`` (lower triangle), each clipped at 0.
    """
    c_min, c_max = (max(float(c), 0.0) for c in np.linalg.eigvalsh(form))
    if c_max == 0.0:
        raise ValueError("coincidence rate vanishes identically: visibility undefined")
    return (c_max - c_min) / (c_max + c_min)


def visibility_brute(beta2: float, source, step_deg: float = 1.0) -> float:
    """Visibility by scanning beta1 in 1 deg steps with parabolic refinement.

    Independent cross-check of ``quantum.visibility``: the rate is computed
    straight from ``source``, with no 2x2 form in between.  A field array E
    of shape (..., 2) (photon 1's output for input polarization
    beta2 + 90 deg) gives C(beta1) = sum |cos(beta1) Ex + sin(beta1) Ey|^2;
    a 4x4 two-qubit density matrix rho gives Tr[rho (P(beta1) x P(beta2))].
    """
    if np.shape(source) == (4, 4):
        e2 = np.array([np.cos(beta2), np.sin(beta2)])

        def rate(b1):
            e1 = np.array([np.cos(b1), np.sin(b1)])
            projector = np.kron(np.outer(e1, e1), np.outer(e2, e2))
            return float(np.trace(source @ projector).real)
    else:
        fields = np.asarray(source)

        def rate(b1):
            return float(np.sum(np.abs(np.cos(b1) * fields[..., 0]
                                       + np.sin(b1) * fields[..., 1]) ** 2))

    angles = np.deg2rad(np.arange(0.0, 180.0, step_deg))
    rates = np.array([rate(b) for b in angles])

    def refine(idx):
        """The rate at the vertex of the parabola through the scan's extremum and its neighbours."""
        h = np.deg2rad(step_deg)
        b0 = angles[idx]
        y0, y1, y2 = rate(b0 - h), rates[idx], rate(b0 + h)
        denom = y0 - 2.0 * y1 + y2
        shift = 0.0 if denom == 0.0 else 0.5 * h * (y0 - y2) / denom
        return rate(b0 + np.clip(shift, -h, h))

    c_max = refine(int(np.argmax(rates)))
    c_min = refine(int(np.argmin(rates)))
    c_min = max(c_min, 0.0)
    if c_max + c_min <= 0.0 or c_max == 0.0:
        raise ValueError("coincidence rate vanishes identically: visibility undefined")
    return (c_max - c_min) / (c_max + c_min)


def config_refusal(**values):
    """Message of the first field check a ScenarioConfig of ``values`` fails, or None.

    The checks ``ScenarioConfig.__post_init__`` makes before it builds the
    film and telescope, in its order and with its messages, written as NumPy
    array predicates (np.isfinite, np.asarray, np.deg2rad); the library makes
    them on Python scalars.  Fields not in ``values`` take their defaults.
    """
    fields = dataclasses.fields(ScenarioConfig)
    cfg = dict({f.name: f.default for f in fields}, **values)
    if cfg["kind"] not in KINDS:
        return f"unknown scenario kind {cfg['kind']!r}; expected one of {KINDS}"
    for f in fields:
        if f.type in ("float", "complex", "tuple") and not np.all(np.isfinite(cfg[f.name])):
            return f"{f.name} must be finite"
    for name in ("lambda_min_nm", "lambdas_nm", "lambda_diagonal_nm", "lambda_axis_nm"):
        if not np.all(np.asarray(cfg[name]) > 0):
            return f"{name} must be positive"
    if cfg["lambda_min_nm"] >= cfg["lambda_max_nm"] or cfg["lambda_step_nm"] <= 0:
        return "spectrum wavelength range must be nonempty and increasing"
    if cfg["semiaperture_step_deg"] <= 0 or \
            cfg["semiaperture_min_deg"] > cfg["semiaperture_max_deg"]:
        return "semiaperture range must be nonempty and increasing"
    if not cfg["lambdas_nm"] or not cfg["beta2_deg"] or not cfg["tilts_deg"]:
        return "list-valued config fields must be nonempty"
    if not 0.0 <= cfg["gram_coherence"] <= 1.0:
        return "gram_coherence must lie in [0, 1]"
    for name in ("quad_points", "map_points", "polmap_points"):
        if cfg[name] < 1:
            return f"{name} must be at least 1"
        if cfg[name] >= 2 ** 31:
            return f"{name} must be below 2**31"
    for name in ("semiaperture_deg", "semiaperture_min_deg", "semiaperture_max_deg",
                 "theta3_max_deg"):
        if not 0.0 <= np.deg2rad(cfg[name]) <= PARAXIAL_LIMIT_RAD:
            return (f"{name} must lie in the paraxial range "
                    f"[0, {np.rad2deg(PARAXIAL_LIMIT_RAD):.4g}] deg")
    with np.errstate(over="ignore"):
        if np.divide(np.subtract(cfg["lambda_max_nm"], cfg["lambda_min_nm"]),
                     cfg["lambda_step_nm"]) >= 2 ** 31:
            return "lambda_step_nm splits the wavelength range into 2**31 steps or more"
        if np.divide(np.subtract(cfg["semiaperture_max_deg"], cfg["semiaperture_min_deg"]),
                     cfg["semiaperture_step_deg"]) >= 2 ** 31:
            return "semiaperture_step_deg splits the semiaperture range into 2**31 steps or more"
    return None
