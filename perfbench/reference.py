"""The benchmark's own reference model, independent of the package code.

It re-implements, from the model's definition, what the benchmark needs to
check ``pbsim`` outputs:

* the dyadic hole-array film matrix F(q, lambda), analytic or as a bilinear
  (qx, qy) / linear lambda interpolation of a tabulated grid;
* the telescope transfer matrix T(q3) as a plain direct sum over the
  midpoint aperture grid masked to the disc (no factorisation, no
  stationary phase), evaluated in chunks with NumPy;
* fringe visibility and polarization ellipses of the resulting fields.

Nothing here imports ``plasmon_biphoton``.  Units: nm, nm^-1, radians.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

F_MM, N_SUBSTRATE, DELTA_MM = 15.0, 1.52, 0.5
CHUNK_BYTES = 32 << 20


@dataclass(frozen=True)
class Film:
    """Dyadic film: direct amplitude plus two point-group-closed families.

    ``families`` holds (seed order, lambda0, width, amplitude) tuples.
    """

    period: float
    direct: complex
    families: tuple

    @staticmethod
    def calibrated(gamma_diagonal=4.0, gamma_axis=5.0, peak=0.03, direct=0.03,
                   axis_scale=0.38, period=700.0, lam_diagonal=797.0,
                   lam_axis=728.0) -> "Film":
        amp = 0.5 * (np.sqrt(peak) - abs(direct))
        return Film(period, complex(direct), (
            ((1, 1), lam_diagonal, gamma_diagonal, amp),
            ((1, 0), lam_axis, gamma_axis, amp * axis_scale)))

    def matrices(self, qx, qy, lam):
        """F over arrays of q points: complex array of shape qx.shape + (2, 2)."""
        qx = np.asarray(qx, dtype=float)
        qy = np.asarray(qy, dtype=float)
        out = np.zeros(qx.shape + (2, 2), dtype=complex)
        out[..., 0, 0] = out[..., 1, 1] = self.direct
        for (m1, m2), lam0, width, amp in self.families:
            n_eff = lam0 * np.hypot(m1, m2) / self.period
            orders = {(a * s1, b * s2) for a, b in ((m1, m2), (m2, m1))
                      for s1 in (1, -1) for s2 in (1, -1)}
            for g1, g2 in sorted(orders):
                ux = qx + 2.0 * np.pi * g1 / self.period
                uy = qy + 2.0 * np.pi * g2 / self.period
                norm = np.hypot(ux, uy)
                lor = amp * 1j * width / (lam - 2.0 * np.pi * n_eff / norm + 1j * width)
                ux, uy = ux / norm, uy / norm
                out[..., 0, 0] += lor * ux * ux
                out[..., 0, 1] += lor * ux * uy
                out[..., 1, 0] += lor * ux * uy
                out[..., 1, 1] += lor * uy * uy
        return out


@dataclass(frozen=True)
class Table:
    """Film matrices on a rectangular (lambda, qx, qy) grid."""

    qx: np.ndarray
    qy: np.ndarray
    lam: np.ndarray
    matrices: np.ndarray  # (n_lam, n_qx, n_qy, 2, 2)

    @staticmethod
    def sample(film: Film, qx, qy, lams) -> "Table":
        qx, qy, lams = (np.asarray(a, dtype=float) for a in (qx, qy, lams))
        gx, gy = np.meshgrid(qx, qy, indexing="ij")
        mats = np.stack([film.matrices(gx, gy, lam) for lam in lams])
        return Table(qx, qy, lams, mats)

    @staticmethod
    def from_csv(path) -> "Table":
        """Read back a table written by ``csv_text``."""
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        qx, qy, lam = (np.unique(data[:, i]) for i in range(3))
        values = data[:, 3::2] + 1j * data[:, 4::2]
        return Table(qx, qy, lam, values.reshape(lam.size, qx.size, qy.size, 2, 2))

    def csv_text(self) -> str:
        """Rows sorted by (lambda, qx, qy), floats written round-trip exact."""
        lines = ["qx,qy,lambda_nm,re_xx,im_xx,re_xy,im_xy,re_yx,im_yx,re_yy,im_yy"]
        for il, lam in enumerate(self.lam):
            for ix, qx in enumerate(self.qx):
                for iy, qy in enumerate(self.qy):
                    m = self.matrices[il, ix, iy].ravel()
                    vals = [qx, qy, lam] + [p for c in m for p in (c.real, c.imag)]
                    lines.append(",".join(repr(float(v)) for v in vals))
        return "\n".join(lines) + "\n"

    def matrices_at(self, qx, qy, lam):
        def locate(axis, values):
            i = np.clip(np.searchsorted(axis, values, side="right") - 1, 0, axis.size - 2)
            return i, (values - axis[i]) / (axis[i + 1] - axis[i])

        qx = np.asarray(qx, dtype=float)
        qy = np.asarray(qy, dtype=float)
        if (qx.min() < self.qx[0] or qx.max() > self.qx[-1]
                or qy.min() < self.qy[0] or qy.max() > self.qy[-1]):
            raise ValueError("reference query outside the tabulated q range")
        ix, tx = locate(self.qx, qx)
        iy, ty = locate(self.qy, qy)
        il, tl = locate(self.lam, np.asarray(lam, dtype=float))
        tx, ty = tx[..., None, None], ty[..., None, None]

        def plane(k):
            m = self.matrices[k]
            return ((1 - tx) * (1 - ty) * m[ix, iy] + tx * (1 - ty) * m[ix + 1, iy]
                    + (1 - tx) * ty * m[ix, iy + 1] + tx * ty * m[ix + 1, iy + 1])

        return (1 - tl) * plane(il) + tl * plane(il + 1)


def telescope(lam, semiaperture_deg):
    """(k, alpha, magnification, q2_max) of the default telescope at ``lam``."""
    k = 2.0 * np.pi / lam
    f, delta = F_MM * 1e6, DELTA_MM * 1e6
    alpha = (N_SUBSTRATE - 1.0) * delta / (2.0 * N_SUBSTRATE * k)
    mag = N_SUBSTRATE * f / ((N_SUBSTRATE - 1.0) * delta)
    return k, alpha, mag, k * np.sin(np.deg2rad(semiaperture_deg))


def aperture_grid(q2_max, n_grid):
    """Midpoint grid of n_grid x n_grid cells masked to the aperture disc."""
    h = 2.0 * q2_max / n_grid
    axis = -q2_max + (np.arange(n_grid) + 0.5) * h
    qx, qy = np.meshgrid(axis, axis, indexing="ij")
    mask = qx ** 2 + qy ** 2 <= q2_max * q2_max
    return qx[mask], qy[mask], h * h


def transfer(film_at, lam, semiaperture_deg, q3, n_grid):
    """Direct-sum T(q3) for each row of ``q3``; shape (P, 2, 2).

    ``film_at(qx, qy, lam)`` returns film matrices of shape qx.shape + (2, 2).
    """
    _, alpha, mag, q2_max = telescope(lam, semiaperture_deg)
    q2x, q2y, area = aperture_grid(q2_max, n_grid)
    f = film_at(q2x, q2y, lam).reshape(-1, 4)
    centers = mag * np.atleast_2d(np.asarray(q3, dtype=float))
    rows = max(1, CHUNK_BYTES // (16 * q2x.size))
    out = np.empty((centers.shape[0], 4), dtype=complex)
    for start in range(0, centers.shape[0], rows):
        c = centers[start:start + rows]
        arg = alpha * ((q2x[None, :] - c[:, :1]) ** 2 + (q2y[None, :] - c[:, 1:]) ** 2)
        out[start:start + rows] = (np.cos(arg) + 1j * np.sin(arg)) @ f
    return out.reshape(-1, 2, 2) * area


def output_axis(lam, semiaperture_deg, points):
    """q3 axis of a ``points``-wide map spanning the aperture's image."""
    k, _, mag, _ = telescope(lam, semiaperture_deg)
    q3_max = k * np.sin(np.deg2rad(semiaperture_deg) / mag)
    return np.linspace(-q3_max, q3_max, points) if points > 1 else np.zeros(1)


def map_visibility(film_at, lam, semiaperture_deg, beta2_deg, points, n_grid):
    """Fringe visibility of the multimode map for photon 2 at beta2."""
    axis = output_axis(lam, semiaperture_deg, points)
    qx, qy = np.meshgrid(axis, axis, indexing="ij")
    t = transfer(film_at, lam, semiaperture_deg,
                 np.column_stack([qx.ravel(), qy.ravel()]), n_grid)
    b = np.deg2rad(beta2_deg) + np.pi / 2.0
    e = t @ np.array([np.cos(b), np.sin(b)], dtype=complex)
    form = np.einsum("pi,pj->ij", e, e.conj()).real
    lo, hi = np.clip(np.linalg.eigvalsh(form), 0.0, None)
    return (hi - lo) / (hi + lo)


def ellipses(fields):
    """(intensity, psi, axis_ratio) of Jones vectors along the last axis."""
    ex, ey = fields[..., 0], fields[..., 1]
    s0 = np.abs(ex) ** 2 + np.abs(ey) ** 2
    s1 = np.abs(ex) ** 2 - np.abs(ey) ** 2
    cross = ex * np.conj(ey)
    psi = 0.5 * np.arctan2(2.0 * cross.real, s1)
    ratio = np.tan(0.5 * np.arcsin(np.clip(2.0 * cross.imag / s0, -1.0, 1.0)))
    return s0, psi, ratio
