"""Slow reference implementations that tests compare the library against."""

import numpy as np

from plasmon_biphoton.film import film_matrix_grid
from plasmon_biphoton.quantum import VisibilityResult, _coincidence_form


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


def visibility_brute(beta2: float, source, step_deg: float = 1.0,
                     iris_radius_frac: float | None = None) -> VisibilityResult:
    """Visibility by scanning beta1 in 1 deg steps with parabolic refinement.

    Independent cross-check of the eigenvalue route in ``quantum.visibility``.
    """
    a = _coincidence_form(source, beta2, iris_radius_frac)

    def rate(b1):
        e1 = np.array([np.cos(b1), np.sin(b1)])
        return float(e1 @ a @ e1)

    angles = np.deg2rad(np.arange(0.0, 180.0, step_deg))
    rates = np.array([rate(b) for b in angles])

    def refine(idx):
        h = np.deg2rad(step_deg)
        b0 = angles[idx]
        y0, y1, y2 = rate(b0 - h), rates[idx], rate(b0 + h)
        denom = y0 - 2.0 * y1 + y2
        shift = 0.0 if denom == 0.0 else 0.5 * h * (y0 - y2) / denom
        b = b0 + np.clip(shift, -h, h)
        return b, rate(b)

    beta1_max, c_max = refine(int(np.argmax(rates)))
    beta1_min, c_min = refine(int(np.argmin(rates)))
    c_min = max(c_min, 0.0)
    if c_max + c_min <= 0.0 or c_max == 0.0:
        raise ValueError("coincidence rate vanishes identically: visibility undefined")
    v = (c_max - c_min) / (c_max + c_min)
    return VisibilityResult(beta2=beta2, visibility=v,
                            beta1_max=float(beta1_max), beta1_min=float(beta1_min),
                            c_max=c_max, c_min=c_min)
