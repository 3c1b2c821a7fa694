"""Jones vectors and polarization ellipses in the fixed lab (x, y) transverse basis.

Jones vectors are complex ndarrays of shape (2,); ``linear_pol`` makes the
linearly polarized ones.  The p/s bases of oblique modes never appear:
everything stays in the lab frame.  Polarization ellipses are extracted for
whole arrays of field components by ``ellipse_arrays``; a single Jones
vector is the one-point case.

Handedness convention
---------------------
``axis_ratio > 0`` if and only if ``Im(ex * conj(ey)) > 0``.  The orientation
``psi`` of a circular state is reported as 0, and a zero field gets
intensity 0, psi 0 and axis_ratio 0.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "linear_pol",
    "ellipse_arrays",
]

# |axis_ratio| above this is treated as circular (psi degenerate, reported 0)
_CIRCULAR_EPS = 1e-14


def linear_pol(angle: float) -> np.ndarray:
    """Unit Jones vector linearly polarized at ``angle`` radians from x."""
    return np.array([np.cos(angle), np.sin(angle)], dtype=complex)


def ellipse_arrays(ex: np.ndarray, ey: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized (intensity, psi, axis_ratio) for arrays of field components.

    Zero-intensity points get psi = 0 and axis_ratio = 0 instead of raising;
    callers rendering maps mask them by the returned zero intensity.
    """
    ex = np.asarray(ex, dtype=complex)
    ey = np.asarray(ey, dtype=complex)
    s0 = np.abs(ex) ** 2 + np.abs(ey) ** 2
    s1 = np.abs(ex) ** 2 - np.abs(ey) ** 2
    cross = ex * np.conj(ey)
    s2 = 2.0 * np.real(cross)
    s3 = 2.0 * np.imag(cross)

    safe = np.where(s0 > 0.0, s0, 1.0)
    chi = 0.5 * np.arcsin(np.clip(s3 / safe, -1.0, 1.0))
    ratio = np.where(s0 > 0.0, np.tan(chi), 0.0)

    psi = 0.5 * np.arctan2(s2, s1)
    psi = np.where(psi >= np.pi / 2, psi - np.pi, psi)
    degenerate = (np.hypot(s1, s2) == 0.0) | (1.0 - np.abs(ratio) < _CIRCULAR_EPS)
    psi = np.where(degenerate, 0.0, psi)
    return s0, psi, ratio
