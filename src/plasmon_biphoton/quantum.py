"""Post-selected biphoton states, coincidence rates, visibilities and ellipses.

Two pictures are supported, mirroring the two regimes of the experiment:

* monomode: the full two-qubit density matrix of the post-selected output
  state, including the Gram matrix of final solid states.  One coherence c
  in [0, 1] sets it, (1 - c) I + c J: from perfect which-way recording
  (c = 0, the identity I) to none at all (c = 1, the all-ones J).
* multimode: photon 2 is projected first; photon 1 then propagates
  classically through the telescope as a single linearly polarized field
  (polarized at beta2 + 90 deg), and the coincidence rate is the
  polarizer-projected power summed over the detected q3 grid (uniform
  bucket-detector weights).  That sum depends on the fields only through
  the real 2x2 form sum Re(E E^H), which ``power_form`` builds.

Both pictures reduce photon 1 to one real symmetric 2x2 coincidence form A,
with C(beta1) = e^T A e for the Jones vector e = ``linear_pol(beta1)`` in the
fixed lab (x, y) basis: ``reduced_form`` of the post-selected density
matrix, ``power_form`` of the output fields.  ``visibility`` takes that form.
``ellipse_arrays`` reads the same fields point by point as polarization
ellipses.  Handedness: ``axis_ratio > 0`` if and only if
``Im(ex * conj(ey)) > 0``.  A circular state has ``psi`` 0, and a zero field
has intensity, psi and axis_ratio 0.

Two-qubit basis order: |XX>, |XY>, |YX>, |YY> (photon 1 tensor photon 2).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "linear_pol",
    "ellipse_arrays",
    "postselect_channel",
    "concurrence",
    "power_form",
    "reduced_form",
    "visibility",
]

_SIGMA_YY = np.array([
    [0, 0, 0, -1],
    [0, 0, 1, 0],
    [0, 1, 0, 0],
    [-1, 0, 0, 0],
], dtype=complex)

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


def postselect_channel(t: np.ndarray, coherence: float) -> np.ndarray:
    """Post-selected two-qubit density matrix of a singlet through film channel ``t``.

    ``t`` is the 2x2 Jones matrix of photon 1's path.  Output polarization a
    of input b leaves the branch amplitude t_ab / sqrt(2) on one ket,
    v = (-t_xy, t_xx, -t_yy, t_yx) / sqrt(2), entangled with the final solid
    state of that channel.  The Gram matrix of those states is
    (1 - coherence) I + coherence J for a ``coherence`` in [0, 1], and the
    state is diag(v) Gram diag(v)^H over its trace.  ValueError if the trace
    is 0.
    """
    t = np.asarray(t, dtype=complex)
    gram = ((1.0 - coherence) * np.eye(4, dtype=complex)
            + coherence * np.ones((4, 4), dtype=complex))
    v = np.array([-t[0, 1], t[0, 0], -t[1, 1], t[1, 0]]) / np.sqrt(2.0)
    rho = np.diag(v) @ gram @ np.diag(v.conj())
    weight = float(np.trace(rho).real)
    if weight == 0.0:
        raise ValueError("all channel amplitudes vanish: nothing to post-select")
    return rho / weight


def concurrence(rho: np.ndarray) -> float:
    """Wootters concurrence of the two-qubit density matrix ``rho``."""
    rho_tilde = _SIGMA_YY @ rho.conj() @ _SIGMA_YY
    eig = np.linalg.eigvals(rho @ rho_tilde)
    lam = np.sqrt(np.clip(eig.real, 0.0, None))
    lam.sort()
    return float(max(0.0, lam[3] - lam[2] - lam[1] - lam[0]))


def power_form(fields: np.ndarray) -> np.ndarray:
    """Real symmetric 2x2 form sum Re(E E^H) over fields E of shape (..., 2).

    A polarizer at beta1 then passes the summed power e(beta1)^T A e(beta1).
    """
    ex = fields[..., 0]
    ey = fields[..., 1]
    a = np.empty((2, 2), dtype=complex)
    a[0, 0] = np.sum(np.abs(ex) ** 2)
    a[1, 1] = np.sum(np.abs(ey) ** 2)
    a[0, 1] = np.sum(ex * np.conj(ey))
    a[1, 0] = np.conj(a[0, 1])
    return a.real


def reduced_form(rho: np.ndarray, beta2: float) -> np.ndarray:
    """Coincidence form Re Tr_2[rho (I x P(beta2))] of photon 1, polarizer 2 at beta2.

    P(beta2) = e e^T is the projector onto e = linear_pol(beta2).
    """
    e = linear_pol(beta2)
    return np.einsum("iajb,ba->ij", rho.reshape(2, 2, 2, 2), np.outer(e, e)).real


def visibility(form: np.ndarray) -> float:
    """Fringe visibility over beta1 of C(beta1) = e(beta1)^T A e(beta1).

    The extrema of the quadratic form over beta1 are the eigenvalues of the
    real symmetric 2x2 form A = [[a, b], [b, d]], in closed form
    c+- = (a + d +- hypot(a - d, 2 b)) / 2, each clipped at 0 from below,
    and V = (c+ - c-) / (c+ + c-).  b is read from the lower triangle, as
    LAPACK's ``eigvalsh`` reads it.  A form with a non-finite entry gives
    NaN by IEEE arithmetic (inf - inf, inf / inf); ValueError if c+ is 0.
    """
    a, b, d = float(form[0, 0]), float(form[1, 0]), float(form[1, 1])
    root = math.hypot(a - d, 2.0 * b)
    c_max, c_min = max((a + d + root) / 2.0, 0.0), max((a + d - root) / 2.0, 0.0)
    if c_max == 0.0:
        raise ValueError("coincidence rate vanishes identically: visibility undefined")
    return (c_max - c_min) / (c_max + c_min)
