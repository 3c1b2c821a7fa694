"""Post-selected biphoton states, coincidence rates and fringe visibilities.

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
with C(beta1) = e(beta1)^T A e(beta1): ``reduced_form`` of the post-selected
density matrix, ``power_form`` of the output fields.  ``visibility`` takes that form.

Two-qubit basis order: |XX>, |XY>, |YX>, |YY> (photon 1 tensor photon 2).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
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

    P(beta2) = e e^T is the projector onto e = (cos beta2, sin beta2).
    """
    e = np.array([np.cos(beta2), np.sin(beta2)], dtype=complex)
    return np.einsum("iajb,ba->ij", rho.reshape(2, 2, 2, 2), np.outer(e, e)).real


def visibility(form: np.ndarray) -> float:
    """Fringe visibility over beta1 of C(beta1) = e(beta1)^T A e(beta1).

    The extrema of the quadratic form over beta1 are the eigenvalues of the
    real symmetric 2x2 form A = [[a, b], [b, d]], in closed form
    c+- = (a + d +- hypot(a - d, 2 b)) / 2, each clipped at 0 from below,
    and V = (c+ - c-) / (c+ + c-).  b is read from the lower triangle, as
    LAPACK's ``eigvalsh`` reads it.  A form with a non-finite entry gives
    NaN; ValueError if c+ is 0.
    """
    a, b, d = float(form[0, 0]), float(form[1, 0]), float(form[1, 1])
    if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(d)):
        return math.nan
    root = math.hypot(a - d, 2.0 * b)
    c_max, c_min = max((a + d + root) / 2.0, 0.0), max((a + d - root) / 2.0, 0.0)
    if c_max == 0.0:
        raise ValueError("coincidence rate vanishes identically: visibility undefined")
    return (c_max - c_min) / (c_max + c_min)
