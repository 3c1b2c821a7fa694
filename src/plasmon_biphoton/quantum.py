"""Post-selected biphoton states, coincidence rates and fringe visibilities.

Two pictures are supported, mirroring the two regimes of the experiment:

* monomode: the full two-qubit density matrix of the post-selected output
  state, including the Gram matrix of final solid states.  The Gram matrix
  interpolates between perfect which-way recording (identity) and none at
  all (all-ones).
* multimode: photon 2 is projected first; photon 1 then propagates
  classically through the telescope as a single linearly polarized field
  (polarized at beta2 + 90 deg), and the coincidence rate is the
  polarizer-projected power summed over the detected q3 grid (uniform
  bucket-detector weights).  That sum depends on the fields only through
  the real 2x2 form sum Re(E E^H), which ``power_form`` builds.

Both pictures reduce photon 1 to one real symmetric 2x2 coincidence form A,
with C(beta1) = e(beta1)^T A e(beta1): ``reduced_form`` of a post-selected
state, ``power_form`` of the output fields.  ``visibility`` takes that form.

Two-qubit basis order: |XX>, |XY>, |YX>, |YY> (photon 1 tensor photon 2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .jones import polarizer

__all__ = [
    "PostselectedState",
    "gram_identity",
    "gram_allones",
    "postselect_channel",
    "concurrence",
    "power_form",
    "reduced_form",
    "visibility",
]

# solid-state labels (ab) = (output pol, input pol) of photon 1, in the order
# the channel amplitudes are enumerated
GRAM_LABELS = ("xx", "yx", "xy", "yy")

# channel label -> (sign, two-qubit basis index of the surviving biphoton ket)
_CHANNEL_KETS = {"xx": (+1.0, 1), "yx": (+1.0, 3), "xy": (-1.0, 0), "yy": (-1.0, 2)}

_SIGMA_YY = np.array([
    [0, 0, 0, -1],
    [0, 0, 1, 0],
    [0, 1, 0, 0],
    [-1, 0, 0, 0],
], dtype=complex)


@dataclass(frozen=True)
class PostselectedState:
    """Two-qubit density matrix after tracing out the solid and post-selecting.

    success_weight is the pre-normalization trace relative to the channel
    strength sum; it is reported but never enters visibility (post-selection
    normalizes it away).
    """

    rho: np.ndarray
    success_weight: float


def gram_identity() -> np.ndarray:
    """Orthogonal solid states: complete which-way recording."""
    return np.eye(4, dtype=complex)


def gram_allones() -> np.ndarray:
    """Identical solid states: no which-way recording."""
    return np.ones((4, 4), dtype=complex)


def _validate_gram(g: np.ndarray) -> np.ndarray:
    g = np.asarray(g, dtype=complex)
    if g.shape != (4, 4):
        raise ValueError("Gram matrix must be 4x4")
    if not np.allclose(g, g.conj().T, atol=1e-10):
        raise ValueError("Gram matrix must be Hermitian")
    if not np.allclose(np.diag(g).real, 1.0, atol=1e-10):
        raise ValueError("Gram matrix must have unit diagonal")
    if np.linalg.eigvalsh(g).min() < -1e-10:
        raise ValueError("Gram matrix must be positive semidefinite")
    return g


def postselect_channel(t: np.ndarray, gram: np.ndarray) -> PostselectedState:
    """Output state for a singlet input through film channel amplitudes ``t``.

    ``t`` is the 2x2 Jones matrix of photon 1's path; ``gram`` the 4x4
    matrix of solid-state overlaps indexed by GRAM_LABELS.
    """
    t = np.asarray(t, dtype=complex)
    gram = _validate_gram(gram)
    t_entries = {"xx": t[0, 0], "xy": t[0, 1], "yx": t[1, 0], "yy": t[1, 1]}
    strength = sum(abs(v) ** 2 for v in t_entries.values())
    if strength == 0.0:
        raise ValueError("all channel amplitudes vanish: nothing to post-select")

    # unnormalized branch vectors c_a |psi_a> in the two-qubit basis
    branches = np.zeros((4, 4), dtype=complex)
    for col, label in enumerate(GRAM_LABELS):
        sign, ket = _CHANNEL_KETS[label]
        branches[ket, col] = sign * t_entries[label] / np.sqrt(2.0)

    rho = branches @ gram @ branches.conj().T
    weight = float(np.trace(rho).real)
    return PostselectedState(rho=rho / weight, success_weight=weight / strength)


def concurrence(state: PostselectedState) -> float:
    """Wootters concurrence of the two-qubit density matrix of ``state``."""
    rho = state.rho
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


def reduced_form(state: PostselectedState, beta2: float) -> np.ndarray:
    """Coincidence form Re Tr_2[rho (I x P(beta2))] of photon 1, polarizer 2 at beta2."""
    rho_r = state.rho.reshape(2, 2, 2, 2)
    return np.einsum("iajb,ba->ij", rho_r, polarizer(beta2)).real


def visibility(form: np.ndarray) -> float:
    """Fringe visibility over beta1 of C(beta1) = e(beta1)^T A e(beta1).

    The extrema of the quadratic form over beta1 are the eigenvalues of the
    real symmetric 2x2 form A.
    """
    c_min, c_max = (max(float(c), 0.0) for c in np.linalg.eigvalsh(form))
    if c_max == 0.0:
        raise ValueError("coincidence rate vanishes identically: visibility undefined")
    return (c_max - c_min) / (c_max + c_min)
