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

``coincidence_rate`` and ``visibility`` take either picture as their source:
a ``PostselectedState`` or a real 2x2 form.

Two-qubit basis order: |XX>, |XY>, |YX>, |YY> (photon 1 tensor photon 2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .jones import polarizer

__all__ = [
    "GRAM_LABELS",
    "PostselectedState",
    "VisibilityResult",
    "singlet",
    "gram_identity",
    "gram_allones",
    "postselect_channel",
    "concurrence",
    "power_form",
    "coincidence_rate",
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


@dataclass(frozen=True)
class VisibilityResult:
    """Fringe visibility of the coincidence rate as polarizer 1 rotates."""

    beta2: float
    visibility: float
    beta1_max: float
    beta1_min: float
    c_max: float
    c_min: float


def singlet() -> np.ndarray:
    """Polarization singlet (|XY> - |YX>)/sqrt(2) as a 4-amplitude vector."""
    return np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / np.sqrt(2.0)


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


def concurrence(state: PostselectedState | np.ndarray) -> float:
    """Wootters concurrence of a two-qubit density matrix."""
    rho = state.rho if isinstance(state, PostselectedState) else np.asarray(state, dtype=complex)
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


def _coincidence_form(source, beta2: float) -> np.ndarray:
    """Real symmetric 2x2 form A with C(beta1) = e(beta1)^T A e(beta1)."""
    if isinstance(source, np.ndarray) and source.shape == (2, 2):
        return source
    if isinstance(source, PostselectedState):
        rho4 = source.rho
        p2 = polarizer(beta2)
        # reduced photon-1 operator Tr_2[rho (I x P2)]
        rho_r = rho4.reshape(2, 2, 2, 2)
        reduced = np.einsum("iajb,ba->ij", rho_r, p2)
        return reduced.real
    raise TypeError(f"unsupported coincidence source {type(source).__name__}")


def coincidence_rate(source, beta1: float, beta2: float) -> float:
    """Coincidence rate for polarizer angles (beta1, beta2), arbitrary scale.

    ``source`` is a PostselectedState (monomode) or (multimode) the
    ``power_form`` of photon 1's output fields for input polarization
    beta2 + 90 deg.
    """
    a = _coincidence_form(source, beta2)
    e1 = np.array([np.cos(beta1), np.sin(beta1)])
    return float(e1 @ a @ e1)


def visibility(beta2: float, source) -> VisibilityResult:
    """Fringe visibility over beta1 at fixed beta2, by eigendecomposition.

    The coincidence rate is a quadratic form in (cos beta1, sin beta1); its
    extrema over beta1 are the eigenvalues of the real symmetric form.
    """
    a = _coincidence_form(source, beta2)
    evals, evecs = np.linalg.eigh(a)
    c_min, c_max = float(max(evals[0], 0.0)), float(max(evals[1], 0.0))
    if c_max + c_min <= 0.0 or c_max == 0.0:
        raise ValueError("coincidence rate vanishes identically: visibility undefined")
    beta1_min = float(np.arctan2(evecs[1, 0], evecs[0, 0]))
    beta1_max = float(np.arctan2(evecs[1, 1], evecs[0, 1]))
    v = (c_max - c_min) / (c_max + c_min)
    return VisibilityResult(beta2=beta2, visibility=v,
                            beta1_max=beta1_max, beta1_min=beta1_min,
                            c_max=c_max, c_min=c_min)

