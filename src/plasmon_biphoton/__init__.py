"""Simulator of plasmon-assisted transmission of polarization-entangled photons.

Models a nanostructured metal film (subwavelength hole array) placed at the
focus of a confocal telescope, and the effect of the combined system on a
polarization-entangled biphoton: transmittance spectra, multimode transfer
matrices, output polarization maps, and coincidence fringe visibilities.
"""

from .jones import linear_pol, polarizer, rotation
from .film import FilmModel, ResonanceFamily, film_matrix, resonance_wavelength, transmittance
from .optics import SetupParams, q3_axis, transfer
from .quantum import (
    PostselectedState,
    VisibilityResult,
    coincidence_rate,
    concurrence,
    gram_allones,
    gram_identity,
    postselect_channel,
    singlet,
    visibility,
)

__version__ = "0.1.0"

__all__ = [
    "linear_pol",
    "polarizer",
    "rotation",
    "FilmModel",
    "ResonanceFamily",
    "film_matrix",
    "resonance_wavelength",
    "transmittance",
    "SetupParams",
    "q3_axis",
    "transfer",
    "PostselectedState",
    "VisibilityResult",
    "coincidence_rate",
    "concurrence",
    "gram_allones",
    "gram_identity",
    "postselect_channel",
    "singlet",
    "visibility",
]
