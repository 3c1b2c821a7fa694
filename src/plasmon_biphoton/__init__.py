"""Simulator of plasmon-assisted transmission of polarization-entangled photons.

Models a nanostructured metal film (subwavelength hole array) placed at the
focus of a confocal telescope, and the effect of the combined system on a
polarization-entangled biphoton: transmittance spectra, multimode transfer
matrices, output polarization maps, and coincidence fringe visibilities.

The modules are imported by name (``plasmon_biphoton.film``, ``.optics``,
``.quantum``, ``.scenarios``); ``pbsim`` is ``plasmon_biphoton.cli``.
"""

__version__ = "0.1.0"
