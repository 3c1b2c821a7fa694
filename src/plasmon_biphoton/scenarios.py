"""Reproducible experiment pipelines driven by flat key=value config files.

Four scenario kinds bind the film, optics and quantum layers together:

* ``spectrum`` - normal/tilted-incidence transmittance vs wavelength
* ``visibility_sweep`` - fringe visibility vs telescope semiaperture
* ``polmap`` - output intensity/polarization maps over q3
* ``channel`` - monomode post-selection channel report

Config files are plain ``key = value`` lines (``#`` comments); angles are
degrees in the file and converted to radians at the scenario boundary.  The
runners compute and open no files; ``run_scenario`` alone writes them, after
the run has computed them all.  Every CSV is comma-separated under one
header line, each value in fixed scientific notation with 9 significant
digits, byte for byte what ``"%.8e" % value`` prints; it comes from a fixed
evaluation order, so identical configs produce byte-identical files.  A NaN
or +-inf in any table refuses the run (NonFiniteOutputError): no file of it
is written.
"""

from __future__ import annotations

import cmath
import copy
import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .film import (
    FilmModel,
    TabulatedGrid,
    default_film,
    film_matrix,
    film_matrix_grid,
    load_tabulated,
)
from .jones import ellipse_arrays, linear_pol
from .optics import PARAXIAL_LIMIT_RAD, SetupParams, q3_axis, transfer
from .quantum import (
    concurrence,
    postselect_channel,
    power_form,
    reduced_form,
    visibility,
)

__all__ = [
    "ScenarioConfig",
    "ConfigError",
    "NonFiniteOutputError",
    "parse_config",
    "parse_config_file",
    "serialize_config",
    "run_scenario",
    "run_spectrum",
    "run_visibility_sweep",
    "run_polmap",
    "run_channel",
]

FMT = "%.8e"
POLMAP_HEADER = ["q3x", "q3y", "theta3x_deg", "theta3y_deg", "intensity", "psi_rad",
                 "axis_ratio"]

KINDS = ("spectrum", "visibility_sweep", "polmap", "channel")

# the polarizer-2 angles, in degrees, of the channel report's V_0 and V_45
CHANNEL_BETA2_DEG = (0.0, 45.0)

# quad_points, map_points, polmap_points and the step counts of the
# wavelength and semiaperture ranges stay below this.  A grid that large is
# far beyond memory, and far larger ones fail in NumPy's size checks
# (ValueError, OverflowError) before any allocation is tried.
MAX_GRID_POINTS = 2 ** 31


def _values(value) -> tuple:
    """A tuple field's values, or a scalar field's one value."""
    return value if isinstance(value, (tuple, list)) else (value,)


class ConfigError(ValueError):
    """Invalid or inconsistent scenario configuration."""


class NonFiniteOutputError(ArithmeticError):
    """A computed table holds NaN or +-inf; it is not written."""


@dataclass(frozen=True)
class ScenarioConfig:
    """One scenario run.  Defaults follow the experiment's parameters:

    f = 15 mm, n = 1.52, 0.5 mm substrate, 700 nm lattice period,
    resonances at 797 nm (diagonal) and 728 nm (axis), 8 deg semiaperture.
    """

    kind: str = "visibility_sweep"
    # geometry / film
    f_mm: float = 15.0
    n_substrate: float = 1.52
    delta_mm: float = 0.5
    period_nm: float = 700.0
    gamma_diagonal_nm: float = 4.0
    gamma_axis_nm: float = 5.0
    axis_amplitude_scale: float = 0.38
    peak_transmittance: float = 0.03
    direct_amplitude: complex = 0.03 + 0j
    lambda_diagonal_nm: float = 797.0
    lambda_axis_nm: float = 728.0
    film_table: str = ""
    semiaperture_deg: float = 8.0
    quad_points: int = 201
    # spectrum
    lambda_min_nm: float = 700.0
    lambda_max_nm: float = 850.0
    lambda_step_nm: float = 0.25
    tilts_deg: tuple = (0.0, 2.0, 4.0, 6.0)
    # visibility sweep
    lambdas_nm: tuple = (797.0, 728.0)
    beta2_deg: tuple = (0.0, 45.0)
    semiaperture_min_deg: float = 0.0
    semiaperture_max_deg: float = 10.0
    semiaperture_step_deg: float = 0.5
    map_points: int = 41
    # polmap
    input_pol_deg: float = -45.0
    theta3_max_deg: float = 0.0  # 0 means the mapped aperture
    polmap_points: int = 81
    # channel
    t_xx: complex = 1.0 + 0j
    t_xy: complex = 0.0 + 0j
    t_yx: complex = 0.0 + 0j
    t_yy: complex = 1.0 + 0j
    # the Gram matrix of the final solid states: 1 keeps no which-way record
    # (all-ones), 0 records it fully (the identity)
    gram_coherence: float = 1.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown scenario kind {self.kind!r}; expected one of {KINDS}")
        for f in dataclasses.fields(self):
            if f.type in ("float", "complex", "tuple") and \
                    not all(map(cmath.isfinite, _values(getattr(self, f.name)))):
                raise ConfigError(f"{f.name} must be finite")
        for name in ("lambda_min_nm", "lambdas_nm", "lambda_diagonal_nm", "lambda_axis_nm"):
            if not all(v > 0 for v in _values(getattr(self, name))):
                raise ConfigError(f"{name} must be positive")
        if self.lambda_min_nm >= self.lambda_max_nm or self.lambda_step_nm <= 0:
            raise ConfigError("spectrum wavelength range must be nonempty and increasing")
        if self.semiaperture_step_deg <= 0 or self.semiaperture_min_deg > self.semiaperture_max_deg:
            raise ConfigError("semiaperture range must be nonempty and increasing")
        if not self.lambdas_nm or not self.beta2_deg or not self.tilts_deg:
            raise ConfigError("list-valued config fields must be nonempty")
        if not 0.0 <= self.gram_coherence <= 1.0:
            raise ConfigError("gram_coherence must lie in [0, 1]")
        for name in ("quad_points", "map_points", "polmap_points"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1")
            if getattr(self, name) >= MAX_GRID_POINTS:
                raise ConfigError(f"{name} must be below 2**31")
        for name in ("semiaperture_deg", "semiaperture_min_deg", "semiaperture_max_deg",
                     "theta3_max_deg"):
            if not 0.0 <= math.radians(getattr(self, name)) <= PARAXIAL_LIMIT_RAD:
                raise ConfigError(
                    f"{name} must lie in the paraxial range "
                    f"[0, {math.degrees(PARAXIAL_LIMIT_RAD):.4g}] deg")
        if (self.lambda_max_nm - self.lambda_min_nm) / self.lambda_step_nm >= MAX_GRID_POINTS:
            raise ConfigError("lambda_step_nm splits the wavelength range into 2**31 steps or more")
        if (self.semiaperture_max_deg - self.semiaperture_min_deg) / self.semiaperture_step_deg \
                >= MAX_GRID_POINTS:
            raise ConfigError(
                "semiaperture_step_deg splits the semiaperture range into 2**31 steps or more")
        # the film, telescope and channel constructors state the remaining rules
        try:
            self._build()
        except ValueError as exc:
            keys = ", ".join(f"{name} = {_format_value(getattr(self, name))}"
                             for name in self._keys_behind(exc))
            raise ConfigError(f"{keys}: {exc}" if keys else str(exc)) from exc

    def _build(self) -> None:
        """Build what the constructors check; raises the first ValueError.

        A finite value so large that building overflows is one too, and so
        is a polmap semiaperture whose aperture radius is 0, as 0 deg or a
        subnormal one is.  Only the channel report reads t, and it needs
        both V_0 and V_45 defined.
        """
        try:
            with np.errstate(over="raise"):
                setup = self.setup(None if self.film_table else self.film(), self.lambdas_nm[0])
                if self.kind == "polmap" and setup.q2_max == 0.0:
                    raise ValueError("no aperture to map: k sin(semiaperture) is 0")
                if self.kind == "channel":
                    rho = postselect_channel(self.channel_matrix(), self.gram_coherence)
                    for b2 in CHANNEL_BETA2_DEG:
                        try:
                            visibility(reduced_form(rho, np.deg2rad(b2)))
                        except ValueError as exc:
                            raise ValueError(f"V_{b2:g}: {exc}") from None
        except ArithmeticError as exc:
            raise ValueError("building the film, telescope or channel overflows") from exc

    def _keys_behind(self, exc: ValueError) -> list[str]:
        """Numeric keys each of which, set back alone to its default, lifts or changes ``exc``.

        String keys select what is built (kind, film table) and are not blamed.
        """
        keys = []
        for f in dataclasses.fields(self):
            if f.type == "str" or getattr(self, f.name) == f.default:
                continue
            trial = copy.copy(self)
            object.__setattr__(trial, f.name, f.default)
            try:
                trial._build()
            except ValueError as other:
                if str(other) == str(exc):
                    continue
            keys.append(f.name)
        return keys

    def require_transmission(self, values, where: str) -> None:
        """ConfigError if ``values``, a coincidence form or a map's peak intensity, are all zero.

        A film table can be zero where it is read; any film gives a zero
        transform through an aperture so small that its grid step squared
        underflows; and the power of the fields of a film that transmits
        almost nothing underflows to 0.
        """
        if not np.any(values):
            table = f"film_table = {self.film_table}: " if self.film_table else ""
            raise ConfigError(f"{table}film transmits nothing {where}")

    # -- derived builders ---------------------------------------------------

    def film(self) -> FilmModel | TabulatedGrid:
        """The analytic film of the film keys, or the table ``film_table``, which ignores them."""
        if self.film_table:
            try:
                return load_tabulated(self.film_table)
            except (OSError, ValueError) as exc:
                raise ConfigError(f"film table {self.film_table}: {exc}") from exc
        return default_film(
            gamma_diagonal_nm=self.gamma_diagonal_nm,
            gamma_axis_nm=self.gamma_axis_nm,
            axis_amplitude_scale=self.axis_amplitude_scale,
            peak_transmittance=self.peak_transmittance,
            direct_amplitude=self.direct_amplitude,
            period=self.period_nm,
            lambda_diagonal=self.lambda_diagonal_nm,
            lambda_axis=self.lambda_axis_nm,
        )

    def setup(self, film: FilmModel | TabulatedGrid, lam_nm: float,
              semiaperture_deg: float | None = None) -> SetupParams:
        """Telescope geometry around ``film``, which a run builds once with ``film()``."""
        theta = self.semiaperture_deg if semiaperture_deg is None else semiaperture_deg
        return SetupParams(
            lam=lam_nm, f=self.f_mm * 1e6, n=self.n_substrate,
            delta=self.delta_mm * 1e6, theta_ap=np.deg2rad(theta),
            film=film,
        )

    def channel_matrix(self) -> np.ndarray:
        return np.array([[self.t_xx, self.t_xy], [self.t_yx, self.t_yy]], dtype=complex)


# ---------------------------------------------------------------------------
# config (de)serialization
# ---------------------------------------------------------------------------

def _format_value(value):
    if isinstance(value, tuple):
        return ", ".join(_format_value(v) for v in value)
    if isinstance(value, complex):
        if value.imag == 0.0:
            return repr(value.real)
        return repr(value).strip("()")
    if isinstance(value, float):
        return repr(value)
    return str(value)


def serialize_config(cfg: ScenarioConfig) -> str:
    lines = [f"{f.name} = {_format_value(getattr(cfg, f.name))}"
             for f in dataclasses.fields(cfg)]
    return "\n".join(lines) + "\n"


def _parse_value(name: str, text: str, field_obj):
    kind = field_obj.type
    try:
        if kind == "tuple":
            parts = [p.strip() for p in text.split(",") if p.strip()]
            return tuple(float(p) for p in parts)
        if kind == "complex":
            return complex(text.replace(" ", ""))
        if kind == "float":
            return float(text)
        if kind == "int":
            return int(text)
        return text
    except ValueError as exc:
        raise ConfigError(f"bad value for {name}: {text!r}") from exc


def parse_config(text: str) -> ScenarioConfig:
    """Parse flat ``key = value`` text into a ScenarioConfig."""
    fields = {f.name: f for f in dataclasses.fields(ScenarioConfig)}
    values, first_line = {}, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        name, _, value = line.partition("=")
        name = name.strip()
        if name not in fields:
            raise ConfigError(f"line {lineno}: unknown config key {name!r}")
        if name in first_line:
            raise ConfigError(f"line {lineno}: duplicate config key {name!r} "
                              f"(first set on line {first_line[name]})")
        first_line[name] = lineno
        values[name] = _parse_value(name, value.strip(), fields[name])
    try:
        return ScenarioConfig(**values)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def parse_config_file(path) -> ScenarioConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"--config {path}: cannot read ({exc.strerror})") from exc
    return parse_config(text)


# ---------------------------------------------------------------------------
# scenario runners
# ---------------------------------------------------------------------------

# A value's text is the 16-byte field "-d.dddddddde+dd," held as two
# little-endian int64 words; each table below holds, for one group of digits,
# its ASCII bytes in place in a word.  y = |x| * 10**s, |s| <= 44, is scaled
# in two steps of _MULTIPLY[k + 22] / _DIVIDE[k + 22] = 10**k, |k| <= 22,
# each exact in float64 (5**22 < 2**53) and one of them 10**0.
_POWER = np.array([float(10 ** abs(k)) for k in range(-22, 23)])
_MULTIPLY = np.where(np.arange(-22, 23) > 0, _POWER, 1.0)
_DIVIDE = np.where(np.arange(-22, 23) < 0, _POWER, 1.0)
_ASCII = np.arange(1000, dtype=np.int64)[:, None] // np.array([100, 10, 1]) % 10 + ord("0")


def _in_word(values: np.ndarray, byte_positions: list[int]) -> np.ndarray:
    """Integer whose little-endian bytes hold the last axis of ``values`` at ``byte_positions``."""
    return (values << 8 * np.array(byte_positions)).sum(axis=-1)


# word 0: "-d.ddddd", from the mantissa's leading and middle three digits
_LEADING = _in_word(_ASCII, [1, 3, 4]) | ord("-") | ord(".") << 16
_MIDDLE = _in_word(_ASCII, [5, 6, 7])
# word 1: "ddde+dd,", from its trailing three digits and the exponent -36...52
_TRAILING = _in_word(_ASCII, [0, 1, 2]) | ord("e") << 24
_EXPONENT = (_in_word(_ASCII[np.abs(np.arange(-36, 53)), 1:], [5, 6])
             | np.where(np.arange(-36, 53) < 0, ord("-"), ord("+")) << 32)
_BLOCK_VALUES = 2048


def _format_block(block: np.ndarray) -> tuple[bytes, bool]:
    """Text of a finite 2-D block, and whether it vouches for that text.

    Each value of a vouched-for block reads ``FMT % value``.  |x| is scaled by
    two exact powers of ten into y = |x| * 10**s, with at most two roundings:
    |y - exact| < 2.3e-7 for y < 1e9.  Rounding y to the 9-digit integer
    mantissa is then exact unless the fraction of y lies within 1e-6 of one
    half (a tie or near-tie, which FMT rounds half to even on the exact binary
    value), and 8 - s is FMT's exponent when y lies in [1e8, 1e9 - 1/2).
    Values that need |s| > 44 (subnormals, 1e+-300) fail that range check.
    """
    rows, cols = block.shape
    x = np.abs(block).ravel()
    zero = x == 0.0
    # exponent estimate; the range check on y catches a wrong one
    e = np.floor(np.log10(np.where(zero, 1.0, x))).astype(np.int64)
    s = np.minimum(np.maximum(8 - e, -44), 44)
    first = s // 2 + 22
    second = s - s // 2 + 22
    y = (x * _MULTIPLY.take(first) / _DIVIDE.take(first)
         * _MULTIPLY.take(second) / _DIVIDE.take(second))
    fraction = y - np.floor(y)
    exact = zero | ((y >= 1e8) & (y < 1e9 - 0.5) & (np.abs(fraction - 0.5) > 1e-6))
    mantissa = np.rint(np.where(exact, y, 0.0)).astype(np.int64)
    leading = mantissa // 1000000
    rest = mantissa - leading * 1000000
    middle = rest // 1000

    separator = np.full(cols, ord(",") << 56, dtype=np.int64)
    separator[-1] = ord("\n") << 56
    words = np.empty((rows, cols, 2), dtype="<i8")
    words[..., 0] = (_LEADING.take(leading) | _MIDDLE.take(middle)).reshape(rows, cols)
    words[..., 1] = (_TRAILING.take(rest - middle * 1000)
                     | _EXPONENT.take(44 - s)).reshape(rows, cols) | separator
    fields = words.view(np.uint8).reshape(x.size, 16)
    keep = np.ones(fields.shape, dtype=bool)
    keep[:, 0] = np.signbit(block).ravel()
    return fields[keep].tobytes(), bool(exact.all())


def _csv_rows(table: np.ndarray):
    """Yield the bytes of a finite 2-D table, ``FMT % value`` joined by commas and newlines.

    Blocks of about _BLOCK_VALUES values go through _format_block; a block
    it does not vouch for is formatted by Python instead.
    """
    step = max(1, _BLOCK_VALUES // table.shape[1])
    for start in range(0, len(table), step):
        block = table[start:start + step]
        text, exact = _format_block(block)
        if not exact:
            text = "".join(",".join(FMT % v for v in row) + "\n"
                           for row in block.tolist()).encode()
        yield text


def _encode_pgm(scaled: np.ndarray, top_grey: int = 65535) -> bytes:
    """A map scaled to [0, 1] as a 16-bit binary PGM image, 1 at ``top_grey``.

    Image rows run along +y (axis index j, first row at the largest y),
    columns along +x.
    """
    # a NaN casts quietly: the run's table holds it too, and is refused
    with np.errstate(invalid="ignore"):
        pixels = np.round(np.clip(scaled, 0.0, 1.0) * top_grey).astype(">u2").T[::-1]
    return f"P5\n{pixels.shape[1]} {pixels.shape[0]}\n65535\n".encode() + pixels.tobytes()


def run_spectrum(cfg: ScenarioConfig) -> dict:
    """Transmittance vs wavelength for each tilt, both diagonal polarizations.

    The tilt rotates the incidence around one lattice diagonal; to first
    order it contributes a transverse wavevector k sin(tilt) along that
    diagonal.  Polarization is parallel (+45 deg) or perpendicular (-45 deg)
    to the diagonal.
    """
    film = cfg.film()
    lams = np.arange(cfg.lambda_min_nm, cfg.lambda_max_nm + 0.5 * cfg.lambda_step_nm,
                     cfg.lambda_step_nm)
    diag = np.array([1.0, 1.0]) / np.sqrt(2.0)
    pol_par = linear_pol(np.deg2rad(45.0))
    pol_perp = linear_pol(np.deg2rad(-45.0))

    header = ["lambda_nm"]
    columns = [lams]
    k = 2.0 * np.pi / lams
    for tilt in cfg.tilts_deg:
        header.append(f"T_perp_tilt{tilt:g}")
        header.append(f"T_par_tilt{tilt:g}")
        kt = k * np.sin(np.deg2rad(tilt))
        fxx, fxy, fyx, fyy = film_matrix_grid(film, kt * diag[0], kt * diag[1], lams)
        for pol in (pol_perp, pol_par):
            ex = fxx * pol[0] + fxy * pol[1]
            ey = fyx * pol[0] + fyy * pol[1]
            columns.append(ex.real ** 2 + ex.imag ** 2 + ey.real ** 2 + ey.imag ** 2)
    table = np.column_stack(columns)
    return {"files": {"spectrum.csv": (header, table)}, "lambda_nm": lams,
            "header": header, "table": table}


def run_visibility_sweep(cfg: ScenarioConfig) -> dict:
    """Fringe visibility vs semiaperture for each (wavelength, beta2).

    Every cell is the coincidence sum over the detected output modes: T e,
    for the input e at beta2 + 90 deg, reduced to its 2x2 ``power_form``; no
    ellipse is extracted.  A nonzero aperture builds T once with
    ``transfer`` on the ``map_points``^2 grid over the mapped aperture
    (``SetupParams.theta3_max``).  An aperture of radius
    ``SetupParams.q2_max`` = 0 (0 deg, or a semiaperture that rounds to 0)
    is the monomode limit, the sum over the one mode q3 = 0, where T is the
    normal-incidence film matrix.  A cell whose coincidence form is all
    zero, the film transmitting nothing into it, is a ConfigError.
    """
    apertures = np.arange(
        cfg.semiaperture_min_deg,
        cfg.semiaperture_max_deg + 0.5 * cfg.semiaperture_step_deg,
        cfg.semiaperture_step_deg)

    header = ["semiaperture_deg"]
    for lam in cfg.lambdas_nm:
        for b2 in cfg.beta2_deg:
            header.append(f"V_lam{lam:g}_beta{b2:g}")

    film = cfg.film()
    rows = []
    for ap in apertures:
        row = [ap]
        for lam in cfg.lambdas_nm:
            setup = cfg.setup(film, lam, semiaperture_deg=ap)
            if setup.q2_max == 0.0:
                t = film_matrix(film, (0.0, 0.0), lam)
                where = f"at normal incidence at {lam:g} nm"
            else:
                t = transfer(setup, q3_axis(setup, cfg.map_points, setup.theta3_max),
                             cfg.quad_points)
                where = f"through a {ap:g} deg semiaperture at {lam:g} nm"
            for b2_deg in cfg.beta2_deg:
                b2 = np.deg2rad(b2_deg)
                form = power_form(t @ linear_pol(b2 + np.pi / 2.0))
                cfg.require_transmission(form, where)
                row.append(visibility(form))
        rows.append(row)
    table = np.array(rows)
    return {"files": {"visibility.csv": (header, table)}, "semiaperture_deg": apertures,
            "header": header, "table": table}


def run_polmap(cfg: ScenarioConfig) -> dict:
    """Intensity and polarization maps of the output modes for one input.

    The output fields T(q3) e over a ``polmap_points``^2 grid whose
    half-angle is ``theta3_max_deg``, or the mapped aperture when that is 0,
    and their ellipses (``jones.ellipse_arrays``); the result holds
    ``fields``, ``intensity``, ``psi`` and ``axis_ratio`` indexed [q3x, q3y].
    ``polmap.csv`` has one row per (q3x, q3y) grid point, q3y varying
    fastest.  The intensity image scales [0, max] to the full grey range
    0...65535; the axis-ratio image maps [-1, 1] to 0...65534, so linear
    polarization is the grey level 32767.  A map into which the film
    transmits nothing is a ConfigError.
    """
    lam = cfg.lambdas_nm[0]
    setup = cfg.setup(cfg.film(), lam)
    theta3_max = np.deg2rad(cfg.theta3_max_deg) if cfg.theta3_max_deg > 0 \
        else setup.theta3_max
    axis = q3_axis(setup, cfg.polmap_points, theta3_max)
    fields = transfer(setup, axis, cfg.quad_points) @ linear_pol(np.deg2rad(cfg.input_pol_deg))
    intensity, psi, axis_ratio = ellipse_arrays(fields[..., 0], fields[..., 1])
    q3 = np.meshgrid(axis, axis, indexing="ij")
    theta3_deg = np.rad2deg(np.arcsin(np.stack(q3) / setup.k))
    table = np.column_stack([c.ravel() for c in (*q3, *theta3_deg, intensity, psi, axis_ratio)])
    top = intensity.max()
    theta3_max_deg = np.rad2deg(theta3_max)
    cfg.require_transmission(
        top, f"at {lam:g} nm from input polarization {cfg.input_pol_deg:g} deg")

    files = {
        "polmap.csv": (POLMAP_HEADER, table),
        "polmap_intensity.pgm": _encode_pgm(intensity / top),
        # linear polarization, axis ratio 0 up to rounding noise, is grey 32767
        # exactly; with 65535 it would sit on the rounding midpoint 32767.5
        "polmap_axis_ratio.pgm": _encode_pgm((axis_ratio + 1.0) / 2.0, top_grey=65534),
        "polmap_meta.txt": ("\n".join([
            f"lambda_nm = {FMT % lam}",
            f"input_pol_deg = {FMT % cfg.input_pol_deg}",
            f"semiaperture_deg = {FMT % cfg.semiaperture_deg}",
            f"theta3_max_deg = {FMT % theta3_max_deg}",
            f"mapped_theta2_max_deg = {FMT % (theta3_max_deg * setup.magnification)}",
            f"grid_points = {cfg.polmap_points}",
        ]) + "\n").encode(),
    }
    return {"files": files, "fields": fields, "intensity": intensity, "psi": psi,
            "axis_ratio": axis_ratio, "table": table}


def run_channel(cfg: ScenarioConfig) -> dict:
    """Monomode channel report for explicit t and Gram coherence; ``rho`` is the state."""
    rho = postselect_channel(cfg.channel_matrix(), cfg.gram_coherence)
    conc = concurrence(rho)
    v0, v45 = (visibility(reduced_form(rho, np.deg2rad(b2))) for b2 in CHANNEL_BETA2_DEG)

    lines = [f"gram_coherence = {FMT % cfg.gram_coherence}"]
    for name, val in (("t_xx", cfg.t_xx), ("t_xy", cfg.t_xy),
                      ("t_yx", cfg.t_yx), ("t_yy", cfg.t_yy)):
        lines.append(f"{name} = {FMT % val.real} {FMT % val.imag}")
    for i in range(4):
        lines.append("rho_row%d = " % i + " ".join(
            f"{FMT % rho[i, j].real}{'+' if rho[i, j].imag >= 0 else '-'}"
            f"{FMT % abs(rho[i, j].imag)}j" for j in range(4)))
    lines.append(f"concurrence = {FMT % conc}")
    lines.append(f"V_0 = {FMT % v0}")
    lines.append(f"V_45 = {FMT % v45}")
    return {"files": {"channel.txt": ("\n".join(lines) + "\n").encode()}, "rho": rho,
            "concurrence": conc, "v0": v0, "v45": v45}


_RUNNERS = {
    "spectrum": run_spectrum,
    "visibility_sweep": run_visibility_sweep,
    "polmap": run_polmap,
    "channel": run_channel,
}


def run_scenario(cfg: ScenarioConfig, out_dir) -> dict:
    """Run a config's scenario, then write its files, in order, under ``out_dir``.

    A runner returns each file by name, a CSV as (header, table) or bytes.
    Any non-finite table is refused before the directory is made; a failed
    mkdir or write is a ConfigError naming ``--out``, and a failed write
    first removes every file the run opened.  Adds ``paths``.
    """
    result = _RUNNERS[cfg.kind](cfg)
    out = Path(out_dir)
    for name, content in result["files"].items():
        if isinstance(content, tuple):
            header, table = content
            finite = np.isfinite(table)
            if not finite.all():
                row, col = np.argwhere(~finite)[0]
                raise NonFiniteOutputError(f"{out / name}: {header[col]} = {table[row, col]} "
                                           f"in row {row + 1}; nothing written")
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(
            f"--out {out_dir}: cannot create output directory ({exc.strerror})") from exc
    result["paths"] = []
    for name, content in result["files"].items():
        path = out / name
        try:
            with open(path, "wb") as fh:
                result["paths"].append(path)
                if isinstance(content, bytes):
                    fh.write(content)
                else:
                    header, table = content
                    fh.write((",".join(header) + "\n").encode())
                    fh.writelines(_csv_rows(table))
        except OSError as exc:
            for opened in result["paths"]:
                opened.unlink(missing_ok=True)
            raise ConfigError(f"--out {out_dir}: cannot write {path} ({exc.strerror})") from exc
    return result
