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
or +-inf in any table, or a floating-point error in the run, refuses the run
(NonFiniteOutputError): no file of it is written.
"""

from __future__ import annotations

import copy
import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .film import (
    FilmModel,
    ResonanceFamily,
    TabulatedGrid,
    film_matrix_grid,
    load_tabulated,
)
from .optics import PARAXIAL_LIMIT_RAD, SetupParams, q3_axis, transfer
from .quantum import (
    concurrence,
    ellipse_arrays,
    linear_pol,
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

# the polarizer-2 angles, in degrees, of the channel report's V_0 and V_45
CHANNEL_BETA2_DEG = (0.0, 45.0)

# quad_points, map_points, polmap_points and the step counts of the
# wavelength and semiaperture ranges stay below this, far beyond memory: far
# larger grids fail in NumPy's size checks (ValueError, OverflowError), and
# smaller ones in MemoryError, on allocation or from ``transfer``'s pricing.
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
    """One scenario run.  Defaults follow the experiment's parameters.

    The axis family is weaker than the diagonal one by ``axis_amplitude_scale``
    and slightly broader; together with the direct amplitude these ratios
    balance the resonance rings the two families sweep across the telescope
    aperture so that the focused-case visibility asymmetry, its exchange at
    the axis resonance, and the clean off-diagonal polarization maps all
    hold at the default 8 degree semiaperture.
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
                    not all(math.isfinite(v.real) and math.isfinite(v.imag)
                            for v in _values(getattr(self, f.name))):
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
        for name in ("semiaperture_deg", "semiaperture_min_deg", "semiaperture_max_deg"):
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
        # the constructors of what this kind's run builds state the remaining rules
        try:
            self._build()
        except ValueError as exc:
            keys = ", ".join(f"{name} = {_format_value(getattr(self, name))}"
                             for name in self._keys_behind(exc))
            raise ConfigError(f"{keys}: {exc}" if keys else str(exc)) from exc

    def _build(self) -> None:
        """Build what the run of ``kind`` builds; raises the first ValueError.

        A spectrum builds the film (a table is loaded by the run alone).  A
        sweep builds it and the telescope at each of ``lambdas_nm`` at its
        last row, ``semiaperture_max_deg``; a polmap, at the first wavelength
        and ``semiaperture_deg``, and refuses an aperture radius of 0 (0 deg
        or a subnormal one).  A channel report builds only the post-selected
        state and its V_0 and V_45.  A value that overflows a build is refused.
        """
        try:
            with np.errstate(over="raise"):
                if self.kind == "channel":
                    rho = postselect_channel(self.channel_matrix(), self.gram_coherence)
                    for b2 in CHANNEL_BETA2_DEG:
                        try:
                            visibility(reduced_form(rho, np.deg2rad(b2)))
                        except ValueError as exc:
                            raise ValueError(f"V_{b2:g}: {exc}") from None
                    return
                film = None if self.film_table else self.film()
                if self.kind == "visibility_sweep":
                    for lam in self.lambdas_nm:
                        self.setup(film, lam, self.semiaperture_max_deg)
                elif self.kind == "polmap" and self.setup(film, self.lambdas_nm[0]).q2_max == 0.0:
                    raise ValueError("no aperture to map: k sin(semiaperture) is 0")
        except ArithmeticError as exc:
            raise ValueError("building the film, telescope or channel overflows") from exc

    def _keys_behind(self, exc: ValueError) -> list[str]:
        """Numeric keys behind ``exc``, in field order.

        Each key that, set back alone to its default, lifts or changes
        ``exc``.  If none does (two keys that each overflow), the keys whose
        joint reset does, pruned one at a time of those it does without, so
        a key that does not matter is not named.  String keys select what
        is built (kind, film table) and are not blamed.
        """
        changed = [f for f in dataclasses.fields(self)
                   if f.type != "str" and getattr(self, f.name) != f.default]

        def lifts(reset) -> bool:
            trial = copy.copy(self)
            for f in reset:
                object.__setattr__(trial, f.name, f.default)
            try:
                trial._build()
            except ValueError as other:
                return str(other) != str(exc)
            return True

        keys = [f for f in changed if lifts([f])]
        if not keys and lifts(changed):
            keys = changed
            for f in changed:
                if lifts(rest := [g for g in keys if g is not f]):
                    keys = rest
        return [f.name for f in keys]

    # -- derived builders ---------------------------------------------------

    def film(self) -> FilmModel | TabulatedGrid:
        """The analytic film of the film keys, or the table ``film_table``, which ignores them.

        The per-order amplitude makes the diagonal family's normal-incidence
        peak transmittance ``peak_transmittance`` (the four diagonal dyads sum
        to twice the identity at q = 0); the axis family's is
        ``axis_amplitude_scale`` times it.  A table raises ``load_tabulated``'s errors.
        """
        if self.film_table:
            return load_tabulated(self.film_table)
        if not self.peak_transmittance > abs(self.direct_amplitude) ** 2:
            raise ValueError("peak transmittance must exceed the direct intensity")
        amp = 0.5 * (np.sqrt(self.peak_transmittance) - abs(self.direct_amplitude))
        return FilmModel(period=self.period_nm, direct_amplitude=self.direct_amplitude, families=(
            ResonanceFamily.make((1, 1), self.lambda_diagonal_nm, self.gamma_diagonal_nm, amp,
                                 self.period_nm),
            ResonanceFamily.make((1, 0), self.lambda_axis_nm, self.gamma_axis_nm,
                                 amp * self.axis_amplitude_scale, self.period_nm)))

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


def parse_config(text: str, kind: str = ScenarioConfig.kind) -> ScenarioConfig:
    """Parse flat ``key = value`` text into a ScenarioConfig of ``kind`` unless a line sets it."""
    fields = {f.name: f for f in dataclasses.fields(ScenarioConfig)}
    values, first_line = {"kind": kind}, {}
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
    return ScenarioConfig(**values)


def parse_config_file(path, kind: str) -> ScenarioConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"--config {path}: cannot read ({exc.strerror})") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"--config {path}: cannot read ({exc})") from exc
    return parse_config(text, kind)


# ---------------------------------------------------------------------------
# scenario runners
# ---------------------------------------------------------------------------

# A value's text is the 16-byte field "-d.dddddddde+dd," held as two
# little-endian int64 words; each table below holds, for one group of digits,
# its ASCII bytes in place in a word, and is written as those bytes, one
# word's pattern over the digit triples: the import does no NumPy arithmetic,
# because each kernel's first use maps about 64 kB of code into every run.
# y = |x| * 10**s, |s| <= 44, is scaled in two steps of
# _MULTIPLY[k + 22] / _DIVIDE[k + 22] = 10**k, |k| <= 22, each exact in
# float64 (5**22 < 2**53) and one of them 10**0.
_MULTIPLY = np.array([float(10 ** max(k, 0)) for k in range(-22, 23)])
_DIVIDE = np.array([float(10 ** max(-k, 0)) for k in range(-22, 23)])
_DIGITS = b"%03d" * 1000 % tuple(range(1000))  # b"000001002...999"
# word 0: "-d.ddddd", from the mantissa's leading and middle three digits
_LEADING = np.frombuffer(b"-%c.%c%c\0\0\0" * 1000 % tuple(_DIGITS), "<i8")
_MIDDLE = np.frombuffer(b"\0\0\0\0\0%c%c%c" * 1000 % tuple(_DIGITS), "<i8")
# word 1: "ddde+dd,", from its trailing three digits and the exponent -36...52
_TRAILING = np.frombuffer(b"%c%c%ce\0\0\0\0" * 1000 % tuple(_DIGITS), "<i8")
_EXPONENT = np.frombuffer(b"\0\0\0\0%+03d\0" * 89 % tuple(range(-36, 53)), "<i8")
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


def _project(t: np.ndarray, e: np.ndarray) -> np.ndarray:
    """``t @ e`` for a stack ``t`` of 2x2 Jones matrices and a Jones vector ``e``, bit for bit.

    The stacked matrix product is a complex BLAS call, whose first use makes
    OpenBLAS touch its buffers; two products and a sum are not.  The sum
    starts from +0, as the matrix product's does, so a zero entry keeps the
    sign it gets there.
    """
    return 0.0 + t[..., 0] * e[0] + t[..., 1] * e[1]


def _label(value: float) -> str:
    """``value`` in a column name: as ``:g`` prints it if that reads back as it, else its repr.

    So distinct values always name distinct columns, and a short one keeps its ``:g`` name.
    """
    text = f"{value:g}"
    return text if float(text) == value else repr(float(value))


def _steps(start: float, stop: float, step: float) -> np.ndarray:
    """``np.arange`` from ``start`` in ``step``s to ``stop``, included on a step, never passed."""
    return np.minimum(np.arange(start, stop + 1e-9 * step, step), stop)


def _require_transmission(values, where: str) -> None:
    """ValueError if ``values``, a coincidence form or a map's peak intensity, are all zero.

    A film table can be zero where it is read; any film gives a zero
    transform through an aperture so small that its grid step squared
    underflows; and the power of the fields of a film that transmits
    almost nothing underflows to 0.
    """
    if not np.any(values):
        raise ValueError(f"film transmits nothing {where}")


def run_spectrum(cfg: ScenarioConfig) -> dict:
    """Transmittance vs wavelength for each tilt, both diagonal polarizations.

    The tilt rotates the incidence around one lattice diagonal; to first
    order it contributes a transverse wavevector k sin(tilt) along that
    diagonal.  Polarization is parallel (+45 deg) or perpendicular (-45 deg)
    to the diagonal.
    """
    film = cfg.film()
    lams = _steps(cfg.lambda_min_nm, cfg.lambda_max_nm, cfg.lambda_step_nm)
    diag = np.array([1.0, 1.0]) / np.sqrt(2.0)
    pol_par = linear_pol(np.deg2rad(45.0))
    pol_perp = linear_pol(np.deg2rad(-45.0))

    header = ["lambda_nm"]
    columns = [lams]
    k = 2.0 * np.pi / lams
    for tilt in cfg.tilts_deg:
        header.append(f"T_perp_tilt{_label(tilt)}")
        header.append(f"T_par_tilt{_label(tilt)}")
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
    zero, the film transmitting nothing into it, is a ValueError.
    """
    apertures = _steps(cfg.semiaperture_min_deg, cfg.semiaperture_max_deg,
                       cfg.semiaperture_step_deg)

    header = ["semiaperture_deg"]
    for lam in cfg.lambdas_nm:
        for b2 in cfg.beta2_deg:
            header.append(f"V_lam{_label(lam)}_beta{_label(b2)}")

    film = cfg.film()
    rows = []
    for ap in apertures:
        row = [ap]
        for lam in cfg.lambdas_nm:
            setup = cfg.setup(film, lam, semiaperture_deg=ap)
            if setup.q2_max == 0.0:
                t = np.reshape(film_matrix_grid(film, 0.0, 0.0, lam), (2, 2))
                where = f"at normal incidence at {lam:g} nm"
            else:
                t = transfer(setup, q3_axis(setup, cfg.map_points, setup.theta3_max),
                             cfg.quad_points)
                where = f"through a {ap:g} deg semiaperture at {lam:g} nm"
            for b2_deg in cfg.beta2_deg:
                b2 = np.deg2rad(b2_deg)
                form = power_form(_project(t, linear_pol(b2 + np.pi / 2.0)))
                _require_transmission(form, where)
                row.append(visibility(form))
        rows.append(row)
    table = np.array(rows)
    return {"files": {"visibility.csv": (header, table)}, "semiaperture_deg": apertures,
            "header": header, "table": table}


def run_polmap(cfg: ScenarioConfig) -> dict:
    """Intensity and polarization maps of the output modes for one input.

    The output fields T(q3) e at the first wavelength of ``lambdas_nm`` over
    a ``polmap_points``^2 grid over the mapped aperture
    (``SetupParams.theta3_max``), and their ellipses (``ellipse_arrays``);
    the result holds ``fields``, ``intensity``, ``psi`` and ``axis_ratio``
    indexed [q3x, q3y].
    ``polmap.csv`` has one row per (q3x, q3y) grid point, q3y varying
    fastest.  The intensity image scales [0, max] to the full grey range
    0...65535; the axis-ratio image maps [-1, 1] to 0...65534, so linear
    polarization is the grey level 32767.  A map into which the film
    transmits nothing is a ValueError.
    """
    lam = cfg.lambdas_nm[0]
    setup = cfg.setup(cfg.film(), lam)
    axis = q3_axis(setup, cfg.polmap_points, setup.theta3_max)
    fields = _project(transfer(setup, axis, cfg.quad_points),
                      linear_pol(np.deg2rad(cfg.input_pol_deg)))
    intensity, psi, axis_ratio = ellipse_arrays(fields[..., 0], fields[..., 1])
    q3 = np.meshgrid(axis, axis, indexing="ij")
    theta3_deg = np.rad2deg(np.arcsin(np.stack(q3) / setup.k))
    table = np.column_stack([c.ravel() for c in (*q3, *theta3_deg, intensity, psi, axis_ratio)])
    top = intensity.max()
    theta3_max_deg = np.rad2deg(setup.theta3_max)
    _require_transmission(
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
KINDS = tuple(_RUNNERS)


def run_scenario(cfg: ScenarioConfig, out_dir) -> dict:
    """Run a config's scenario, then write its files, in order, under ``out_dir``.

    A runner returns each file by name, a CSV as (header, table) or bytes.
    A run ends in one of two errors, both before the directory is made:
    NonFiniteOutputError for a floating-point overflow, invalid value or
    division by zero in the runner, or a non-finite table; ConfigError for
    grids too large for memory, or for the runner's OSError or ValueError,
    its ``__cause__``: a film that cannot be loaded or evaluated where the
    run needs it, or that transmits nothing there.  Only here is a run's
    refusal worded, a film table named once (``film table X: ``).  A failed
    mkdir or write is a ConfigError naming ``--out``, and a failed write
    first removes every file the run opened.  Adds ``paths``.
    """
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            result = _RUNNERS[cfg.kind](cfg)
    except FloatingPointError as exc:
        raise NonFiniteOutputError(f"{cfg.kind} run: {exc}; nothing written") from exc
    except (OSError, ValueError) as exc:
        raise ConfigError(f"film table {cfg.film_table}: {exc}" if cfg.film_table
                          else str(exc)) from exc
    except MemoryError as exc:
        raise ConfigError(f"out of memory ({str(exc) or 'allocation failed'}); "
                          "lower quad_points or the grid sizes") from exc
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
