"""Reproducible experiment pipelines driven by flat key=value config files.

Four scenario kinds bind the film, optics and quantum layers together:

* ``spectrum`` - normal/tilted-incidence transmittance vs wavelength
* ``visibility_sweep`` - fringe visibility vs telescope semiaperture
* ``polmap`` - output intensity/polarization maps over q3
* ``channel`` - monomode post-selection channel report

Config files are plain ``key = value`` lines (``#`` comments); angles are
degrees in the file and converted to radians at the scenario boundary.  This
module writes every output file, and only after the run has computed it.
Every CSV is one ``np.savetxt`` call: comma-separated, one header line, fixed
scientific notation with 9 significant digits, from a fixed evaluation order,
so identical configs produce byte-identical files.
"""

from __future__ import annotations

import copy
import dataclasses
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .film import FilmModel, default_film, film_matrix, film_matrix_grid, load_tabulated
from .jones import linear_pol
from .optics import PARAXIAL_LIMIT_RAD, GridSpec, SetupParams, field_map, transfer_map
from .quantum import (
    concurrence,
    gram_allones,
    gram_identity,
    postselect_channel,
    visibility,
)

__all__ = [
    "ScenarioConfig",
    "ConfigError",
    "parse_config",
    "parse_config_file",
    "serialize_config",
    "paper_default_config",
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


class ConfigError(ValueError):
    """Invalid or inconsistent scenario configuration."""


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
    gram: str = "allones"  # allones | identity | coherence
    gram_coherence: float = 1.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown scenario kind {self.kind!r}; expected one of {KINDS}")
        for f in dataclasses.fields(self):
            if f.type in ("float", "complex", "tuple") and \
                    not np.all(np.isfinite(getattr(self, f.name))):
                raise ConfigError(f"{f.name} must be finite")
        for name in ("lambda_min_nm", "lambdas_nm", "lambda_diagonal_nm", "lambda_axis_nm"):
            if not np.all(np.asarray(getattr(self, name)) > 0):
                raise ConfigError(f"{name} must be positive")
        if self.lambda_min_nm >= self.lambda_max_nm or self.lambda_step_nm <= 0:
            raise ConfigError("spectrum wavelength range must be nonempty and increasing")
        if self.semiaperture_step_deg <= 0 or self.semiaperture_min_deg > self.semiaperture_max_deg:
            raise ConfigError("semiaperture range must be nonempty and increasing")
        if not self.lambdas_nm or not self.beta2_deg or not self.tilts_deg:
            raise ConfigError("list-valued config fields must be nonempty")
        if self.gram not in ("allones", "identity", "coherence"):
            raise ConfigError(f"unknown gram spec {self.gram!r}")
        if not 0.0 <= self.gram_coherence <= 1.0:
            raise ConfigError("gram_coherence must lie in [0, 1]")
        for name in ("quad_points", "map_points", "polmap_points"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1")
        for name in ("semiaperture_deg", "semiaperture_min_deg", "semiaperture_max_deg"):
            if not 0.0 <= np.deg2rad(getattr(self, name)) <= PARAXIAL_LIMIT_RAD:
                raise ConfigError(
                    f"{name} must lie in the paraxial range "
                    f"[0, {np.rad2deg(PARAXIAL_LIMIT_RAD):.4g}] deg")
        if self.kind == "polmap" and self.semiaperture_deg == 0.0:
            raise ConfigError("semiaperture_deg must be positive for a polarization map")
        # the film, telescope and channel constructors state the remaining rules
        try:
            self._build()
        except ValueError as exc:
            keys = ", ".join(f"{name} = {_format_value(getattr(self, name))}"
                             for name in self._keys_behind(exc))
            raise ConfigError(f"{keys}: {exc}" if keys else str(exc)) from exc

    def _build(self) -> None:
        """Build what the constructors check; raises the first ValueError.

        Only the channel report reads t; its check calls LAPACK, which would
        add about 1 MB to the peak memory of every other kind.
        """
        self.setup(None if self.film_table else self.film(), self.lambdas_nm[0])
        if self.kind == "channel":
            postselect_channel(self.channel_matrix(), self.gram_matrix())

    def _keys_behind(self, exc: ValueError) -> list[str]:
        """Numeric keys each of which, set back alone to its default, lifts or changes ``exc``.

        String keys select what is built (kind, film table, Gram form) and are
        not blamed.
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

    # -- derived builders ---------------------------------------------------

    def film(self) -> FilmModel:
        if self.film_table:
            try:
                return load_tabulated(self.film_table, period=self.period_nm,
                                      direct_amplitude=self.direct_amplitude)
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

    def setup(self, film: FilmModel, lam_nm: float,
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

    def gram_matrix(self) -> np.ndarray:
        if self.gram == "allones":
            return gram_allones()
        if self.gram == "identity":
            return gram_identity()
        g = self.gram_coherence
        return (1.0 - g) * gram_identity() + g * gram_allones()


def paper_default_config(kind: str) -> ScenarioConfig:
    """Built-in config with every field at the experiment's default."""
    return ScenarioConfig(kind=kind)


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
    values = {}
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
        values[name] = _parse_value(name, value.strip(), fields[name])
    try:
        return ScenarioConfig(**values)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def parse_config_file(path) -> ScenarioConfig:
    return parse_config(Path(path).read_text())


# ---------------------------------------------------------------------------
# scenario runners
# ---------------------------------------------------------------------------

def _write_csv(path: Path, header: list[str], rows) -> None:
    np.savetxt(path, rows, fmt=FMT, delimiter=",", header=",".join(header), comments="")


def _write_pgm(path: Path, scaled: np.ndarray) -> None:
    """Write a map scaled to [0, 1] as a 16-bit binary PGM image.

    Image rows run along +y (axis index j, first row at the largest y),
    columns along +x.
    """
    pixels = np.round(np.clip(scaled, 0.0, 1.0) * 65535).astype(">u2").T[::-1]
    path.write_bytes(f"P5\n{pixels.shape[1]} {pixels.shape[0]}\n65535\n".encode()
                     + pixels.tobytes())


def run_spectrum(cfg: ScenarioConfig, out_dir) -> dict:
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

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "spectrum.csv"
    _write_csv(path, header, table)
    return {"paths": [path], "lambda_nm": lams, "header": header, "table": table}


def run_visibility_sweep(cfg: ScenarioConfig, out_dir) -> dict:
    """Fringe visibility vs semiaperture for each (wavelength, beta2).

    Zero semiaperture is the monomode limit: the channel reduces to the
    normal-incidence film matrix with coherence-preserving solid states.
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
            if ap == 0.0:
                state = postselect_channel(film_matrix(film, (0.0, 0.0), lam),
                                           gram_allones())
            else:
                tmap = transfer_map(GridSpec(n=cfg.map_points),
                                    cfg.setup(film, lam, semiaperture_deg=ap),
                                    n_grid=cfg.quad_points)
            for b2_deg in cfg.beta2_deg:
                b2 = np.deg2rad(b2_deg)
                source = state if ap == 0.0 else tmap.apply(linear_pol(b2 + np.pi / 2.0))
                row.append(visibility(b2, source).visibility)
        rows.append(row)

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "visibility.csv"
    _write_csv(path, header, rows)
    return {"paths": [path], "semiaperture_deg": apertures, "header": header,
            "table": np.array(rows)}


def run_polmap(cfg: ScenarioConfig, out_dir) -> dict:
    """Intensity and polarization maps of the output modes for one input.

    ``polmap.csv`` has one row per (q3x, q3y) grid point, q3y varying
    fastest.  The intensity image scales [0, max] to the full grey range;
    the axis-ratio image maps [-1, 1] to it, so mid-grey is linear
    polarization.
    """
    lam = cfg.lambdas_nm[0]
    setup = cfg.setup(cfg.film(), lam)
    theta3 = cfg.theta3_max_deg if cfg.theta3_max_deg > 0 else None
    fmap = field_map(linear_pol(np.deg2rad(cfg.input_pol_deg)),
                     GridSpec(n=cfg.polmap_points, theta3_max_deg=theta3),
                     setup, n_grid=cfg.quad_points)
    q3 = np.meshgrid(fmap.q3x_axis, fmap.q3y_axis, indexing="ij")
    theta3_deg = np.rad2deg(np.arcsin(np.stack(q3) / setup.k))
    table = np.column_stack([c.ravel() for c in (
        *q3, *theta3_deg, fmap.intensity, fmap.psi, fmap.axis_ratio)])
    top = fmap.intensity.max()

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "polmap.csv"
    int_path = out_dir / "polmap_intensity.pgm"
    ratio_path = out_dir / "polmap_axis_ratio.pgm"
    meta_path = out_dir / "polmap_meta.txt"
    _write_csv(csv_path, POLMAP_HEADER, table)
    _write_pgm(int_path, fmap.intensity / top if top > 0 else np.zeros_like(fmap.intensity))
    _write_pgm(ratio_path, (fmap.axis_ratio + 1.0) / 2.0)
    meta_path.write_text(
        "\n".join([
            f"lambda_nm = {FMT % lam}",
            f"input_pol_deg = {FMT % cfg.input_pol_deg}",
            f"semiaperture_deg = {FMT % cfg.semiaperture_deg}",
            f"theta3_max_deg = {FMT % fmap.theta3_max_deg}",
            f"mapped_theta2_max_deg = {FMT % (fmap.theta3_max_deg * setup.magnification)}",
            f"grid_points = {cfg.polmap_points}",
        ]) + "\n")
    return {"paths": [csv_path, int_path, ratio_path, meta_path], "field_map": fmap}


def run_channel(cfg: ScenarioConfig, out_dir) -> dict:
    """Monomode post-selection channel report for explicit t and Gram matrix."""
    state = postselect_channel(cfg.channel_matrix(), cfg.gram_matrix())
    conc = concurrence(state)
    v0 = visibility(0.0, state).visibility
    v45 = visibility(np.deg2rad(45.0), state).visibility

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "channel.txt"
    lines = [f"gram = {cfg.gram}", f"gram_coherence = {FMT % cfg.gram_coherence}"]
    for name, val in (("t_xx", cfg.t_xx), ("t_xy", cfg.t_xy),
                      ("t_yx", cfg.t_yx), ("t_yy", cfg.t_yy)):
        lines.append(f"{name} = {FMT % val.real} {FMT % val.imag}")
    for i in range(4):
        lines.append("rho_row%d = " % i + " ".join(
            f"{FMT % state.rho[i, j].real}{'+' if state.rho[i, j].imag >= 0 else '-'}"
            f"{FMT % abs(state.rho[i, j].imag)}j" for j in range(4)))
    lines.append(f"success_weight = {FMT % state.success_weight}")
    lines.append(f"concurrence = {FMT % conc}")
    lines.append(f"V_0 = {FMT % v0}")
    lines.append(f"V_45 = {FMT % v45}")
    path.write_text("\n".join(lines) + "\n")
    return {"paths": [path], "state": state, "concurrence": conc,
            "v0": v0, "v45": v45}


_RUNNERS = {
    "spectrum": run_spectrum,
    "visibility_sweep": run_visibility_sweep,
    "polmap": run_polmap,
    "channel": run_channel,
}


def run_scenario(cfg: ScenarioConfig, out_dir) -> dict:
    """Dispatch a config to its scenario runner."""
    return _RUNNERS[cfg.kind](cfg, out_dir)
