import dataclasses
import io
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from oracles import config_refusal, default_film_table, save_tabulated, transmittance
from plasmon_biphoton import jones, optics, scenarios
from plasmon_biphoton.film import default_film
from plasmon_biphoton.jones import linear_pol
from plasmon_biphoton.quantum import (
    power_form,
    visibility,
)
from plasmon_biphoton.scenarios import (
    POLMAP_HEADER,
    ConfigError,
    NonFiniteOutputError,
    ScenarioConfig,
    parse_config,
    run_channel,
    run_polmap,
    run_scenario,
    run_spectrum,
    run_visibility_sweep,
    serialize_config,
)


def small_cfg(**overrides):
    """Scenario config downsized for fast tests."""
    base = dict(quad_points=51, map_points=5, polmap_points=7,
                lambda_min_nm=720.0, lambda_max_nm=805.0, lambda_step_nm=0.5,
                tilts_deg=(0.0, 4.0), semiaperture_max_deg=8.0,
                semiaperture_step_deg=4.0)
    base.update(overrides)
    return ScenarioConfig(**base)


def write_film_table(path, q_max, lams, n_q=9):
    """Save the default film sampled on an n_q x n_q grid over |qx|, |qy| <= q_max."""
    save_tabulated(default_film_table(q_max, lams, n_q), path)
    return str(path)


# --- config round trip ------------------------------------------------------

def test_serialize_parse_round_trip():
    cfg = small_cfg(kind="spectrum", direct_amplitude=0.02 + 0.003j,
                    t_xy=-0.5j, gram_coherence=0.25)
    assert parse_config(serialize_config(cfg)) == cfg


_NUMBER_FIELDS = {f.name: f for f in dataclasses.fields(ScenarioConfig)
                  if f.type in ("int", "float", "complex", "tuple")}


def _real(default: float):
    """A field value: the default, scaled near it, zero, negative, +-inf, NaN or any float."""
    return st.one_of(st.just(default), st.floats(0.5, 2.0).map(lambda s: s * default),
                     st.sampled_from([0.0, -0.0, -1.0, math.inf, -math.inf, math.nan]),
                     st.floats())


def _field_value(name: str):
    f = _NUMBER_FIELDS[name]
    if f.type == "int":
        # a grid size: the default, either side of 1 and of 2**31, or any up to 2**64
        return st.one_of(st.just(f.default), st.integers(-1, 2),
                         st.integers(2 ** 31 - 2, 2 ** 31 + 1), st.integers(0, 2 ** 64))
    if f.type == "tuple":
        return st.integers(0, 3).flatmap(
            lambda n: st.lists(_real(f.default[0]), min_size=n, max_size=n)).map(tuple)
    if f.type == "complex":
        return st.builds(complex, _real(f.default.real), _real(f.default.imag))
    return _real(f.default)


_CONFIG_VALUES = st.tuples(
    st.sampled_from(scenarios.KINDS),
    st.lists(st.sampled_from(sorted(_NUMBER_FIELDS)), max_size=4, unique=True).flatmap(
        lambda names: st.fixed_dictionaries({n: _field_value(n) for n in names})))


@settings(max_examples=300, deadline=None)
@given(_CONFIG_VALUES)
@example(("spectrum", {"tilts_deg": (0.0, 2.0, math.nan)}))
@example(("visibility_sweep", {"lambdas_nm": (797.0, -728.0)}))
@example(("channel", {"t_xy": complex(0.0, math.inf)}))
@example(("polmap", {"semiaperture_deg": math.degrees(optics.PARAXIAL_LIMIT_RAD)}))
@example(("polmap", {"quad_points": 2 ** 31 - 1, "map_points": 2 ** 31}))
@example(("spectrum", {"lambda_step_nm": 1e-300}))
@example(("visibility_sweep", {"semiaperture_step_deg": 10.0 / 2 ** 31}))
def test_number_fields_are_accepted_as_by_the_numpy_checks(kind_values):
    # every draw ends in a config or a ConfigError; the field checks refuse
    # exactly what the NumPy predicate in oracles refuses, with its message
    kind, values = kind_values
    refusal = config_refusal(kind=kind, **values)
    try:
        cfg = ScenarioConfig(kind=kind, **values)
    except ConfigError as exc:
        if refusal is not None:
            assert str(exc) == refusal
        else:
            # passed the field checks; a film, telescope or channel constructor refused
            assert isinstance(exc.__cause__, ValueError)
        return
    assert refusal is None
    assert parse_config(serialize_config(cfg)) == cfg


def test_parse_comments_and_blanks():
    cfg = parse_config("# a comment\n\nkind = channel\n  gram_coherence = 0 # tail\n")
    assert cfg.kind == "channel"
    assert cfg.gram_coherence == 0.0


def test_parse_rejects_unknown_key():
    with pytest.raises(ConfigError):
        parse_config("kind = channel\nwavelength = 797\n")


def test_parse_rejects_bad_value():
    with pytest.raises(ConfigError):
        parse_config("quad_points = many\n")


def test_parse_rejects_missing_equals():
    with pytest.raises(ConfigError):
        parse_config("kind channel\n")


def test_config_validation():
    with pytest.raises(ConfigError):
        ScenarioConfig(kind="fourier")
    with pytest.raises(ConfigError):
        ScenarioConfig(lambda_min_nm=900.0, lambda_max_nm=800.0)
    with pytest.raises(ConfigError):
        ScenarioConfig(gram_coherence=1.5)


def test_paper_default_config_kinds():
    for kind in ("spectrum", "visibility_sweep", "polmap", "channel"):
        assert ScenarioConfig(kind=kind).kind == kind


# --- spectrum ---------------------------------------------------------------

def test_spectrum_peaks_at_calibrated_wavelengths(tmp_path):
    cfg = small_cfg(kind="spectrum", tilts_deg=(0.0,))
    result = run_scenario(cfg, tmp_path)
    lams = result["lambda_nm"]
    table = result["table"]
    perp, par = table[:, 1], table[:, 2]
    # normal incidence: both polarizations identical, peaks at 797 and 728
    assert np.allclose(perp, par, rtol=1e-12, atol=0.0)
    upper = lams > 770.0
    lower = lams < 750.0
    assert abs(lams[upper][np.argmax(par[upper])] - 797.0) <= 0.5
    assert abs(lams[lower][np.argmax(par[lower])] - 728.0) <= 0.5
    assert (tmp_path / "spectrum.csv").exists()


def test_csv_bytes_are_printf_rows_under_one_header_line(tmp_path):
    cfg = small_cfg(kind="spectrum", lambda_min_nm=797.0, lambda_max_nm=798.0,
                    lambda_step_nm=1.0, tilts_deg=(0.0, 4.0))
    result = run_scenario(cfg, tmp_path)
    assert result["table"].shape == (2, 5)
    expected = ",".join(result["header"]) + "\n" + "".join(
        ",".join("%.8e" % v for v in row) + "\n" for row in result["table"])
    assert (tmp_path / "spectrum.csv").read_bytes() == expected.encode()


def printf_rows(table):
    return "".join(",".join("%.8e" % v for v in row) + "\n" for row in table).encode()


@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=12),
                  elements=st.floats(allow_nan=False, allow_infinity=False)))
def test_csv_rows_are_printf_of_any_finite_table(table):
    assert b"".join(scenarios._csv_rows(table)) == printf_rows(table)


# ties and near-ties, powers of ten at and past the two exact scaling steps,
# and values outside them: each must come out as %.8e prints it
EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, np.finfo(float).max, -np.finfo(float).max,
               np.finfo(float).tiny, 1234567895.0, -1234567895.0, 9.9999999995e-5,
               123456789.5, 999999999.5, 0.1, 1.0, 10.0,
               1e22, 1e-22, 1e23, 1e-23, 1e44, 1e-44, -1e44, 1e-36, 1e-37, 1e52, 1e53]


def test_csv_rows_are_printf_of_edge_values():
    for table in (np.reshape(EDGE_VALUES, (-1, 1)), np.reshape(EDGE_VALUES, (1, -1))):
        assert b"".join(scenarios._csv_rows(table)) == printf_rows(table)
    # among ordinary values, in rows scattered over several blocks
    rng = np.random.default_rng(3)
    table = rng.standard_normal((1500, 7)) * 10.0 ** rng.integers(-30, 30, (1500, 7))
    rows = rng.choice(len(table), len(EDGE_VALUES), replace=False)
    table[rows, rng.integers(0, 7, len(rows))] = EDGE_VALUES
    table[[0, 1, -1], 0] = 1234567895.0
    assert b"".join(scenarios._csv_rows(table)) == printf_rows(table)


@pytest.mark.parametrize("kind,header", [
    ("spectrum", None),
    ("visibility_sweep", None),
    ("polmap", POLMAP_HEADER),
], ids=["spectrum", "visibility", "polmap"])
def test_runner_csv_is_savetxt_of_its_table(tmp_path, kind, header):
    result = run_scenario(small_cfg(kind=kind), tmp_path)
    expected = io.StringIO()
    np.savetxt(expected, result["table"], fmt="%.8e", delimiter=",",
               header=",".join(header or result["header"]), comments="")
    assert result["paths"][0].read_text() == expected.getvalue()


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_csv_writer_refuses_non_finite_table(tmp_path, monkeypatch, value):
    # a bad value in any table refuses every file of the run, the ones
    # before it too, and the directory is not made
    out = tmp_path / "out"
    table = np.ones((3, 2))
    table[2, 1] = value
    files = {"first.txt": b"finite\n", "t.csv": (["a", "b"], table)}
    monkeypatch.setitem(scenarios._RUNNERS, "channel", lambda cfg: {"files": files})
    with pytest.raises(NonFiniteOutputError, match=f"{out / 't.csv'}: b = {value} in row 3"):
        run_scenario(small_cfg(kind="channel"), out)
    assert not out.exists()


def test_spectrum_tilt_splits_parallel_peak():
    cfg = small_cfg(kind="spectrum", tilts_deg=(0.0, 6.0),
                    lambda_min_nm=760.0, lambda_max_nm=860.0)
    result = run_spectrum(cfg)
    lams = result["lambda_nm"]
    table = result["table"]
    par0, par6 = table[:, 2], table[:, 4]
    # the diagonal resonance seen in parallel polarization moves away from
    # 797 nm under tilt: transmittance at 797 drops, a red-shifted peak appears
    at797 = np.argmin(np.abs(lams - 797.0))
    assert par6[at797] < 0.5 * par0[at797]
    red = lams > 810.0
    assert par6[red].max() > 2.0 * par0[red].max()


@pytest.mark.parametrize("kind", ["analytic", "tabulated"])
def test_spectrum_matches_per_point_transmittance(tmp_path, kind):
    # one film_matrix_grid call per tilt over the wavelength axis against the
    # per-point transmittance of each (lambda, tilt, polarization)
    lams = (780.0, 790.0, 800.0, 810.0)
    table = write_film_table(tmp_path / "film.csv", 8e-4, lams) if kind == "tabulated" else ""
    cfg = small_cfg(kind="spectrum", film_table=table, tilts_deg=(0.0, 1.5, 4.0),
                    lambda_min_nm=781.0, lambda_max_nm=809.0, lambda_step_nm=0.7)
    result = run_spectrum(cfg)
    film = cfg.film()
    diag = np.array([1.0, 1.0]) / np.sqrt(2.0)
    expected = []
    for lam in result["lambda_nm"]:
        row = [lam]
        for tilt in cfg.tilts_deg:
            q = 2.0 * np.pi / lam * np.sin(np.deg2rad(tilt)) * diag
            row += [transmittance(film, q, lam, linear_pol(np.deg2rad(a))) for a in (-45.0, 45.0)]
        expected.append(row)
    expected = np.array(expected)
    assert result["table"].shape == expected.shape
    assert np.all(np.abs(result["table"] - expected) <= 1e-14 * np.abs(expected))


def test_film_table_spectrum_reads_no_analytic_film_key(tmp_path):
    # a table holds the whole film matrix, direct term included; period_nm = 0
    # ended in "film table ...: lattice period must be positive", while
    # gamma_axis_nm = 0 with the same table was accepted and ignored
    table = write_film_table(tmp_path / "film.csv", 8e-4, (780.0, 790.0, 800.0, 810.0))
    cfg = small_cfg(kind="spectrum", film_table=table, lambda_min_nm=781.0,
                    lambda_max_nm=809.0, lambda_step_nm=0.7)
    analytic = dict(period_nm=0.0, gamma_diagonal_nm=0.0, gamma_axis_nm=0.0,
                    axis_amplitude_scale=-1.0, peak_transmittance=0.0, direct_amplitude=0.5j,
                    lambda_diagonal_nm=500.0, lambda_axis_nm=500.0)
    run_scenario(cfg, tmp_path / "table")
    run_scenario(dataclasses.replace(cfg, **analytic), tmp_path / "keys")
    assert (tmp_path / "keys" / "spectrum.csv").read_bytes() == \
        (tmp_path / "table" / "spectrum.csv").read_bytes()


# --- visibility sweep -------------------------------------------------------

def test_visibility_sweep_monomode_row_is_unity(tmp_path):
    cfg = small_cfg(kind="visibility_sweep", semiaperture_min_deg=0.0,
                    semiaperture_max_deg=8.0, semiaperture_step_deg=8.0)
    result = run_scenario(cfg, tmp_path)
    table = result["table"]
    assert table[0, 0] == 0.0
    # zero aperture: the film matrix at q = 0 is proportional to the identity,
    # so the post-selected state stays maximally entangled
    assert np.allclose(table[0, 1:], 1.0, atol=1e-9)
    # finite aperture: visibilities drop below unity
    assert np.all(table[1, 1:] < 1.0)
    header = result["header"]
    assert header[1] == "V_lam797_beta0"
    assert (tmp_path / "visibility.csv").exists()


def test_visibility_sweep_deterministic(tmp_path):
    cfg = small_cfg(kind="visibility_sweep", semiaperture_min_deg=4.0,
                    semiaperture_max_deg=4.0, lambdas_nm=(797.0,),
                    beta2_deg=(45.0,))
    run_scenario(cfg, tmp_path / "a")
    run_scenario(cfg, tmp_path / "b")
    assert (tmp_path / "a" / "visibility.csv").read_bytes() == \
        (tmp_path / "b" / "visibility.csv").read_bytes()


def test_visibility_sweep_samples_film_once_per_cell(monkeypatch):
    # apertures 0, 4 and 8 deg: T is built for each (lambda, nonzero
    # aperture) and shared by both beta2 values
    sampled = []
    original = optics.film_matrix_grid

    def counting(model, qx, qy, lam):
        sampled.append(lam)
        return original(model, qx, qy, lam)

    monkeypatch.setattr(optics, "film_matrix_grid", counting)
    cfg = small_cfg(kind="visibility_sweep", lambdas_nm=(797.0, 728.0),
                    beta2_deg=(0.0, 45.0))
    run_visibility_sweep(cfg)
    assert sorted(sampled) == [728.0, 728.0, 797.0, 797.0]


def test_tabulated_visibility_sweep_loads_table_once(tmp_path, monkeypatch):
    # apertures 0-8 deg in 2 deg steps: four transforms and the monomode
    # row all share the film built at the start of the run
    loads = []
    original = scenarios.load_tabulated

    def counting(*args, **kwargs):
        loads.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(scenarios, "load_tabulated", counting)
    probe = small_cfg().setup(default_film(), 797.0, semiaperture_deg=8.0)
    table = write_film_table(tmp_path / "film.csv", 1.01 * probe.q2_max, (790.0, 797.0, 804.0))
    cfg = small_cfg(kind="visibility_sweep", film_table=table, quad_points=21,
                    map_points=3, lambdas_nm=(797.0,), beta2_deg=(45.0,),
                    semiaperture_min_deg=0.0, semiaperture_max_deg=8.0,
                    semiaperture_step_deg=2.0)
    result = run_visibility_sweep(cfg)
    assert len(loads) == 1
    assert np.all(np.isfinite(result["table"]))


@pytest.mark.parametrize("kind", ["analytic", "tabulated"])
def test_visibility_sweep_equals_visibility_of_field_map(tmp_path, kind):
    # each nonzero-aperture cell is the visibility of the field map built
    # for its (lambda, aperture, beta2), to the last bit
    lambdas = (797.0, 728.0)
    table = ""
    if kind == "tabulated":
        lambdas = (797.0,)
        probe = small_cfg().setup(default_film(), 797.0, semiaperture_deg=8.0)
        table = write_film_table(tmp_path / "film.csv", 1.01 * probe.q2_max,
                                 (790.0, 797.0, 804.0))
    cfg = small_cfg(kind="visibility_sweep", film_table=table, lambdas_nm=lambdas,
                    beta2_deg=(0.0, 30.0, 45.0))
    result = run_visibility_sweep(cfg)
    film = cfg.film()
    for row, ap in enumerate(result["semiaperture_deg"]):
        if ap == 0.0:
            continue
        cells = iter(result["table"][row, 1:])
        for lam in cfg.lambdas_nm:
            setup = cfg.setup(film, lam, semiaperture_deg=ap)
            axis = optics.q3_axis(setup, cfg.map_points, setup.theta3_max)
            t = optics.transfer(setup, axis, cfg.quad_points)
            for b2 in np.deg2rad(cfg.beta2_deg):
                fields = t @ linear_pol(b2 + np.pi / 2.0)
                assert next(cells) == visibility(power_form(fields))


class EllipseExtracted(Exception):
    pass


def test_visibility_sweep_extracts_no_ellipse(monkeypatch):
    def refuse(*args, **kwargs):
        raise EllipseExtracted

    monkeypatch.setattr(scenarios, "ellipse_arrays", refuse)
    monkeypatch.setattr(jones, "ellipse_arrays", refuse)
    result = run_visibility_sweep(small_cfg(kind="visibility_sweep"))
    assert np.all(np.isfinite(result["table"]))
    with pytest.raises(EllipseExtracted):
        run_polmap(small_cfg(kind="polmap"))


# --- polmap -----------------------------------------------------------------

def test_polmap_outputs(tmp_path):
    cfg = small_cfg(kind="polmap")
    result = run_scenario(cfg, tmp_path)
    names = sorted(p.name for p in result["paths"])
    assert names == ["polmap.csv", "polmap_axis_ratio.pgm",
                     "polmap_intensity.pgm", "polmap_meta.txt"]
    assert all(p.exists() for p in result["paths"])
    assert result["fields"].shape == (7, 7, 2)
    meta = (tmp_path / "polmap_meta.txt").read_text()
    assert "mapped_theta2_max_deg" in meta


def test_polmap_csv_layout(tmp_path):
    cfg = small_cfg(kind="polmap", polmap_points=3)
    result = run_scenario(cfg, tmp_path)
    lines = (tmp_path / "polmap.csv").read_text().splitlines()
    assert lines[0] == "q3x,q3y,theta3x_deg,theta3y_deg,intensity,psi_rad,axis_ratio"
    table = np.loadtxt(lines[1:], delimiter=",")
    assert table.shape == (9, 7)
    # one row per (q3x, q3y), q3y varying fastest
    setup = cfg.setup(cfg.film(), cfg.lambdas_nm[0])
    axis = optics.q3_axis(setup, 3, setup.theta3_max)
    qx, qy = np.repeat(axis, 3), np.tile(axis, 3)
    k = 2.0 * np.pi / cfg.lambdas_nm[0]
    expected = np.column_stack([
        qx, qy, np.rad2deg(np.arcsin(qx / k)), np.rad2deg(np.arcsin(qy / k)),
        result["intensity"].ravel(), result["psi"].ravel(), result["axis_ratio"].ravel()])
    assert np.allclose(table, expected, rtol=1e-8, atol=0.0)


def test_polmap_pgm_format_and_orientation(tmp_path):
    # a 30 deg input breaks the map's y -> -y and x <-> y symmetries, so a
    # flipped or transposed image does not match
    cfg = small_cfg(kind="polmap", polmap_points=4, input_pol_deg=30.0)
    result = run_scenario(cfg, tmp_path)
    intensity = result["intensity"]
    header = b"P5\n4 4\n65535\n"
    for name, grey in (("polmap_intensity.pgm", intensity / intensity.max() * 65535),
                       ("polmap_axis_ratio.pgm", (result["axis_ratio"] + 1.0) / 2.0 * 65534)):
        blob = (tmp_path / name).read_bytes()
        assert blob.startswith(header)
        assert len(blob) == len(header) + 4 * 4 * 2
        pixels = np.frombuffer(blob[len(header):], dtype=">u2").reshape(4, 4)
        # image row r is q3y index 3 - r (first row is +y), column c is q3x index c
        assert np.array_equal(pixels, np.round(grey[:, ::-1].T))


def test_polmap_axis_ratio_image_puts_linear_polarization_on_one_grey_level(
        tmp_path, monkeypatch):
    # with [-1, 1] scaled onto 0...65535, axis ratio 0 was grey 32767.5, so
    # +-1e-15 of rounding noise on a linear output picked 32767 or 32768
    ratios = np.array([[1e-15, -1e-15, 0.0],
                       [-1e-15, 0.0, 1e-15],
                       [1e-15, 1.0, -1.0]])

    def fake_ellipses(ex, ey):
        intensity, psi, _ = jones.ellipse_arrays(ex, ey)
        return intensity, psi, ratios

    monkeypatch.setattr(scenarios, "ellipse_arrays", fake_ellipses)
    run_scenario(small_cfg(kind="polmap", polmap_points=3), tmp_path)
    blob = (tmp_path / "polmap_axis_ratio.pgm").read_bytes()
    header = b"P5\n3 3\n65535\n"
    assert blob.startswith(header)
    image = np.frombuffer(blob[len(header):], dtype=">u2").reshape(3, 3)
    pixels = image[::-1].T  # back to [q3x index, q3y index]
    assert np.array_equal(pixels[np.abs(ratios) < 1.0], np.full(7, 32767))
    assert pixels[2, 1] == 65534 and pixels[2, 2] == 0


def test_polmap_center_keeps_input_polarization():
    cfg = small_cfg(kind="polmap", input_pol_deg=-45.0)
    result = run_polmap(cfg)
    c = cfg.polmap_points // 2
    assert abs(np.rad2deg(result["psi"][c, c]) + 45.0) < 1.0
    assert abs(result["axis_ratio"][c, c]) < 0.05


# --- channel ----------------------------------------------------------------

def test_channel_identity_allones_report(tmp_path):
    cfg = small_cfg(kind="channel")
    result = run_scenario(cfg, tmp_path)
    assert result["concurrence"] == pytest.approx(1.0, abs=1e-9)
    assert result["v0"] == pytest.approx(1.0, abs=1e-9)
    assert result["v45"] == pytest.approx(1.0, abs=1e-9)
    text = (tmp_path / "channel.txt").read_text()
    assert "concurrence" in text and "success_weight" not in text


def test_channel_identity_gram_report():
    cfg = small_cfg(kind="channel", gram_coherence=0.0)
    result = run_channel(cfg)
    assert result["concurrence"] == pytest.approx(0.0, abs=1e-9)
    assert result["v0"] == pytest.approx(1.0, abs=1e-9)
    assert result["v45"] == pytest.approx(0.0, abs=1e-9)


def test_channel_partial_coherence_interpolates():
    cfg = small_cfg(kind="channel", gram_coherence=0.5)
    result = run_channel(cfg)
    assert 0.0 < result["v45"] < 1.0
    assert result["v0"] == pytest.approx(1.0, abs=1e-9)


# --- dispatch ---------------------------------------------------------------

def test_run_scenario_dispatch(tmp_path):
    cfg = small_cfg(kind="channel")
    result = run_scenario(cfg, tmp_path)
    assert (tmp_path / "channel.txt").exists()
    assert "rho" in result


def test_quad_refinement_field_replace(tmp_path):
    cfg = small_cfg(kind="channel")
    finer = dataclasses.replace(cfg, quad_points=2 * cfg.quad_points)
    assert finer.quad_points == 102
