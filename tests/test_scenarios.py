import contextlib
import dataclasses
import io
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from oracles import (
    config_refusal,
    default_film,
    default_film_table,
    is_run_refusal,
    paper_setup,
    save_tabulated,
    transmittance,
    window_form_exact,
)
from plasmon_biphoton import cli, optics, quantum, scenarios
from plasmon_biphoton.quantum import (
    linear_pol,
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


# a kind and up to four number fields, from field strategies built once, not per draw
_FIELD_VALUES = {name: _field_value(name) for name in _NUMBER_FIELDS}
_CONFIG_VALUES = st.tuples(
    st.sampled_from(scenarios.KINDS),
    st.lists(st.sampled_from(sorted(_NUMBER_FIELDS)), max_size=4, unique=True).flatmap(
        lambda names: st.fixed_dictionaries({n: _FIELD_VALUES[n] for n in names})))


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


# small defaults under the drawn values, and the caps a drawn value is cut to,
# so that a run takes a few ms
_SMALL_RUN = dict(quad_points=21, map_points=5, polmap_points=5, lambda_step_nm=10.0,
                  semiaperture_step_deg=5.0)
_GRID_CAPS = {"quad_points": 41, "map_points": 9, "polmap_points": 9}
_RANGE_CAPS = [("lambda_min_nm", "lambda_max_nm", "lambda_step_nm", 50),
               ("semiaperture_min_deg", "semiaperture_max_deg", "semiaperture_step_deg", 20)]


def _config_text(kind, values) -> str:
    """A ``kind`` config of ``values`` over ``_SMALL_RUN``, grids and range step counts capped."""
    values = {name: f.default for name, f in _NUMBER_FIELDS.items()} | _SMALL_RUN | values
    for name, cap in _GRID_CAPS.items():
        values[name] = min(values[name], cap)
    for low, high, step, cap in _RANGE_CAPS:
        if values[step] > 0 and (values[high] - values[low]) / values[step] > cap:
            values[high] = values[low] + cap * values[step]
    return f"kind = {kind}\n" + "".join(
        f"{name} = {', '.join(map(repr, value)) if isinstance(value, tuple) else repr(value)}\n"
        for name, value in values.items())


@settings(max_examples=200, deadline=None)
@given(_CONFIG_VALUES)
@example(("polmap", {"lambdas_nm": (5e-324,)}))
@example(("polmap", {"lambdas_nm": (1e-154,)}))
@example(("visibility_sweep", {"gamma_diagonal_nm": 1e-300}))
@example(("visibility_sweep", {"f_mm": 5e-324}))
@example(("polmap", {"period_nm": 6013.015404752151, "lambda_axis_nm": 9000.0,
                     "lambda_diagonal_nm": 9000.0}))
@example(("visibility_sweep", {"semiaperture_min_deg": 1.0,
                               "semiaperture_max_deg": 17.188733853924695,
                               "semiaperture_step_deg": 0.8520386238907734}))
def test_every_accepted_config_ends_in_one_line(kind_values):
    # each of the first four examples wrote 5 to 19 lines of NumPy warnings
    # before its one numerical error line (all but the width's are now
    # config errors); the last two ended in a ValueError traceback, the
    # polmap's from a quadrature node singular for a lattice order, the
    # sweep's from a last row past the paraxial limit
    kind, values = kind_values
    command = next(name for name, (runs, _) in cli._COMMANDS.items() if runs == kind)
    text = _config_text(kind, values)
    try:
        parse_config(text)
        accepted = True
    except ConfigError:
        accepted = False
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "cfg.txt", Path(tmp) / "out"
        path.write_text(text)
        _assert_ends_in_one_line([command, "--config", str(path), "--out", str(out)], out,
                                 accepted)


def _assert_ends_in_one_line(argv, out: Path, accepted: bool) -> tuple[int, str]:
    """Run ``cli.main(argv)``: it exits 0 with finite tables, or writes nothing and one line.

    A config that ``parse_config`` accepted can only be refused by its run,
    so its exit 1 must be one of the run-time refusals; any other text is a
    defect worded as a config error.  Returns the exit code and stderr.
    """
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    assert code in (0, 1, 2)
    if code:
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")
        assert not out.exists()
        assert code != 1 or not accepted or is_run_refusal(err.getvalue()), err.getvalue()
    else:
        assert err.getvalue() == ""
        for table in out.glob("*.csv"):
            assert np.isfinite(np.loadtxt(table, delimiter=",", skiprows=1, ndmin=2)).all()
    return code, err.getvalue()


def _corrupt(table: bytes, mutation: str, at: int, token: bytes) -> bytes:
    """A film table's bytes with one corruption, placed by ``at`` and, where it writes one, ``token``."""
    lines = table.splitlines(keepends=True)
    row = 1 + at % (len(lines) - 1)
    if mutation == "truncate_row":
        lines[row] = lines[row][:at % len(lines[row])] + b"\n"
    elif mutation == "duplicate_row":
        lines.insert(row, lines[row])
    elif mutation == "drop_row":
        del lines[row]
    elif mutation == "swap_rows":
        other = 1 + row % (len(lines) - 1)
        lines[row], lines[other] = lines[other], lines[row]
    elif mutation in ("bad_number", "header_change"):
        line = 0 if mutation == "header_change" else row
        entries = lines[line].rstrip(b"\n").split(b",")
        entries[at % len(entries)] = token
        lines[line] = b",".join(entries) + b"\n"
    text = b"".join(lines)
    if mutation == "stray_byte":
        text = text[:at % len(text)] + token[:1] + text[at % len(text):]
    return text


@settings(max_examples=40, deadline=None)
@given(q_scale=st.floats(0.5, 1.5), n_q=st.integers(2, 6),
       lam_offsets=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=3, unique=True),
       mutation=st.sampled_from(["none", "truncate_row", "duplicate_row", "drop_row",
                                 "swap_rows", "stray_byte", "bad_number", "header_change"]),
       at=st.integers(0, 2 ** 16),
       token=st.sampled_from([b"abc", b"nan", b"inf", b"", b"1e999", b"1.5", b"#", b"\xff",
                              b"\n", b"qx"]))
def test_every_drawn_film_table_ends_in_one_line(q_scale, n_q, lam_offsets, mutation, at,
                                                 token):
    # the default film tabulated over 0.5-1.5 times the aperture, around the
    # run's wavelength, then corrupted as a table can be; a second run reads
    # the sidecar the first one left, and must end the same way
    lam = 797.0
    grid = default_film_table(q_scale * paper_setup(lam).q2_max,
                              sorted({lam + d for d in lam_offsets}), n_q)
    with tempfile.TemporaryDirectory() as tmp:
        table, path = Path(tmp) / "film.csv", Path(tmp) / "cfg.txt"
        save_tabulated(grid, table)
        table.write_bytes(_corrupt(table.read_bytes(), mutation, at, token))
        path.write_text(f"film_table = {table}\nquad_points = 21\npolmap_points = 5\n"
                        f"lambdas_nm = {lam!r}\n")
        ends = [_assert_ends_in_one_line(["polmap", "--config", str(path), "--out", str(out)],
                                         out, True)
                for out in (Path(tmp) / "cold", Path(tmp) / "warm")]
        assert ends[0] == ends[1]


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


# 849 to 850 nm in 0.1 nm steps: np.arange's rows, but for its last,
# 850.0000000000002, which was past the maximum and so past a table ending there
ROWS_849_TO_850 = [*np.arange(849.0, 850.05, 0.1)[:-1], 850.0]


# a range that is not a whole number of steps ends at its last step below the
# maximum; the grid used to round to the nearest step and could pass it by
# half a step, into an aperture past the paraxial range.  A range that is a
# whole number of steps ends on its maximum, not a rounding past it: the
# sweep's last row was 0.3 rad plus one ulp, past the paraxial limit
@pytest.mark.parametrize("overrides,rows", [
    (dict(kind="spectrum", lambda_min_nm=797.0, lambda_max_nm=798.0, lambda_step_nm=0.25),
     [797.0, 797.25, 797.5, 797.75, 798.0]),
    (dict(kind="spectrum", lambda_min_nm=790.0, lambda_max_nm=791.9, lambda_step_nm=1.0),
     [790.0, 791.0]),
    (dict(kind="visibility_sweep", semiaperture_max_deg=1.9, semiaperture_step_deg=1.0),
     [0.0, 1.0]),
    (dict(kind="visibility_sweep", semiaperture_min_deg=17.0, semiaperture_max_deg=17.15,
          semiaperture_step_deg=0.2), [17.0]),
    (dict(kind="visibility_sweep", semiaperture_min_deg=1.0,
          semiaperture_max_deg=17.188733853924695, semiaperture_step_deg=0.8520386238907734),
     [*np.arange(1.0, 17.5, 0.8520386238907734)[:-1], 17.188733853924695]),
    (dict(kind="spectrum", lambda_min_nm=849.0, lambda_max_nm=850.0, lambda_step_nm=0.1),
     ROWS_849_TO_850),
])
def test_range_rows_stop_at_the_maximum(tmp_path, overrides, rows):
    result = run_scenario(small_cfg(**overrides), tmp_path)
    assert result["table"][:, 0].tolist() == rows


def test_film_table_spectrum_asks_for_no_wavelength_past_its_maximum(tmp_path):
    # the second table ends at 850 nm, and its 849 to 850 nm spectrum was
    # refused with "lambda = 850 outside tabulated range [849, 850]"
    for name, lams, (low, high, step), rows in (
            ("a.csv", (789.0, 790.0, 791.0), (790.0, 791.9, 1.0), [790.0, 791.0]),
            ("b.csv", (849.0, 850.0), (849.0, 850.0, 0.1), ROWS_849_TO_850)):
        table = write_film_table(tmp_path / name, 8e-4, lams)
        cfg = small_cfg(kind="spectrum", film_table=table, lambda_min_nm=low,
                        lambda_max_nm=high, lambda_step_nm=step)
        assert run_spectrum(cfg)["lambda_nm"].tolist() == rows


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


@pytest.mark.parametrize("overrides,columns", [
    (dict(kind="visibility_sweep", lambdas_nm=(797.0001, 797.0002), beta2_deg=(0.0,),
          semiaperture_step_deg=8.0),
     ["V_lam797.0001_beta0", "V_lam797.0002_beta0"]),
    (dict(kind="spectrum", tilts_deg=(0.5000001, 0.5000002), lambda_min_nm=796.0,
          lambda_max_nm=798.0),
     ["T_perp_tilt0.5000001", "T_par_tilt0.5000001", "T_perp_tilt0.5000002",
      "T_par_tilt0.5000002"]),
], ids=["visibility", "spectrum"])
def test_distinct_values_name_distinct_columns(overrides, columns):
    # ":g" keeps 6 digits, so each pair wrote two columns of one name
    cfg = small_cfg(**overrides)
    header = scenarios._RUNNERS[cfg.kind](cfg)["header"]
    assert header[1:] == columns


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


@pytest.mark.parametrize("lam, ap, exact", [(797.0, 4.0, 0.782737), (797.0, 8.0, 0.725529),
                                            (728.0, 8.0, 0.957819)])
def test_visibility_sweep_tends_to_the_exact_window(lam, ap, exact):
    # the exact integral over the detector window, on the sweep's 201-point
    # q2 grid at beta2 = 0, is the limit of the sweep's sum over q3; today's
    # sum converges at first order (errors 5.7e-3, 1.5e-3 and 1.0e-3 at the
    # default 41 points, and about 1.7-2 times that at 21)
    v_exact = visibility(window_form_exact(paper_setup(lam, ap), linear_pol(np.pi / 2.0), 201))
    assert abs(v_exact - exact) <= 5e-6
    error = {}
    for points in (21, 41):
        cfg = ScenarioConfig(kind="visibility_sweep", lambdas_nm=(lam,), beta2_deg=(0.0,),
                             semiaperture_min_deg=ap, semiaperture_max_deg=ap,
                             map_points=points)
        (v_sweep,) = run_visibility_sweep(cfg)["table"][:, 1]
        error[points] = abs(v_sweep - v_exact)
    assert error[41] <= 6e-3
    assert error[21] >= 1.5 * error[41]


class EllipseExtracted(Exception):
    pass


def test_visibility_sweep_extracts_no_ellipse(monkeypatch):
    def refuse(*args, **kwargs):
        raise EllipseExtracted

    monkeypatch.setattr(scenarios, "ellipse_arrays", refuse)
    monkeypatch.setattr(quantum, "ellipse_arrays", refuse)
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
        intensity, psi, _ = quantum.ellipse_arrays(ex, ey)
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


@pytest.mark.parametrize("seed", range(8))
def test_polarizer_projection_is_the_stacked_matrix_product_bit_for_bit(seed):
    # random stacks of T, some with zero entries of either sign, and
    # polarizers at a random angle and on the axes, where e has a zero
    rng = np.random.default_rng(seed)
    shape = (2, 2) if seed % 4 == 0 else (int(rng.integers(1, 82)),) * 2 + (2, 2)
    t = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    if seed % 2:
        t[rng.random(shape) < 0.3] = 0.0
        t[rng.random(shape) < 0.3] *= -1.0
    for angle in (rng.uniform(-np.pi, np.pi), 0.0, np.pi / 2, np.pi, -np.pi / 2):
        e = linear_pol(angle)
        assert scenarios._project(t, e).tobytes() == (t @ e).tobytes()


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
