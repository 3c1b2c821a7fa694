import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from plasmon_biphoton import cli, film, optics, scenarios
from plasmon_biphoton.cli import main
from plasmon_biphoton.film import TABULATED_HEADER, TabulatedGrid
from plasmon_biphoton.scenarios import ScenarioConfig, serialize_config

from oracles import default_film_table, save_tabulated


def write_cfg(tmp_path, **overrides):
    base = dict(quad_points=51, map_points=3, polmap_points=5,
                lambda_min_nm=790.0, lambda_max_nm=800.0, lambda_step_nm=1.0,
                tilts_deg=(0.0,), lambdas_nm=(797.0,), beta2_deg=(45.0,),
                semiaperture_min_deg=4.0, semiaperture_max_deg=4.0,
                semiaperture_step_deg=1.0)
    base.update(overrides)
    cfg = ScenarioConfig(**base)
    path = tmp_path / "cfg.txt"
    path.write_text(serialize_config(cfg))
    return path


def write_table(tmp_path, matrix, lams=(790.0, 800.0)):
    """Film table of one constant 2x2 matrix on a 5 x 5 q grid over |q| <= 1e-3 nm^-1."""
    qs = np.linspace(-1e-3, 1e-3, 5)
    grid = TabulatedGrid(qx=qs, qy=qs, lam=np.array(lams),
                         matrices=np.broadcast_to(matrix, (len(lams), 5, 5, 2, 2)))
    path = tmp_path / "film.csv"
    save_tabulated(grid, path)
    return path


def test_channel_subcommand_defaults(tmp_path, capsys):
    code = main(["channel", "--out", str(tmp_path / "out"), "--verbose"])
    assert code == 0
    assert (tmp_path / "out" / "channel.txt").exists()
    assert "wrote" in capsys.readouterr().out


def test_spectrum_subcommand_with_config(tmp_path):
    cfg = write_cfg(tmp_path, kind="spectrum")
    code = main(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 0
    assert (tmp_path / "out" / "spectrum.csv").exists()


def test_visibility_subcommand(tmp_path):
    cfg = write_cfg(tmp_path, kind="visibility_sweep")
    code = main(["visibility", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 0
    lines = (tmp_path / "out" / "visibility.csv").read_text().splitlines()
    assert lines[0] == "semiaperture_deg,V_lam797_beta45"
    assert len(lines) == 2


def test_polmap_subcommand_emits_four_files(tmp_path):
    cfg = write_cfg(tmp_path, kind="polmap")
    code = main(["polmap", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 0
    names = sorted(p.name for p in (tmp_path / "out").iterdir())
    assert names == ["polmap.csv", "polmap_axis_ratio.pgm",
                     "polmap_intensity.pgm", "polmap_meta.txt"]


def test_kind_mismatch_is_config_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, kind="spectrum")
    code = main(["polmap", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 1
    assert "config error" in capsys.readouterr().err


def test_missing_config_file_is_error(tmp_path, capsys):
    code = main(["spectrum", "--config", str(tmp_path / "nope.txt"),
                 "--out", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err == (f"config error: --config {tmp_path / 'nope.txt'}: "
                                       "cannot read (No such file or directory)\n")


@pytest.mark.parametrize("command", ["spectrum", "channel"])
def test_config_that_is_a_directory_is_config_error(tmp_path, capsys, command):
    # was reported as an --out fault: "--out out: cannot write ... (Is a directory)"
    code = main([command, "--config", str(tmp_path), "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == f"config error: --config {tmp_path}: cannot read (Is a directory)\n"
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


def test_repeated_config_key_is_config_error(tmp_path, capsys):
    # the second value silently won: a 31-row spectrum at 5 nm steps, exit 0
    path = tmp_path / "cfg.txt"
    path.write_text("kind = spectrum\nlambda_step_nm = 1.0\nlambda_step_nm = 5.0\n")
    code = main(["spectrum", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err == ("config error: line 3: duplicate config key "
                                       "'lambda_step_nm' (first set on line 2)\n")
    assert not (tmp_path / "out").exists()


def test_bad_config_value_is_error(tmp_path, capsys):
    path = tmp_path / "cfg.txt"
    path.write_text("kind = spectrum\nquad_points = fast\n")
    code = main(["spectrum", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 1


@pytest.mark.parametrize("line", ["quad_points = 0", "polmap_points = 0",
                                  "semiaperture_deg = 20.0", "semiaperture_deg = 0",
                                  "semiaperture_deg = 5e-324",
                                  "theta3_max_deg = -1", "theta3_max_deg = 400"],
                         ids=["quad_points", "polmap_points", "semiaperture_deg",
                              "zero_semiaperture", "subnormal_semiaperture",
                              "negative_theta3_max", "non_paraxial_theta3_max"])
def test_out_of_range_grid_or_aperture_is_config_error(tmp_path, capsys, line):
    # a subnormal semiaperture rounds to 0 in radians; it passed the 0 deg
    # check and ended in a "positive semiaperture" ValueError traceback
    path = tmp_path / "cfg.txt"
    path.write_text(f"kind = polmap\n{line}\n")
    code = main(["polmap", "--config", str(path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("config error") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_grid_too_large_for_memory_is_config_error(tmp_path, capsys):
    # the quadrant alone is a 5e6 x 5e6 complex array, 364 TiB: more than
    # any 47-bit address space, so it is refused at once on any host
    path = tmp_path / "cfg.txt"
    path.write_text("kind = polmap\nquad_points = 10000000\npolmap_points = 1\n")
    code = main(["polmap", "--config", str(path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("config error: out of memory") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["polmap", "visibility"])
def test_transform_larger_than_memory_is_config_error(tmp_path, capsys, monkeypatch, command):
    # a 51-point transform on a machine of 64 KiB: refused before it is built
    monkeypatch.setattr(optics, "_physical_memory", lambda: 65536)
    kind = "visibility_sweep" if command == "visibility" else command
    cfg = write_cfg(tmp_path, kind=kind)
    code = main([command, "--config", str(cfg), "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("config error: out of memory (the aperture transform needs "
                                   "about ") and captured.err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command,line", [
    ("polmap", "quad_points = 9223372036854775808"),
    ("spectrum", "lambda_step_nm = 1e-300"), ("visibility", "semiaperture_step_deg = 1e-300"),
], ids=["quad_points_2**63", "lambda_step_1e-300", "semiaperture_step_1e-300"])
def test_grid_too_large_to_index_is_config_error(tmp_path, capsys, command, line):
    # both 1e-300 steps ended in "ValueError: Maximum allowed size exceeded"
    kind = {"visibility": "visibility_sweep"}.get(command, command)
    key = line.split(" = ")[0]
    path = tmp_path / "cfg.txt"
    path.write_text(f"kind = {kind}\n{line}\n")
    code = main([command, "--config", str(path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert "2**31" in err and key in err
    assert not (tmp_path / "out").exists()


@pytest.mark.filterwarnings("error")
def test_spectrum_at_a_wavelength_whose_wavevector_squared_overflows(tmp_path, capsys):
    # k sin(2 deg) is about 2e159 nm^-1 here, and its square overflows
    cfg = write_cfg(tmp_path, kind="spectrum", lambda_min_nm=1e-160, lambda_max_nm=1e-159,
                    lambda_step_nm=1e-160, tilts_deg=(0.0, 2.0))
    code = main(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 0
    assert capsys.readouterr().err == ""
    table = np.loadtxt(tmp_path / "out" / "spectrum.csv", delimiter=",", skiprows=1)
    assert table.shape == (10, 5)
    assert np.all(np.isfinite(table)) and np.all(table[:, 1:] > 0)


@pytest.mark.parametrize("line", ["lambda_min_nm = -5", "lambda_min_nm = nan",
                                  "tilts_deg = 0, nan", "lambdas_nm = 797, -728",
                                  "direct_amplitude = nan"],
                         ids=["negative_lambda_min", "nan_lambda_min", "nan_tilt",
                              "negative_lambdas", "nan_direct_amplitude"])
def test_non_positive_or_non_finite_value_is_config_error(tmp_path, capsys, line):
    path = tmp_path / "cfg.txt"
    path.write_text(f"kind = spectrum\n{line}\n")
    code = main(["spectrum", "--config", str(path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("config error") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command,line", [
    ("polmap", "f_mm = -1"), ("visibility", "n_substrate = 1.0"),
    ("spectrum", "period_nm = 0"), ("spectrum", "gamma_axis_nm = 0"),
    ("spectrum", "peak_transmittance = 0.0001"), ("spectrum", "peak_transmittance = -1"),
    ("channel", "t_xx = 0\nt_yy = 0"), ("channel", "t_yy = 0"), ("channel", "t_xy = 1\nt_yy = 0"),
    ("spectrum", "direct_amplitude = 1e200"), ("channel", "t_xy = 1e160j"),
    ("visibility", "f_mm = 1e305"), ("visibility", "delta_mm = 1e305"),
    ("visibility", "delta_mm = 1e-310"), ("polmap", "delta_mm = 1e-310"),
], ids=["negative_f", "unit_substrate_index", "zero_period", "zero_axis_width",
        "peak_below_direct", "negative_peak", "zero_channel", "undefined_v0", "undefined_v45",
        "overflowing_direct_amplitude", "overflowing_channel", "overflowing_focal_length",
        "overflowing_thickness", "infinite_magnification_visibility",
        "infinite_magnification_polmap"])
def test_value_a_constructor_refuses_is_config_error(tmp_path, capsys, command, line):
    # each ended in a ValueError traceback from SetupParams, ResonanceFamily,
    # FilmModel, default_film, postselect_channel or (a channel whose V_0 or
    # V_45 is undefined) visibility, or (negative peak) in NaN output; a
    # finite value whose square overflows, in an OverflowError traceback or
    # an overflow warning; a focal length or thickness that overflows to inf
    # in nm, and a thickness so thin that the magnification overflows to
    # inf, in a warning and a numerical error
    kind = "visibility_sweep" if command == "visibility" else command
    path = tmp_path / "cfg.txt"
    # two valid keys off their defaults, which the message must not blame
    path.write_text(f"kind = {kind}\nquad_points = 51\nsemiaperture_deg = 4\n{line}\n")
    code = main([command, "--config", str(path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("config error") and err.count("\n") == 1
    # the message names every key of the bad value, not the constructor's parameter
    keys = [entry.split("=")[0].strip() for entry in line.splitlines()]
    assert err.startswith(f"config error: {keys[0]} = ")
    assert all(f"{key} = " in err for key in keys)
    assert "quad_points" not in err and "semiaperture_deg" not in err
    assert not (tmp_path / "out").exists()


def test_zero_semiaperture_row_of_a_sweep_still_runs(tmp_path):
    cfg = write_cfg(tmp_path, kind="visibility_sweep", semiaperture_deg=0.0,
                    semiaperture_min_deg=0.0, semiaperture_max_deg=2.0,
                    semiaperture_step_deg=2.0)
    code = main(["visibility", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 0
    table = np.loadtxt(tmp_path / "out" / "visibility.csv", delimiter=",", skiprows=1)
    assert table[:, 0].tolist() == [0.0, 2.0]
    assert table[0, 1] == pytest.approx(1.0, abs=1e-9)


def test_subnormal_semiaperture_sweep_row_is_the_monomode_limit(tmp_path, capsys):
    # rounds to 0 in radians; ended in a "positive semiaperture" traceback
    path = tmp_path / "cfg.txt"
    path.write_text("kind = visibility_sweep\nsemiaperture_min_deg = 5e-324\n"
                    "semiaperture_max_deg = 5e-324\n")
    code = main(["visibility", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 0 and capsys.readouterr().err == ""
    table = np.loadtxt(tmp_path / "out" / "visibility.csv", delimiter=",", skiprows=1, ndmin=2)
    assert table[:, 0].tolist() == [5e-324]
    assert table[0, 1:] == pytest.approx(1.0, abs=1e-9)


def test_film_table_narrower_than_aperture_is_config_error(tmp_path, capsys):
    # the table covers |q| <= 1e-4 nm^-1; the 4 deg aperture reaches about 5e-4
    qs = np.array([-1e-4, 1e-4])
    grid = TabulatedGrid(qx=qs, qy=qs, lam=np.array([790.0, 800.0]),
                         matrices=np.broadcast_to(0.1 * np.eye(2), (2, 2, 2, 2, 2)))
    table = tmp_path / "film.csv"
    save_tabulated(grid, table)
    cfg = write_cfg(tmp_path, kind="polmap", film_table=str(table), semiaperture_deg=4.0)
    code = main(["polmap", "--config", str(cfg), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("config error: qx = ") and err.count("\n") == 1
    assert "outside tabulated range" in err
    assert not (tmp_path / "out" / "polmap.csv").exists()


@pytest.mark.parametrize("command", ["polmap", "spectrum"])
def test_asymmetric_film_table_is_config_error(tmp_path, capsys, command):
    # one off-diagonal entry of an otherwise symmetric table, as in a table
    # that does not come from a square hole array
    table = write_table(tmp_path, 0.1 * np.eye(2))
    lines = table.read_text().splitlines()
    row = lines[3].split(",")
    row[5] = "1.00000000e-02"  # re_xy at (qx, qy) = (-1e-3, 0)
    lines[3] = ",".join(row)
    table.write_text("\n".join(lines) + "\n")
    cfg = write_cfg(tmp_path, kind=command, film_table=str(table), semiaperture_deg=4.0)
    code = main([command, "--config", str(cfg), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"config error: film table {table}: film table is not "
                          "point-group symmetric: matrices asymmetry 0.1 exceeds")
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text", [
    "qx,qy,lambda_nm,re_xx\n0,0,797,1\n",
    f"{TABULATED_HEADER}\n0,0,797,1,0,0,0,0,0,1,0\n0,0,798,1,0,0,0,0,0\n",
    f"{TABULATED_HEADER}\n0,0,797,1,0,abc,0,0,0,1,0\n",
    f"{TABULATED_HEADER}\n",
], ids=["short_header", "ragged_row", "non_numeric_entry", "header_only"])
@pytest.mark.filterwarnings("error")  # a warning would add stderr lines to the CLI's one
def test_malformed_film_table_is_config_error(tmp_path, capsys, text):
    table = tmp_path / "film.csv"
    table.write_text(text)
    cfg = write_cfg(tmp_path, kind="spectrum", film_table=str(table))
    code = main(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("config error: film table ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_verbose_prints_the_quadrature_grid(tmp_path, capsys):
    cfg = write_cfg(tmp_path, kind="channel", quad_points=204)
    code = main(["channel", "--config", str(cfg), "--out", str(tmp_path / "out"), "--verbose"])
    assert code == 0
    assert "204x204" in capsys.readouterr().out


def test_gram_selector_is_an_unknown_config_key(tmp_path, capsys):
    # gram = identity ran the identity Gram matrix and reported the
    # gram_coherence it overrode
    path = tmp_path / "cfg.txt"
    path.write_text("kind = channel\ngram = identity\ngram_coherence = 0.5\n")
    code = main(["channel", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err == "config error: line 2: unknown config key 'gram'\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command,overrides", [
    ("visibility", dict(semiaperture_min_deg=0.0)),
    ("visibility", dict()),
    ("polmap", dict()),
    ("polmap", dict(film_table="", semiaperture_deg=1e-300)),
    ("visibility", dict(film_table="", peak_transmittance=1e-310, direct_amplitude=0j,
                        quad_points=201, map_points=5, semiaperture_min_deg=0.0,
                        semiaperture_max_deg=10.0, semiaperture_step_deg=5.0)),
], ids=["visibility_monomode_row", "visibility_aperture", "polmap", "polmap_analytic_underflow",
        "visibility_power_underflow"])
def test_film_that_transmits_nothing_is_config_error(tmp_path, capsys, command, overrides):
    # visibility ended in a "ValueError: all channel amplitudes vanish"
    # traceback and polmap wrote an all-zero map and exited 0; at 1e-300 deg
    # h**2 underflows, so the analytic film's T is all zero, and the message
    # named an empty film_table; a film of peak transmittance 1e-310 has a
    # nonzero T whose power underflows to 0 through a 5 deg semiaperture,
    # and ended in a "ValueError: coincidence rate vanishes identically"
    # traceback
    table = write_table(tmp_path, np.zeros((2, 2)))
    kind = {"visibility": "visibility_sweep"}.get(command, command)
    settings = {"film_table": str(table), "semiaperture_deg": 4.0, **overrides}
    cfg = write_cfg(tmp_path, kind=kind, **settings)
    code = main([command, "--config", str(cfg), "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    named = f"film_table = {table}: " if settings["film_table"] else ""
    assert code == 1
    assert captured.err.startswith(f"config error: {named}film transmits nothing")
    assert captured.err.count("\n") == 1 and captured.out == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command,overrides", [
    ("polmap", dict()),
    ("spectrum", dict()),
    ("visibility", dict()),
    # every wavelength a near-tie of %.8e, so every row is formatted by Python
    ("spectrum", dict(lambda_min_nm=790.0000005, lambda_max_nm=792.0)),
], ids=["polmap", "spectrum", "visibility", "spectrum_printf_rows"])
def test_run_imports_neither_numpy_ma_nor_gzip(tmp_path, command, overrides):
    # every pbsim call is a fresh process, so a first-call import is paid by
    # every run: np.unique imports numpy.ma, np.savetxt on a path gzip, and an
    # argparse parser argparse, gettext and locale
    table = write_table(tmp_path, 0.1 * np.eye(2)) if command == "polmap" else ""
    kind = "visibility_sweep" if command == "visibility" else command
    cfg = write_cfg(tmp_path, kind=kind, film_table=str(table), semiaperture_deg=4.0,
                    **overrides)
    code = ("import sys\n"
            "from plasmon_biphoton.cli import main\n"
            f"assert main([{command!r}, '--config', {str(cfg)!r}, '--out', {str(tmp_path / 'out')!r}]) == 0\n"
            "print(sorted({'numpy.ma', 'gzip', 'argparse', 'gettext', 'locale'}"
            " & set(sys.modules)))\n")
    assert run_python(code) == "[]\n"


def run_python(code):
    """Standard output of ``code`` run by a fresh Python on the package sources."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_tabulated_polmap_imports_no_heavy_module_cold_or_warm(tmp_path):
    # hashlib loads OpenSSL (about 3.6 MB of peak memory), and logging costs
    # 8 ms of import: a table's sidecar is keyed with zlib, which NumPy loads
    table = write_table(tmp_path, 0.1 * np.eye(2))
    cfg = write_cfg(tmp_path, kind="polmap", film_table=str(table), semiaperture_deg=4.0)
    code = ("import sys\n"
            "heavy = {'hashlib', '_hashlib', 'argparse', 'logging', 'gzip', 'numpy.ma'}\n"
            "from plasmon_biphoton.cli import main\n"
            "print(sorted(heavy & set(sys.modules)))\n"
            f"assert main(['polmap', '--config', {str(cfg)!r}, '--out', {str(tmp_path / 'out')!r}]) == 0\n"
            "print(sorted(heavy & set(sys.modules)))\n")
    sidecar = tmp_path / ".film.csv.pbsim.npy"
    assert run_python(code) == "[]\n[]\n"  # cold: parses the CSV, writes the sidecar
    assert sidecar.is_file()
    written = sidecar.stat().st_mtime_ns
    assert run_python(code) == "[]\n[]\n"  # warm: reads the sidecar
    assert sidecar.stat().st_mtime_ns == written


def test_tabulated_polmap_writes_the_same_bytes_cold_and_warm(tmp_path, monkeypatch):
    table = tmp_path / "film.csv"
    save_tabulated(default_film_table(1e-3, (790.0, 800.0)), table)
    cfg = write_cfg(tmp_path, kind="polmap", film_table=str(table), semiaperture_deg=4.0)
    outputs = []
    for run in ("cold", "warm"):
        if run == "warm":
            monkeypatch.setattr(film, "_parse_tabulated", None)  # a parse would fail
        assert main(["polmap", "--config", str(cfg), "--out", str(tmp_path / run)]) == 0
        outputs.append({p.name: p.read_bytes() for p in (tmp_path / run).iterdir()})
    assert len(outputs[0]) == 4 and outputs[0] == outputs[1]


def test_sidecar_path_taken_by_a_directory_is_ignored(tmp_path, capsys):
    table = write_table(tmp_path, 0.1 * np.eye(2))
    (tmp_path / ".film.csv.pbsim.npy").mkdir()
    cfg = write_cfg(tmp_path, kind="polmap", film_table=str(table), semiaperture_deg=4.0)
    for _ in range(2):
        assert main(["polmap", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        ".film.csv.pbsim.npy", "cfg.txt", "film.csv", "out"]


@pytest.mark.parametrize("case", ["existing_file", "under_a_file", "output_is_a_directory"])
def test_out_that_cannot_be_a_directory_is_config_error(tmp_path, capsys, case):
    # making the directory fails for an existing file or a path under one;
    # opening an output file fails when a directory takes its name, for a
    # CSV, a text report, a PGM image and the polmap metadata, and leaves no
    # file of the run behind
    blocker = tmp_path / "taken"
    blocker.write_text("keep\n")
    spectrum = write_cfg(tmp_path, kind="spectrum")
    (tmp_path / "polmap").mkdir()
    polmap = write_cfg(tmp_path / "polmap", kind="polmap")
    runs = [(["spectrum", "--config", str(spectrum)], "spectrum.csv"),
            (["channel"], "channel.txt"),
            (["polmap", "--config", str(polmap)], "polmap_intensity.pgm"),
            (["polmap", "--config", str(polmap)], "polmap_meta.txt")]
    for i, (argv, name) in enumerate(runs):
        out = {"existing_file": blocker, "under_a_file": blocker / "sub",
               "output_is_a_directory": tmp_path / f"d{i}"}[case]
        if case == "output_is_a_directory":
            (out / name).mkdir(parents=True)
        code = main(argv + ["--out", str(out)])
        captured = capsys.readouterr()
        assert code == 1
        fault = {"existing_file": "cannot create output directory (File exists)",
                 "under_a_file": "cannot create output directory (Not a directory)",
                 "output_is_a_directory": f"cannot write {out / name} (Is a directory)"}[case]
        assert captured.err == f"config error: --out {out}: {fault}\n"
        assert captured.out == ""
        if case == "output_is_a_directory":
            # the files written before the blocked one are removed again
            assert list(out.iterdir()) == [out / name] and (out / name).is_dir()
    assert blocker.read_text() == "keep\n"


def test_options_may_precede_the_command(tmp_path):
    code = main(["--out", str(tmp_path / "out"), "--verbose", "channel"])
    assert code == 0
    assert (tmp_path / "out" / "channel.txt").exists()


def test_unknown_subcommand_exits(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["transmogrify"])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: pbsim") and "pbsim: error: argument command" in err


@pytest.mark.parametrize("argv", [[], ["spectrum", "--refine", "x"]],
                         ids=["no_command", "non_integer_refine"])
def test_usage_error_exits_1(capsys, argv):
    # argparse exits 2, which is the code of a numerical failure
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: pbsim") and "pbsim: error: " in err


def listed_commands(help_text: str) -> list[str]:
    """The command names of the help's ``commands:`` section, in order."""
    return [line.split()[0] for line in help_text.split("\ncommands:\n")[1].splitlines()]


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert listed_commands(capsys.readouterr().out) == [
        "spectrum", "visibility", "polmap", "channel"]


@pytest.mark.parametrize("argv", [["-h"], ["spectrum", "-h"]], ids=["alone", "after_command"])
def test_short_help_lists_usage_and_commands(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: pbsim") and captured.err == ""
    assert listed_commands(captured.out) == ["spectrum", "visibility", "polmap", "channel"]


def test_validate_film_is_an_invalid_choice(capsys):
    # film symmetry is checked where the film is built, not by a command
    with pytest.raises(SystemExit) as exc:
        main(["validate-film"])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: pbsim")
    assert "pbsim: error: argument command: invalid choice: 'validate-film'" in err


def test_readme_cli_block_names_every_command():
    # nothing else ties the commands README documents to the ones pbsim runs
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI\n\n```sh\n", 1)[1].split("```", 1)[0]
    named = [line.split()[1] for line in block.splitlines() if line.startswith("pbsim ")]
    assert named == list(cli._COMMANDS)


@pytest.mark.parametrize("before", [True, False], ids=["before_command", "after_command"])
def test_options_take_their_value_after_equals(tmp_path, before):
    cfg = write_cfg(tmp_path, kind="spectrum")
    options = [f"--config={cfg}", f"--out={tmp_path / 'out'}"]
    code = main(options + ["spectrum"] if before else ["spectrum"] + options)
    assert code == 0
    assert (tmp_path / "out" / "spectrum.csv").exists()


@pytest.mark.parametrize("argv,message", [
    (["spectrum", "--bogus"], "unrecognized arguments: --bogus"),
    # names are matched in full: a prefix of --config is not it
    (["spectrum", "--conf", "cfg.txt"], "unrecognized arguments: --conf cfg.txt"),
    (["spectrum", "--out"], "argument --out: expected one argument"),
    (["spectrum", "--out", "--verbose"], "argument --out: expected one argument"),
    (["spectrum", "polmap"], "unrecognized arguments: polmap"),
    (["spectrum", "--verbose=yes"], "argument --verbose: ignored explicit argument 'yes'"),
    (["spectrum", "--refine=1.5"], "unrecognized arguments: --refine=1.5"),
    # quad_points is set in the config only
    (["channel", "--refine", "2"], "unrecognized arguments: --refine 2"),
], ids=["unknown_option", "abbreviated_option", "trailing_out", "out_without_value",
        "two_commands", "verbose_with_value", "non_integer_refine_after_equals",
        "refine_is_not_an_option"])
def test_usage_error_names_the_argument(tmp_path, capsys, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: pbsim")
    assert captured.err.endswith(f"\npbsim: error: {message}\n")
    assert list(tmp_path.iterdir()) == []


def test_non_finite_output_is_numerical_error(tmp_path, capsys, monkeypatch):
    def nan_film(*args):
        return tuple(np.full(np.shape(args[-1]), np.nan + 0j) for _ in range(4))

    monkeypatch.setattr(scenarios, "film_matrix_grid", nan_film)
    cfg = write_cfg(tmp_path, kind="spectrum")
    out = tmp_path / "out"
    code = main(["spectrum", "--config", str(cfg), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"numerical error: {out / 'spectrum.csv'}: ")
    assert captured.err.count("\n") == 1 and captured.out == ""
    assert not out.exists()


@pytest.mark.filterwarnings("error")  # a warning would add stderr lines to the CLI's one
def test_non_finite_polmap_writes_no_file(tmp_path, capsys, monkeypatch):
    # the images are encoded before the table is checked; a NaN map must
    # neither warn as it is cast to grey levels nor leave any of four files
    def nan_film(*args):
        return tuple(np.full(np.shape(args[1]), np.nan + 0j) for _ in range(4))

    monkeypatch.setattr(optics, "film_matrix_grid", nan_film)
    cfg = write_cfg(tmp_path, kind="polmap")
    out = tmp_path / "out"
    code = main(["polmap", "--config", str(cfg), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"numerical error: {out / 'polmap.csv'}: intensity = nan ")
    assert captured.err.count("\n") == 1 and captured.out == ""
    assert not out.exists()
