import numpy as np
import pytest

from plasmon_biphoton.cli import main
from plasmon_biphoton.film import TABULATED_HEADER, FilmModel, TabulatedGrid, save_tabulated
from plasmon_biphoton.scenarios import ScenarioConfig, serialize_config


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
    assert "config error" in capsys.readouterr().err


def test_bad_config_value_is_error(tmp_path, capsys):
    path = tmp_path / "cfg.txt"
    path.write_text("kind = spectrum\nquad_points = fast\n")
    code = main(["spectrum", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 1


@pytest.mark.parametrize("line", ["quad_points = 0", "polmap_points = 0",
                                  "semiaperture_deg = 20.0", "semiaperture_deg = 0"],
                         ids=["quad_points", "polmap_points", "semiaperture_deg",
                              "zero_semiaperture"])
def test_out_of_range_grid_or_aperture_is_config_error(tmp_path, capsys, line):
    path = tmp_path / "cfg.txt"
    path.write_text(f"kind = polmap\n{line}\n")
    code = main(["polmap", "--config", str(path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("config error") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


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
    ("channel", "t_xx = 0\nt_yy = 0"),
], ids=["negative_f", "unit_substrate_index", "zero_period", "zero_axis_width",
        "peak_below_direct", "negative_peak", "zero_channel"])
def test_value_a_constructor_refuses_is_config_error(tmp_path, capsys, command, line):
    # each ended in a ValueError traceback from SetupParams, ResonanceFamily,
    # FilmModel, default_film or postselect_channel, or (negative peak) in NaN output
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


def test_validate_film_zero_semiaperture_is_config_error(tmp_path, capsys):
    # ended in a "telescope quadrature needs a positive semiaperture" traceback
    # after three PASS lines, as did polmap
    path = tmp_path / "cfg.txt"
    path.write_text("kind = spectrum\nsemiaperture_deg = 0\n")
    code = main(["validate-film", "--config", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("config error: semiaperture_deg must be positive")
    assert captured.err.count("\n") == 1 and captured.out == ""


def test_zero_semiaperture_row_of_a_sweep_still_runs(tmp_path):
    cfg = write_cfg(tmp_path, kind="visibility_sweep", semiaperture_deg=0.0,
                    semiaperture_min_deg=0.0, semiaperture_max_deg=2.0,
                    semiaperture_step_deg=2.0)
    code = main(["visibility", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 0
    table = np.loadtxt(tmp_path / "out" / "visibility.csv", delimiter=",", skiprows=1)
    assert table[:, 0].tolist() == [0.0, 2.0]
    assert table[0, 1] == pytest.approx(1.0, abs=1e-9)


def test_negative_refine_is_config_error(tmp_path, capsys):
    # ended in "TypeError: 'float' object cannot be interpreted as an integer"
    code = main(["polmap", "--refine", "-1", "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("config error: --refine") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_film_table_narrower_than_aperture_is_config_error(tmp_path, capsys):
    # the table covers |q| <= 1e-4 nm^-1; the 4 deg aperture reaches about 5e-4
    qs = np.array([-1e-4, 1e-4])
    grid = TabulatedGrid(qx=qs, qy=qs, lam=np.array([790.0, 800.0]),
                         matrices=np.broadcast_to(0.1 * np.eye(2), (2, 2, 2, 2, 2)))
    table = tmp_path / "film.csv"
    save_tabulated(FilmModel(period=700.0, direct_amplitude=0.0, families=(),
                             tabulated=grid), table)
    cfg = write_cfg(tmp_path, kind="polmap", film_table=str(table), semiaperture_deg=4.0)
    code = main(["polmap", "--config", str(cfg), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("config error: qx = ") and err.count("\n") == 1
    assert "outside tabulated range" in err
    assert not (tmp_path / "out" / "polmap.csv").exists()


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


def test_validate_film_passes(capsys):
    code = main(["validate-film"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("PASS") == 4
    assert "FAIL" not in out


def test_refine_doubles_quadrature(tmp_path, capsys):
    cfg = write_cfg(tmp_path, kind="channel")
    code = main(["channel", "--config", str(cfg), "--out", str(tmp_path / "out"),
                 "--refine", "2", "--verbose"])
    assert code == 0
    assert "204x204" in capsys.readouterr().out


def test_unknown_subcommand_exits():
    with pytest.raises(SystemExit):
        main(["transmogrify"])
