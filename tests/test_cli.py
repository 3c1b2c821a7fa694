import numpy as np
import pytest

from plasmon_biphoton.cli import main
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
                                  "semiaperture_deg = 20.0"],
                         ids=["quad_points", "polmap_points", "semiaperture_deg"])
def test_out_of_range_grid_or_aperture_is_config_error(tmp_path, capsys, line):
    path = tmp_path / "cfg.txt"
    path.write_text(f"kind = polmap\n{line}\n")
    code = main(["polmap", "--config", str(path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("config error") and err.count("\n") == 1
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
