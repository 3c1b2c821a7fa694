import dataclasses

import numpy as np
import pytest

from plasmon_biphoton import optics
from plasmon_biphoton.scenarios import (
    ConfigError,
    ScenarioConfig,
    paper_default_config,
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


# --- config round trip ------------------------------------------------------

def test_serialize_parse_round_trip():
    cfg = small_cfg(kind="spectrum", direct_amplitude=0.02 + 0.003j,
                    t_xy=-0.5j, gram="coherence", gram_coherence=0.25)
    assert parse_config(serialize_config(cfg)) == cfg


def test_parse_comments_and_blanks():
    cfg = parse_config("# a comment\n\nkind = channel\n  gram = identity # tail\n")
    assert cfg.kind == "channel"
    assert cfg.gram == "identity"


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
        ScenarioConfig(gram="random")
    with pytest.raises(ConfigError):
        ScenarioConfig(gram_coherence=1.5)


def test_paper_default_config_kinds():
    for kind in ("spectrum", "visibility_sweep", "polmap", "channel"):
        assert paper_default_config(kind).kind == kind


# --- spectrum ---------------------------------------------------------------

def test_spectrum_peaks_at_calibrated_wavelengths(tmp_path):
    cfg = small_cfg(kind="spectrum", tilts_deg=(0.0,))
    result = run_spectrum(cfg, tmp_path)
    lams = result["lambda_nm"]
    table = result["table"]
    perp, par = table[:, 1], table[:, 2]
    # normal incidence: both polarizations identical, peaks at 797 and 728
    assert np.allclose(perp, par, rtol=1e-12)
    upper = lams > 770.0
    lower = lams < 750.0
    assert abs(lams[upper][np.argmax(par[upper])] - 797.0) <= 0.5
    assert abs(lams[lower][np.argmax(par[lower])] - 728.0) <= 0.5
    assert (tmp_path / "spectrum.csv").exists()


def test_spectrum_tilt_splits_parallel_peak(tmp_path):
    cfg = small_cfg(kind="spectrum", tilts_deg=(0.0, 6.0),
                    lambda_min_nm=760.0, lambda_max_nm=860.0)
    result = run_spectrum(cfg, tmp_path)
    lams = result["lambda_nm"]
    table = result["table"]
    par0, par6 = table[:, 2], table[:, 4]
    # the diagonal resonance seen in parallel polarization moves away from
    # 797 nm under tilt: transmittance at 797 drops, a red-shifted peak appears
    at797 = np.argmin(np.abs(lams - 797.0))
    assert par6[at797] < 0.5 * par0[at797]
    red = lams > 810.0
    assert par6[red].max() > 2.0 * par0[red].max()


# --- visibility sweep -------------------------------------------------------

def test_visibility_sweep_monomode_row_is_unity(tmp_path):
    cfg = small_cfg(kind="visibility_sweep", semiaperture_min_deg=0.0,
                    semiaperture_max_deg=8.0, semiaperture_step_deg=8.0)
    result = run_visibility_sweep(cfg, tmp_path)
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
    run_visibility_sweep(cfg, tmp_path / "a")
    run_visibility_sweep(cfg, tmp_path / "b")
    assert (tmp_path / "a" / "visibility.csv").read_bytes() == \
        (tmp_path / "b" / "visibility.csv").read_bytes()


def test_visibility_sweep_samples_film_once_per_cell(tmp_path, monkeypatch):
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
    run_visibility_sweep(cfg, tmp_path)
    assert sorted(sampled) == [728.0, 728.0, 797.0, 797.0]


# --- polmap -----------------------------------------------------------------

def test_polmap_outputs(tmp_path):
    cfg = small_cfg(kind="polmap")
    result = run_polmap(cfg, tmp_path)
    names = sorted(p.name for p in result["paths"])
    assert names == ["polmap.csv", "polmap_axis_ratio.pgm",
                     "polmap_intensity.pgm", "polmap_meta.txt"]
    assert all(p.exists() for p in result["paths"])
    fmap = result["field_map"]
    assert fmap.fields.shape == (7, 7, 2)
    meta = (tmp_path / "polmap_meta.txt").read_text()
    assert "mapped_theta2_max_deg" in meta


def test_polmap_center_keeps_input_polarization(tmp_path):
    cfg = small_cfg(kind="polmap", input_pol_deg=-45.0)
    fmap = run_polmap(cfg, tmp_path)["field_map"]
    c = cfg.polmap_points // 2
    assert abs(np.rad2deg(fmap.psi[c, c]) + 45.0) < 1.0
    assert abs(fmap.axis_ratio[c, c]) < 0.05


# --- channel ----------------------------------------------------------------

def test_channel_identity_allones_report(tmp_path):
    cfg = small_cfg(kind="channel")
    result = run_channel(cfg, tmp_path)
    assert result["concurrence"] == pytest.approx(1.0, abs=1e-9)
    assert result["v0"] == pytest.approx(1.0, abs=1e-9)
    assert result["v45"] == pytest.approx(1.0, abs=1e-9)
    text = (tmp_path / "channel.txt").read_text()
    assert "concurrence" in text and "success_weight" in text


def test_channel_identity_gram_report(tmp_path):
    cfg = small_cfg(kind="channel", gram="identity")
    result = run_channel(cfg, tmp_path)
    assert result["concurrence"] == pytest.approx(0.0, abs=1e-9)
    assert result["v0"] == pytest.approx(1.0, abs=1e-9)
    assert result["v45"] == pytest.approx(0.0, abs=1e-9)


def test_channel_partial_coherence_interpolates(tmp_path):
    cfg = small_cfg(kind="channel", gram="coherence", gram_coherence=0.5)
    result = run_channel(cfg, tmp_path)
    assert 0.0 < result["v45"] < 1.0
    assert result["v0"] == pytest.approx(1.0, abs=1e-9)


# --- dispatch ---------------------------------------------------------------

def test_run_scenario_dispatch(tmp_path):
    cfg = small_cfg(kind="channel")
    result = run_scenario(cfg, tmp_path)
    assert (tmp_path / "channel.txt").exists()
    assert "state" in result


def test_quad_refinement_field_replace(tmp_path):
    cfg = small_cfg(kind="channel")
    finer = dataclasses.replace(cfg, quad_points=2 * cfg.quad_points)
    assert finer.quad_points == 102
