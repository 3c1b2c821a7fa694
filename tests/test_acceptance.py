"""Acceptance suite: the ten headline claims, one test (and one
pass/fail line under ``pytest -v``) per criterion, at the stated
tolerances and default grids.  Shared field maps are computed once per
session; details print under ``pytest -s``.
"""

import time

import numpy as np
import pytest

from plasmon_biphoton.optics import SetupParams, q3_axis, transfer
from plasmon_biphoton.quantum import (
    concurrence,
    ellipse_arrays,
    linear_pol,
    postselect_channel,
    power_form,
    reduced_form,
    visibility,
)
from plasmon_biphoton.scenarios import ScenarioConfig, run_scenario, run_spectrum

from oracles import (
    default_film,
    film_matrix,
    paper_setup,
    resonance_wavelength,
    visibility_brute,
)


def _vis(lam, beta2_deg, n=41, n_grid=201, theta_ap_deg=8.0):
    setup = paper_setup(lam=lam, theta_ap_deg=theta_ap_deg)
    beta2 = np.deg2rad(beta2_deg)
    axis = q3_axis(setup, n, setup.theta3_max)
    fields = transfer(setup, axis, n_grid) @ linear_pol(beta2 + np.pi / 2.0)
    return visibility(power_form(fields))


def _ellipses(setup, input_pol, axis, n_grid):
    """(intensity, psi, axis_ratio) of T(q3) input_pol on the grid axis x axis."""
    fields = transfer(setup, axis, n_grid) @ input_pol
    return ellipse_arrays(fields[..., 0], fields[..., 1])


@pytest.fixture(scope="module")
def focused_visibilities():
    """V_45 and V_0 at both resonances, default grids (criteria 3, 4)."""
    t0 = time.perf_counter()
    values = {(lam, b2): _vis(lam, b2)
              for lam in (797.0, 728.0) for b2 in (45.0, 0.0)}
    return values, time.perf_counter() - t0


def test_criterion_01_identity_symmetry():
    film = default_film()
    t0 = time.perf_counter()
    worst_f = 0.0
    for lam in (728.0, 797.0, 813.0):
        m = film_matrix(film, (0.0, 0.0), lam)
        scale = 0.5 * (abs(m[0, 0]) + abs(m[1, 1]))
        worst_f = max(worst_f, max(abs(m[0, 1]), abs(m[1, 0]),
                                   abs(m[0, 0] - m[1, 1])) / scale)
    worst_t = 0.0
    for lam in (728.0, 797.0, 813.0):
        setup = paper_setup(lam=lam)
        t = transfer(setup, [0.0], 201)[0, 0]
        scale = 0.5 * (abs(t[0, 0]) + abs(t[1, 1]))
        worst_t = max(worst_t, max(abs(t[0, 1]), abs(t[1, 0]),
                                   abs(t[0, 0] - t[1, 1])) / scale)
    elapsed = time.perf_counter() - t0
    print(f"\ncriterion 1: F residual {worst_f:.2e} (tol 1e-12), "
          f"T residual {worst_t:.2e} (tol 1e-8), {elapsed:.1f} s")
    assert worst_f <= 1e-12
    assert worst_t <= 1e-8
    assert elapsed < 10.0


def test_criterion_02_monomode_preservation():
    film = default_film()
    rho = postselect_channel(film_matrix(film, (0.0, 0.0), 797.0), 1.0)
    vs = [visibility(reduced_form(rho, np.deg2rad(b2))) for b2 in (0.0, 22.5, 45.0, 67.5)]
    print(f"\ncriterion 2: monomode V = {['%.6f' % v for v in vs]} (tol 1e-3)")
    assert all(abs(v - 1.0) <= 1e-3 for v in vs)


def test_criterion_03_focused_asymmetry_797(focused_visibilities):
    values, elapsed = focused_visibilities
    v45, v0 = values[(797.0, 45.0)], values[(797.0, 0.0)]
    print(f"\ncriterion 3: 797 nm V_45 = {v45:.3f} (>= 0.8), "
          f"V_45 - V_0 = {v45 - v0:.3f} (>= 0.2), {elapsed:.0f} s")
    assert v45 >= 0.8
    assert v45 - v0 >= 0.2
    assert elapsed < 300.0


def test_criterion_04_role_exchange_728(focused_visibilities):
    values, _ = focused_visibilities
    v45, v0 = values[(728.0, 45.0)], values[(728.0, 0.0)]
    print(f"\ncriterion 4: 728 nm V_0 = {v0:.3f} > V_45 = {v45:.3f}")
    assert v0 > v45


def test_criterion_05_stationary_phase_mapping():
    from plasmon_biphoton.film import FilmModel

    setup = paper_setup()
    theta2 = 0.1 * setup.magnification
    # imaged aperture disc: half-energy radius maps back to the aperture
    # radius through the angular magnification (probed at 0.25 rad where
    # several Fresnel zones make the disc image sharp)
    flat = FilmModel(period=700.0, direct_amplitude=0.01 + 0j, families=())
    s = SetupParams(lam=797.0, f=15e6, n=1.52, delta=0.5e6,
                    theta_ap=0.25, film=flat)
    axis = q3_axis(s, 121, 1.4 * s.theta3_max)
    intensity, _, _ = _ellipses(s, linear_pol(0.0), axis, 301)
    qx, qy = np.meshgrid(axis, axis, indexing="ij")
    r = np.hypot(qx, qy).ravel()
    order = np.argsort(r)
    cum = np.cumsum(intensity.ravel()[order])
    r50 = np.interp(0.5 * cum[-1], cum, r[order])
    mag_measured = s.q2_max / (np.sqrt(2.0) * r50)
    print(f"\ncriterion 5: magnification {setup.magnification:.1f} "
          f"(87.7 +- 5%), theta3 = 0.1 deg -> theta2 = {theta2:.2f} deg, "
          f"measured {mag_measured:.1f}")
    assert setup.magnification == pytest.approx(87.7, rel=0.05)
    assert theta2 == pytest.approx(8.8, abs=0.1)
    assert mag_measured == pytest.approx(setup.magnification, rel=0.05)


def test_criterion_06_channel_extremes():
    coherent = postselect_channel(np.eye(2), 1.0)
    mixed = postselect_channel(np.eye(2), 0.0)
    checks = {
        "C(coherent)": (concurrence(coherent), 1.0),
        "V_0(coherent)": (visibility(reduced_form(coherent, 0.0)), 1.0),
        "V_45(coherent)": (visibility(reduced_form(coherent, np.pi / 4)), 1.0),
        "C(mixed)": (concurrence(mixed), 0.0),
        "V_0(mixed)": (visibility(reduced_form(mixed, 0.0)), 1.0),
        "V_45(mixed)": (visibility(reduced_form(mixed, np.pi / 4)), 0.0),
    }
    worst = max(abs(got - want) for got, want in checks.values())
    print(f"\ncriterion 6: channel extremes, worst deviation {worst:.2e} (tol 1e-9)")
    assert worst <= 1e-9


def test_criterion_07_visibility_oracle_equivalence():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        beta2 = rng.uniform(0.0, np.pi)
        n = rng.integers(2, 6)
        fields = (rng.normal(size=(n, n, 2)) + 1j * rng.normal(size=(n, n, 2)))
        fast = visibility(power_form(fields))
        slow = visibility_brute(beta2, fields)
        worst = max(worst, abs(fast - slow))
    print(f"\ncriterion 7: eigen vs brute force on 100 maps, "
          f"worst |dV| = {worst:.2e} (tol 1e-6)")
    assert worst <= 1e-6


def test_criterion_08_spectrum_reproduction():
    cfg = ScenarioConfig(kind="spectrum", lambda_min_nm=700.0,
                         lambda_max_nm=870.0, lambda_step_nm=0.25,
                         tilts_deg=(0.0, 2.0, 4.0, 6.0))
    result = run_spectrum(cfg)
    lams = result["lambda_nm"]
    table = result["table"]
    film = cfg.film()

    # tilt 0: polarizations identical, calibrated peaks
    perp0, par0 = table[:, 1], table[:, 2]
    assert np.allclose(perp0, par0, rtol=1e-12, atol=0.0)
    hi, lo = lams > 770.0, lams < 750.0
    peak_hi = lams[hi][np.argmax(par0[hi])]
    peak_lo = lams[lo][np.argmax(par0[lo])]
    assert abs(peak_hi - 797.0) <= 0.5
    assert abs(peak_lo - 728.0) <= 0.5

    def local_peaks(x, y, floor):
        idx = [i for i in range(1, len(y) - 1)
               if y[i] >= y[i - 1] and y[i] > y[i + 1] and y[i] >= floor]
        # merge plateaus/shoulders closer than 2 nm
        merged = []
        for i in idx:
            if merged and x[i] - x[merged[-1]] < 2.0:
                if y[i] > y[merged[-1]]:
                    merged[-1] = i
            else:
                merged.append(i)
        return [x[i] for i in merged]

    # dyadic-model oracle: resonance positions per tilt from the analytic
    # momentum-matching formula, split by polarization coupling |e_G . pol|^2
    window = (740.0, 865.0)
    diag = np.array([1.0, 1.0]) / np.sqrt(2.0)
    splits_ok = True
    last_split = 0.0
    for col, tilt in enumerate(cfg.tilts_deg[1:], start=1):
        k = 2.0 * np.pi / 797.0
        q = k * np.sin(np.deg2rad(tilt)) * diag
        predicted = {"par": [], "perp": []}
        diag_pair = []
        for fam in film.families:
            for order in fam.orders:
                try:
                    lam_r = resonance_wavelength(fam, order, q, film.period)
                except ValueError:
                    continue
                if not window[0] <= lam_r <= window[1]:
                    continue
                g_vec = 2.0 * np.pi * np.array(order) / film.period
                e_g = (q + g_vec) / np.linalg.norm(q + g_vec)
                for pol, vec in (("par", linear_pol(np.deg2rad(45.0))),
                                 ("perp", linear_pol(np.deg2rad(-45.0)))):
                    if abs(np.dot(e_g, vec.real)) ** 2 > 0.15:
                        predicted[pol].append(lam_r)
                if fam is film.families[0] and order in ((1, 1), (-1, -1)):
                    diag_pair.append(lam_r)
        sel = (lams >= window[0]) & (lams <= window[1])
        lamw = lams[sel]

        # perpendicular case: single dominant peak pinned near 797 nm
        y_perp = table[:, 2 * col + 1][sel]
        perp_peak = lamw[np.argmax(y_perp)]
        if min(abs(perp_peak - p) for p in predicted["perp"]) > 3.0:
            splits_ok = False

        # parallel case: counter-moving pair at the predicted split, growing
        # with tilt, with every visible peak explained by a predicted order
        y_par = table[:, 2 * col + 2][sel]
        found = local_peaks(lamw, y_par, 0.25 * y_par.max())
        if len(found) < 2 or len(diag_pair) != 2:
            splits_ok = False
        else:
            lo_pred, hi_pred = sorted(diag_pair)
            lo_match = min(found, key=lambda f: abs(f - lo_pred))
            hi_match = min(found, key=lambda f: abs(f - hi_pred))
            if abs(lo_match - lo_pred) > 4.0 or abs(hi_match - hi_pred) > 4.0:
                splits_ok = False
            split = hi_match - lo_match
            if split <= last_split:
                splits_ok = False
            last_split = split
            for lam_f in found:
                if min(abs(lam_f - p) for p in predicted["par"]) > 4.0:
                    splits_ok = False

    print(f"\ncriterion 8: tilt-0 peaks {peak_lo:.2f}/{peak_hi:.2f} nm "
          f"(728/797 +- 0.5), tilt splits match dyadic prediction: {splits_ok}")
    assert splits_ok


def test_criterion_09_polarization_maps():
    setup = paper_setup()
    ax = q3_axis(setup, 81, setup.theta3_max)
    w, psi_in, ratio_in = _ellipses(setup, linear_pol(np.deg2rad(-45.0)), ax, 201)
    w2, psi_90, ratio_90 = _ellipses(setup, linear_pol(np.deg2rad(90.0)), ax, 201)

    dpsi = np.abs((np.rad2deg(psi_in) + 45.0 + 90.0) % 180.0 - 90.0)
    clean = (dpsi <= 10.0) & (np.abs(ratio_in) < 0.2)
    lin_frac = float(np.sum(w * clean) / np.sum(w))

    ell_frac = float(np.sum(w2 * (np.abs(ratio_90) > 0.3)) / np.sum(w2))

    r = np.hypot(*np.meshgrid(ax, ax, indexing="ij"))
    center = r <= 0.1 * ax.max()
    dpsi90 = np.abs((np.rad2deg(psi_90) - 90.0 + 90.0) % 180.0 - 90.0)
    center_dev = max(float(np.max(dpsi[center])), float(np.max(dpsi90[center])))
    center_ratio = max(float(np.max(np.abs(ratio_in[center]))),
                       float(np.max(np.abs(ratio_90[center]))))

    print(f"\ncriterion 9: -45 deg map clean fraction {lin_frac:.3f} (>= 0.9), "
          f"90 deg elliptical fraction {ell_frac:.3f} (> 0), central region "
          f"within {center_dev:.1f} deg, |ratio| <= {center_ratio:.2f}")
    assert lin_frac >= 0.9
    assert ell_frac > 0.0
    assert center_dev <= 10.0
    assert center_ratio < 0.2


def test_criterion_10_determinism_and_convergence(tmp_path):
    cfg = ScenarioConfig(kind="visibility_sweep", lambdas_nm=(797.0, 728.0),
                         beta2_deg=(45.0, 0.0), semiaperture_min_deg=8.0,
                         semiaperture_max_deg=8.0, semiaperture_step_deg=1.0,
                         map_points=21)
    run_scenario(cfg, tmp_path / "a")
    run_scenario(cfg, tmp_path / "b")
    identical = (tmp_path / "a" / "visibility.csv").read_bytes() == \
        (tmp_path / "b" / "visibility.csv").read_bytes()

    coarse = [_vis(797.0, 45.0, n=21), _vis(728.0, 0.0, n=21)]
    fine = [_vis(797.0, 45.0, n=21, n_grid=402),
            _vis(728.0, 0.0, n=21, n_grid=402)]
    dv = max(abs(c - f) for c, f in zip(coarse, fine))
    print(f"\ncriterion 10: reruns byte-identical: {identical}, "
          f"max |dV| under refinement {dv:.2e} (tol 1e-3)")
    assert identical
    assert dv <= 1e-3
