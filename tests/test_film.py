import re

import numpy as np
import pytest

from oracles import (
    film_matrix_direct,
    interpolate_tabulated_point,
    resonance_wavelength,
    rotation,
    save_tabulated,
    symmetric_random_grid,
    transmittance,
)
from plasmon_biphoton.film import (
    TABULATED_HEADER,
    FilmModel,
    ResonanceFamily,
    TableRangeError,
    TabulatedGrid,
    default_film,
    film_matrix,
    film_matrix_grid,
    load_tabulated,
)
from plasmon_biphoton.jones import linear_pol


@pytest.fixture(scope="module")
def film():
    return default_film()


def diagonal_family(film):
    return film.families[0]


def axis_family(film):
    return film.families[1]


# --- resonance wavelengths -------------------------------------------------

def test_diagonal_resonance_calibrated_to_797(film):
    lam = resonance_wavelength(diagonal_family(film), (1, 1), (0.0, 0.0), film.period)
    assert lam == pytest.approx(797.0, abs=1e-9)


def test_axis_resonance_calibrated_to_728(film):
    lam = resonance_wavelength(axis_family(film), (1, 0), (0.0, 0.0), film.period)
    assert lam == pytest.approx(728.0, abs=1e-9)


def test_resonance_formula_at_normal_incidence(film):
    for fam, order in [(diagonal_family(film), (1, -1)), (axis_family(film), (0, 1))]:
        m1, m2 = order
        expected = fam.n_eff * film.period / np.hypot(m1, m2)
        got = resonance_wavelength(fam, order, (0.0, 0.0), film.period)
        assert got == pytest.approx(expected, rel=1e-14)


def test_singular_order_raises(film):
    fam = axis_family(film)
    g = 2.0 * np.pi / film.period
    with pytest.raises(ValueError):
        resonance_wavelength(fam, (1, 0), (-g, 0.0), film.period)
    with pytest.raises(ValueError, match=r"^order \(1, 0\) singular inside the requested q range$"):
        film_matrix_grid(film, [0.0, -g], [0.0, 0.0], 797.0)


def test_resonance_split_slope_matches_finite_differences(film):
    # along the diagonal the (1,1) and (-1,-1) resonances move oppositely,
    # linearly in |q|; oracle: central finite differences of the exact formula
    fam = diagonal_family(film)
    direction = np.array([1.0, 1.0]) / np.sqrt(2.0)
    h = 1e-7

    def lam_along(order, t):
        return resonance_wavelength(fam, order, t * direction, film.period)

    slope_pp = (lam_along((1, 1), h) - lam_along((1, 1), -h)) / (2 * h)
    slope_mm = (lam_along((-1, -1), h) - lam_along((-1, -1), -h)) / (2 * h)
    g_norm = 2.0 * np.pi * np.sqrt(2.0) / film.period
    analytic = -797.0 / g_norm
    assert slope_pp == pytest.approx(analytic, rel=1e-5)
    assert slope_mm == pytest.approx(-analytic, rel=1e-5)


# --- film matrix symmetries ------------------------------------------------

def test_normal_incidence_matrix_proportional_to_identity(film):
    for lam in (728.0, 797.0, 813.0, 850.0):
        m = film_matrix(film, (0.0, 0.0), lam)
        scale = abs(m[0, 0])
        assert abs(m[0, 1]) <= 1e-12 * scale
        assert abs(m[1, 0]) <= 1e-12 * scale
        assert abs(m[0, 0] - m[1, 1]) <= 1e-12 * scale


def test_diagonal_dyads_sum_to_identity_times_two():
    amp = 0.1
    fam = ResonanceFamily.make((1, 1), 797.0, 5.0, amp, 700.0)
    lone = FilmModel(period=700.0, direct_amplitude=0.0, families=(fam,))
    for lam in (770.0, 797.0, 820.0):
        m = film_matrix(lone, (0.0, 0.0), lam)
        lorentz = 1j * 5.0 / (lam - 797.0 + 1j * 5.0)
        assert np.allclose(m, 2.0 * amp * lorentz * np.eye(2), atol=1e-15)


def test_point_group_equivariance(film):
    rng = np.random.default_rng(3)
    q = rng.uniform(-8e-4, 8e-4, size=2)
    lam = 795.0
    base = film_matrix(film, q, lam)
    group = [np.round(rotation(k * np.pi / 2).real) for k in range(4)]
    group += [np.diag([1.0, -1.0]) @ g for g in group]
    for g in group:
        lhs = film_matrix(film, g @ q, lam)
        rhs = g @ base @ g.T
        assert np.allclose(lhs, rhs, atol=1e-12 * np.max(np.abs(base)))


def test_matrix_is_symmetric(film):
    m = film_matrix(film, (3e-4, -1e-4), 790.0)
    assert m[0, 1] == pytest.approx(m[1, 0], abs=1e-16)


def test_energy_bound(film):
    # largest singular value over a (q, lambda) scan stays below 1
    qs = np.linspace(-1.1e-3, 1.1e-3, 21)
    worst = 0.0
    for lam in np.linspace(700.0, 860.0, 33):
        for qx in qs:
            for qy in qs[::4]:
                m = film_matrix(film, (qx, qy), lam)
                worst = max(worst, np.linalg.svd(m, compute_uv=False)[0])
    assert worst <= 1.0


# --- against the per-point oracle ------------------------------------------

def assert_matches_direct(film, qx, qy, lam):
    got = np.stack(film_matrix_grid(film, qx, qy, lam), axis=-1)
    ref = film_matrix_direct(film, qx, qy, lam)
    ref = ref.reshape(ref.shape[:-2] + (4,))
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_flat_q_array_matches_direct_oracle(film):
    rng = np.random.default_rng(7)
    qx, qy = rng.uniform(-1.2e-3, 1.2e-3, size=(2, 400))
    qx[:3], qy[:3] = 0.0, [0.0, 5e-4, -5e-4]
    for lam in (728.0, 797.0):
        assert_matches_direct(film, qx, qy, lam)


def test_spectrum_arrays_match_direct_oracle(film):
    # the tilts of a spectrum along axis 0, the wavelengths along axis 1
    lams = np.arange(700.0, 850.0, 0.5)
    kt = 2.0 * np.pi / lams * np.sin(np.deg2rad([0.0, 2.0, 4.0, 6.0]))[:, None]
    assert_matches_direct(film, kt / np.sqrt(2.0), kt / np.sqrt(2.0), lams)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("lam", [797.0, 1e-160, 1e200])
def test_extreme_q_and_lambda_match_direct_oracle(film, lam):
    # one call holds |q| from 0 to 1e300: |q|^2 overflows past 1e154, and a
    # scaling that brought 1e300 near 1 would underflow |G|^2 at q = 0
    rng = np.random.default_rng(11)
    radius = np.concatenate([[0.0, 1e-3], np.logspace(-6, 300, 60)])
    angle = rng.uniform(0.0, 2.0 * np.pi, radius.size)
    assert_matches_direct(film, radius * np.cos(angle), radius * np.sin(angle), lam)


# --- transmittance ---------------------------------------------------------

def test_opaque_film_transmits_nothing():
    opaque = FilmModel(period=700.0, direct_amplitude=0.0, families=())
    assert transmittance(opaque, (2e-4, 0.0), 800.0, linear_pol(0.3)) == 0.0


def test_normal_incidence_transmittance_polarization_independent(film):
    t0 = transmittance(film, (0.0, 0.0), 797.0, linear_pol(0.0))
    for ang in (0.3, 1.0, 2.2):
        assert transmittance(film, (0.0, 0.0), 797.0, linear_pol(ang)) == pytest.approx(t0)


def test_peak_transmittance_is_a_few_percent(film):
    t = transmittance(film, (0.0, 0.0), 797.0, linear_pol(0.7))
    assert 0.01 < t < 0.1


# --- tabulated grids -------------------------------------------------------

def sample_tabulated(tmp_path):
    film = default_film()
    qs = np.linspace(-5e-4, 5e-4, 5)
    lams = np.array([790.0, 797.0, 804.0])
    rows = []
    for lam in lams:
        for qx in qs:
            for qy in qs:
                m = film_matrix(film, (qx, qy), lam)
                rows.append([qx, qy, lam,
                             m[0, 0].real, m[0, 0].imag, m[0, 1].real, m[0, 1].imag,
                             m[1, 0].real, m[1, 0].imag, m[1, 1].real, m[1, 1].imag])
    path = tmp_path / "film.csv"
    header = "qx,qy,lambda_nm,re_xx,im_xx,re_xy,im_xy,re_yx,im_yx,re_yy,im_yy"
    path.write_text(header + "\n" + "\n".join(
        ",".join(f"{v:.8e}" for v in row) for row in rows) + "\n")
    return path


def test_tabulated_round_trip(tmp_path):
    path = sample_tabulated(tmp_path)
    out = tmp_path / "roundtrip.csv"
    save_tabulated(load_tabulated(path), out)
    assert out.read_text() == path.read_text()


@pytest.mark.parametrize("table", ["sampled", "random"])
def test_load_tabulated_axes_are_the_sorted_distinct_columns(tmp_path, table):
    if table == "sampled":
        path = sample_tabulated(tmp_path)
    else:
        path = tmp_path / "random.csv"
        save_tabulated(random_table(np.random.default_rng(7), 3), path)
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    g = load_tabulated(path)
    for axis, column in ((g.qx, 0), (g.qy, 1), (g.lam, 2)):
        expected = np.unique(data[:, column])
        assert axis.dtype == expected.dtype and axis.tobytes() == expected.tobytes()
    expected = (data[:, 3::2] + 1j * data[:, 4::2]).reshape(g.matrices.shape)
    assert g.matrices.tobytes() == expected.tobytes()


def test_tabulated_interpolation_midpoint(tmp_path):
    g = load_tabulated(sample_tabulated(tmp_path))
    lam_mid = 0.5 * (g.lam[0] + g.lam[1])
    got = film_matrix(g, (g.qx[1], g.qy[2]), lam_mid)
    expected = 0.5 * (g.matrices[0, 1, 2] + g.matrices[1, 1, 2])
    assert np.allclose(got, expected, atol=1e-15)


def test_tabulated_matches_grid_nodes(tmp_path):
    g = load_tabulated(sample_tabulated(tmp_path))
    got = film_matrix(g, (g.qx[3], g.qy[0]), g.lam[2])
    assert np.allclose(got, g.matrices[2, 3, 0], atol=1e-14)


def test_tabulated_refuses_extrapolation(tmp_path):
    model = load_tabulated(sample_tabulated(tmp_path))
    with pytest.raises(ValueError):
        film_matrix(model, (0.0, 0.0), 700.0)
    with pytest.raises(ValueError):
        film_matrix(model, (1.0, 0.0), 797.0)


def random_table(rng, n_lam):
    """Point-group symmetric random film table on random non-uniform axes."""
    def axis(start, n, scale):
        return start + np.cumsum(rng.uniform(0.2, 1.0, n)) * scale

    half = axis(0.0, 3, 2e-4)
    return symmetric_random_grid(rng, np.concatenate([-half[::-1], half]),
                                 axis(790.0, n_lam, 3.0))


def refused_asymmetry(what, grid_args):
    """The relative asymmetry, to 3 digits, that TabulatedGrid(**grid_args) refuses for ``what``."""
    with pytest.raises(ValueError, match="not point-group symmetric") as exc:
        TabulatedGrid(**grid_args)
    found = re.fullmatch(rf".*: {what} asymmetry (\S+) exceeds the tolerance 1e-08",
                         str(exc.value))
    assert found, str(exc.value)
    return float(found.group(1))


def test_asymmetric_table_is_refused_with_its_measured_asymmetry():
    g = random_table(np.random.default_rng(3), 3)
    args = dict(qx=g.qx, qy=g.qy, lam=g.lam, matrices=g.matrices)
    scale = np.max(np.abs(g.matrices))
    # one entry, not the largest, moved by a fraction of the largest
    entry = (1, 4, 2, 0, 1)
    assert abs(g.matrices[entry]) < scale
    bumped = g.matrices.copy()
    bumped[entry] += 1e-6 * scale
    assert refused_asymmetry("matrices", dict(args, matrices=bumped)) == \
        pytest.approx(1e-6, rel=5e-3)
    # within the rounding of a saved table: loads
    bumped[entry] = g.matrices[entry] + 1e-10 * scale
    TabulatedGrid(**dict(args, matrices=bumped))
    # both axes shifted: still one axis, but no longer antisymmetric
    shift = 1e-5
    q = g.qx + shift
    assert refused_asymmetry("q axes", dict(args, qx=q, qy=q)) == \
        pytest.approx(2 * shift / np.max(np.abs(q)), rel=5e-3)
    with pytest.raises(ValueError, match="not point-group symmetric: 6 qx, 5 qy"):
        TabulatedGrid(**dict(args, qy=g.qy[:-1], matrices=g.matrices[:, :, :-1]))


@pytest.mark.parametrize("n_lam", [3, 1], ids=["three_lambdas", "one_lambda"])
def test_array_interpolation_matches_per_point_oracle(n_lam):
    rng = np.random.default_rng(11)
    g = random_table(rng, n_lam)
    # random in-range points, then every grid node, then the upper edge of
    # each axis with the other two coordinates random
    n = 200
    pts = [np.column_stack([rng.uniform(a[0], a[-1], n) for a in (g.qx, g.qy, g.lam)])]
    pts.append(np.stack(np.meshgrid(g.qx, g.qy, g.lam, indexing="ij"), axis=-1).reshape(-1, 3))
    for k, a in enumerate((g.qx, g.qy, g.lam)):
        edge = pts[0][:20].copy()
        edge[:, k] = a[-1]
        pts.append(edge)
    pts = np.concatenate(pts)
    expected = np.array([interpolate_tabulated_point(g, p[:2], p[2]) for p in pts])
    got = np.stack(film_matrix_grid(g, pts[:, 0], pts[:, 1], pts[:, 2]),
                   axis=-1).reshape(-1, 2, 2)
    assert np.all(np.abs(got - expected) <= 1e-15 * np.abs(expected))
    # one wavelength broadcast against a flat q sample (the aperture case)
    lam = pts[0, 2]
    expected = np.array([interpolate_tabulated_point(g, p[:2], lam) for p in pts[:n]])
    got = np.stack(film_matrix_grid(g, pts[:n, 0], pts[:n, 1], lam),
                   axis=-1).reshape(-1, 2, 2)
    assert np.all(np.abs(got - expected) <= 1e-15 * np.abs(expected))


def test_out_of_range_array_names_first_bad_value():
    g = random_table(np.random.default_rng(5), 3)
    qx_inside = np.array([g.qx[1], g.qx[2], g.qx[3]])
    qx = np.array([g.qx[2], g.qx[-1] + 1e-4, g.qx[0] - 3e-4])
    with pytest.raises(TableRangeError, match=re.escape(f"qx = {qx[1]:g} outside")):
        film_matrix_grid(g, qx, np.full(3, g.qy[1]), g.lam[1])
    lam = np.array([g.lam[0], g.lam[-1], g.lam[-1] + 2.0, g.lam[0] - 5.0])
    with pytest.raises(TableRangeError, match=re.escape(f"lambda = {lam[2]:g} outside")):
        film_matrix_grid(g, g.qx[1], g.qy[1], lam)
    with pytest.raises(TableRangeError, match="qy = nan outside"):
        film_matrix_grid(g, qx_inside, np.array([g.qy[1], np.nan, g.qy[2]]), g.lam[1])


@pytest.mark.parametrize("kind", ["analytic", "tabulated"])
def test_non_positive_wavelength_is_refused(kind):
    model = default_film() if kind == "analytic" else random_table(np.random.default_rng(5), 3)
    with pytest.raises(ValueError, match="wavelength must be positive"):
        film_matrix_grid(model, np.zeros(3), np.zeros(3), np.array([797.0, 0.0, 797.0]))
    with pytest.raises(ValueError, match="wavelength must be positive"):
        film_matrix(model, (0.0, 0.0), -5.0)


def test_tabulated_rejects_non_rectangular(tmp_path):
    path = sample_tabulated(tmp_path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")  # drop one row
    with pytest.raises(ValueError):
        load_tabulated(path)


def test_tabulated_rejects_a_repeated_row_in_place_of_a_missing_one(tmp_path):
    # (qx, qy) = (0,0), (0,1), (1,1), (1,1) at one wavelength: the row count
    # and the sort order are those of a 2 x 2 x 1 grid, and the matrix of the
    # fourth row loaded into the missing (1, 0) cell
    path = tmp_path / "film.csv"
    rows = [f"{qx},{qy},797,{k},0,0,0,0,0,{k},0"
            for k, (qx, qy) in enumerate([(0, 0), (0, 1), (1, 1), (1, 1)])]
    path.write_text("\n".join([TABULATED_HEADER] + rows) + "\n")
    with pytest.raises(ValueError, match="each grid point once"):
        load_tabulated(path)


def test_tabulated_rejects_nan(tmp_path):
    path = sample_tabulated(tmp_path)
    text = path.read_text().splitlines()
    parts = text[1].split(",")
    parts[3] = "nan"
    text[1] = ",".join(parts)
    path.write_text("\n".join(text) + "\n")
    with pytest.raises(ValueError):
        load_tabulated(path)


# --- family validation -----------------------------------------------------

def test_family_requires_effective_index_above_one():
    with pytest.raises(ValueError):
        ResonanceFamily.make((1, 0), 650.0, 5.0, 0.1, 700.0)


def test_family_orders_are_point_group_closed(film):
    fam = diagonal_family(film)
    assert fam.orders == frozenset({(1, 1), (1, -1), (-1, 1), (-1, -1)})
    fam = axis_family(film)
    assert fam.orders == frozenset({(1, 0), (-1, 0), (0, 1), (0, -1)})


@pytest.mark.parametrize("seed", [(1, 1), (1, 0), (2, 1), (3, 0), (-2, 5)])
def test_family_orders_are_the_orbit_under_the_eight_lattice_symmetries(seed):
    # the orbit under 2x2 rotation matrices by multiples of 90 deg and their
    # products with the mirror y -> -y
    rotations = [np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])
                 for a in np.arange(4) * np.pi / 2]
    group = rotations + [np.diag([1.0, -1.0]) @ r for r in rotations]
    orbit = {tuple(int(round(c)) for c in g @ np.array(seed, dtype=float)) for g in group}
    fam = ResonanceFamily.make(seed, 2000.0, 5.0, 0.1, 700.0)
    assert fam.orders == frozenset(orbit)
    assert all(type(m) is int for order in fam.orders for m in order)
