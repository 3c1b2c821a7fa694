import re
import tracemalloc

import numpy as np
import pytest

from oracles import (
    default_film,
    default_film_table,
    film_matrix,
    film_matrix_direct,
    interpolate_tabulated_point,
    matrix_asymmetry_direct,
    paper_setup,
    resonance_wavelength,
    rotation,
    save_tabulated,
    symmetric_random_grid,
    transmittance,
)
from plasmon_biphoton.film import (
    TABULATED_HEADER,
    FilmModel,
    TabulatedGrid,
    film_matrix_grid,
    load_tabulated,
)
from plasmon_biphoton import film as film_module
from plasmon_biphoton import optics
from plasmon_biphoton.quantum import linear_pol


@pytest.fixture(scope="module")
def film():
    return default_film()


def n_eff(film, order):
    """The effective index of the family that holds ``order``."""
    return next(n for m1, m2, n, _, _ in film.orders if (m1, m2) == order)


# --- resonance wavelengths -------------------------------------------------

def test_diagonal_resonance_calibrated_to_797(film):
    lam = resonance_wavelength(n_eff(film, (1, 1)), (1, 1), (0.0, 0.0), film.period)
    assert lam == pytest.approx(797.0, abs=1e-9)


def test_axis_resonance_calibrated_to_728(film):
    lam = resonance_wavelength(n_eff(film, (1, 0)), (1, 0), (0.0, 0.0), film.period)
    assert lam == pytest.approx(728.0, abs=1e-9)


def test_resonances_calibrated_at_a_non_default_period():
    # one period feeds both n_eff and G, so each family still resonates at
    # its lambda0 at normal incidence, with n_eff = lambda0 |seed| / 650
    film = default_film(period_nm=650.0)
    assert film.period == 650.0
    for order, lambda0, index in (((1, 1), 797.0, 1.734), ((1, 0), 728.0, 1.12)):
        assert n_eff(film, order) == pytest.approx(index, abs=5e-4)
        lam = resonance_wavelength(n_eff(film, order), order, (0.0, 0.0), film.period)
        assert lam == pytest.approx(lambda0, abs=1e-9)


def test_resonance_formula_at_normal_incidence(film):
    for order in ((1, -1), (0, 1)):
        m1, m2 = order
        expected = n_eff(film, order) * film.period / np.hypot(m1, m2)
        got = resonance_wavelength(n_eff(film, order), order, (0.0, 0.0), film.period)
        assert got == pytest.approx(expected, rel=1e-14)


def test_singular_order_raises(film):
    g = 2.0 * np.pi / film.period
    with pytest.raises(ValueError):
        resonance_wavelength(n_eff(film, (1, 0)), (1, 0), (-g, 0.0), film.period)
    with pytest.raises(ValueError, match=r"^order \(1, 0\) singular inside the requested q range$"):
        film_matrix_grid(film, [0.0, -g], [0.0, 0.0], 797.0)


def test_resonance_split_slope_matches_finite_differences(film):
    # along the diagonal the (1,1) and (-1,-1) resonances move oppositely,
    # linearly in |q|; oracle: central finite differences of the exact formula
    direction = np.array([1.0, 1.0]) / np.sqrt(2.0)
    h = 1e-7

    def lam_along(order, t):
        return resonance_wavelength(n_eff(film, order), order, t * direction, film.period)

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
    lone = FilmModel(period=700.0, direct_amplitude=0.0, families=(((1, 1), 797.0, 5.0, amp),))
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
@pytest.mark.parametrize("lam", [797.0, 1e-160])
def test_extreme_q_and_lambda_match_direct_oracle(film, lam):
    # one call holds |q| from 0 to 1e153, just below where |q|^2 overflows
    rng = np.random.default_rng(11)
    radius = np.concatenate([[0.0, 1e-3], np.logspace(-6, 153, 60)])
    angle = rng.uniform(0.0, 2.0 * np.pi, radius.size)
    assert_matches_direct(film, radius * np.cos(angle), radius * np.sin(angle), lam)


def test_analytic_film_call_holds_little_more_than_it_returns(film):
    # the 4 056-point wedge of the 201-point, 8 deg aperture: a call returns
    # 48 B/point and peaked at 177 B/point while each order's temporaries
    # lived on into the next order and q was copied unscaled
    s = paper_setup(film=film)
    half = (np.arange(100, 201) - 100.0) * (2.0 * s.q2_max / 201)
    a, b = optics._wedge(half, s.q2_max)
    assert a.size == 4056
    qx, qy = half[a], half[b]
    tracemalloc.start()
    try:
        film_matrix_grid(film, qx, qy, s.lam)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 128 * a.size, f"{peak / a.size:.1f} B/point"


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


@pytest.mark.parametrize("table", ["sampled", "random", "signed_zeros"])
def test_load_tabulated_axes_are_the_sorted_distinct_columns(tmp_path, table):
    if table == "sampled":
        path = sample_tabulated(tmp_path)
    else:
        rng = np.random.default_rng(7)
        path = tmp_path / "random.csv"
        save_tabulated(random_table(rng, 3), path)
    if table == "signed_zeros":
        # xy, yx and every imaginary part zero, each with a random sign: the
        # table stays symmetric, and the matrices must keep every sign
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        zero = [4, 5, 6, 7, 8, 10]
        data[:, zero] = np.where(rng.random((len(data), len(zero))) < 0.5, 0.0, -0.0)
        path.write_text(TABULATED_HEADER + "\n" + "".join(
            ",".join(f"{v:.8e}" for v in row) + "\n" for row in data))
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    g = load_tabulated(path)
    for axis, column in ((g.q, 0), (g.q, 1), (g.lam, 2)):
        expected = np.unique(data[:, column])
        assert axis.dtype == expected.dtype and axis.tobytes() == expected.tobytes()
    expected = (data[:, 3::2] + 1j * data[:, 4::2]).reshape(g.matrices.shape)
    assert g.matrices.tobytes() == expected.tobytes()


def test_tabulated_interpolation_midpoint(tmp_path):
    g = load_tabulated(sample_tabulated(tmp_path))
    lam_mid = 0.5 * (g.lam[0] + g.lam[1])
    got = film_matrix(g, (g.q[1], g.q[2]), lam_mid)
    expected = 0.5 * (g.matrices[0, 1, 2] + g.matrices[1, 1, 2])
    assert np.allclose(got, expected, atol=1e-15)


def test_tabulated_matches_grid_nodes(tmp_path):
    g = load_tabulated(sample_tabulated(tmp_path))
    got = film_matrix(g, (g.q[3], g.q[0]), g.lam[2])
    assert np.allclose(got, g.matrices[2, 3, 0], atol=1e-14)


@pytest.mark.parametrize("lams", [(797.0,), (790.0, 800.0)], ids=["one_lambda", "two_lambdas"])
def test_one_node_table_gives_its_matrix_at_q_0(tmp_path, lams):
    # q = [0]: every axis of the CSV is one run of rows, and the lookup
    # takes the size-1 branch for both qx and qy
    c = complex(0.25, -0.5)
    path = tmp_path / "film.csv"
    save_tabulated(TabulatedGrid(q=np.zeros(1), lam=np.array(lams),
                                 matrices=np.broadcast_to(c * np.eye(2), (len(lams), 1, 1, 2, 2))),
                   path)
    g = load_tabulated(path)
    assert (g.q.tolist(), g.lam.tolist()) == ([0.0], list(lams))
    for lam in (*lams, np.mean(lams)):
        assert np.array_equal(film_matrix(g, (0.0, 0.0), lam), c * np.eye(2)), lam


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


@pytest.mark.parametrize("bad", ["unsorted_q", "repeated_lambda", "nan_q", "empty_q",
                                 "flat_matrices"])
def test_table_with_a_bad_axis_or_shape_is_refused(bad):
    # the axis [-2, 1, -1, 2] passes the symmetry check, but the
    # interpolation's searchsorted reads every axis as sorted
    q = np.array([-2.0, -1.0, 1.0, 2.0])
    m = np.zeros((2, 4, 4, 2, 2), dtype=complex)
    m[..., 0, 0] = m[..., 1, 1] = 1.0 + np.abs(q)[:, None] + np.abs(q)
    args = dict(q=q, lam=np.array([790.0, 800.0]), matrices=m)
    TabulatedGrid(**args)
    if bad == "unsorted_q":
        args.update(q=q[[0, 2, 1, 3]])
    elif bad == "repeated_lambda":
        args.update(lam=np.array([790.0, 790.0]))
    elif bad == "nan_q":
        args.update(q=np.array([np.nan, -1.0, 1.0, 2.0]))
    elif bad == "empty_q":
        args.update(q=q[:0], matrices=m[:, :0, :0])
    else:
        args.update(matrices=m.reshape(-1, 2, 2))
    with pytest.raises(ValueError, match="film table (axes|matrices)"):
        TabulatedGrid(**args)


def test_asymmetric_table_is_refused_with_its_measured_asymmetry(tmp_path):
    g = random_table(np.random.default_rng(3), 3)
    args = dict(q=g.q, lam=g.lam, matrices=g.matrices)
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
    # the axis shifted: still one axis, but no longer antisymmetric
    shift = 1e-5
    q = g.q + shift
    assert refused_asymmetry("q axis", dict(args, q=q)) == \
        pytest.approx(2 * shift / np.max(np.abs(q)), rel=5e-3)
    # qy on a shorter or a shifted axis: two axes, which a grid cannot hold,
    # so the parse refuses them
    path = tmp_path / "film.csv"
    save_tabulated(g, path)
    rows = np.loadtxt(path, delimiter=",", skiprows=1)
    shifted = rows.copy()
    shifted[:, 1] += shift
    short = rows[rows[:, 1] != rows[:, 1].max()]
    for bad, message in ((short, "not point-group symmetric: 6 qx, 5 qy"),
                         (shifted, "qx and qy axes differ")):
        np.savetxt(path, bad, fmt="%.8e", delimiter=",", header=TABULATED_HEADER, comments="")
        with pytest.raises(ValueError, match=message):
            load_tabulated(path)


@pytest.mark.parametrize("seed", range(6))
def test_matrix_asymmetry_is_the_direct_expression_bit_for_bit(seed):
    # random tables, symmetric and not, of odd and even q sizes and one or
    # more wavelengths: the one-buffer measure reaches the same maximum
    rng = np.random.default_rng(seed)
    shape = (1 + seed % 3, 4 + seed, 4 + seed, 2, 2)
    raw = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    near = random_table(rng, 1 + seed % 3).matrices
    near[(0,) * near.ndim] += 1e-9 * (1 + 1j)
    for m in (raw, near, raw[:, ::2, ::2], np.asfortranarray(raw)):
        assert film_module._matrix_asymmetry(m) == matrix_asymmetry_direct(m)


@pytest.mark.parametrize("bad", [np.inf, complex(0.0, -np.inf), np.nan])
def test_table_with_a_non_finite_entry_is_refused(bad):
    # an infinite entry whose mirror image is finite differs from it by inf,
    # which an infinite scale would not refuse on its own; the message
    # gives no ratio then, and no inf / inf RuntimeWarning comes first
    g = random_table(np.random.default_rng(5), 2)
    m = g.matrices.copy()
    m[0, 0, 1, 0, 1] = bad
    with pytest.raises(ValueError, match="matrices asymmetry nan exceeds"):
        TabulatedGrid(q=g.q, lam=g.lam, matrices=m)


def test_analytic_film_returns_one_read_only_array_for_xy_and_yx(film):
    qx, qy = np.array([1e-4, 3e-4]), np.array([2e-4, -1e-4])
    fxx, fxy, fyx, fyy = film_matrix_grid(film, qx, qy, 797.0)
    assert fxy is fyx
    with pytest.raises(ValueError, match="read-only"):
        fyx[0] = 0.0
    fxx[0] = fyy[0] = 0.0  # the diagonal components are the caller's own
    table = symmetric_random_grid(np.random.default_rng(2), np.linspace(-1e-3, 1e-3, 5),
                                  [796.0, 798.0])
    fxx, fxy, fyx, fyy = film_matrix_grid(table, qx, qy, 797.0)
    assert len({id(fxx), id(fxy), id(fyx), id(fyy)}) == 4
    assert not np.shares_memory(fxy, fyx)


@pytest.mark.parametrize("n_lam", [3, 1], ids=["three_lambdas", "one_lambda"])
def test_array_interpolation_matches_per_point_oracle(n_lam):
    rng = np.random.default_rng(11)
    g = random_table(rng, n_lam)
    # random in-range points, then every grid node, then the upper edge of
    # each axis with the other two coordinates random
    n = 200
    pts = [np.column_stack([rng.uniform(a[0], a[-1], n) for a in (g.q, g.q, g.lam)])]
    pts.append(np.stack(np.meshgrid(g.q, g.q, g.lam, indexing="ij"), axis=-1).reshape(-1, 3))
    for k, a in enumerate((g.q, g.q, g.lam)):
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
    qx_inside = np.array([g.q[1], g.q[2], g.q[3]])
    qx = np.array([g.q[2], g.q[-1] + 1e-4, g.q[0] - 3e-4])
    with pytest.raises(ValueError, match=re.escape(f"qx = {qx[1]:g} outside")):
        film_matrix_grid(g, qx, np.full(3, g.q[1]), g.lam[1])
    lam = np.array([g.lam[0], g.lam[-1], g.lam[-1] + 2.0, g.lam[0] - 5.0])
    with pytest.raises(ValueError, match=re.escape(f"lambda = {lam[2]:g} outside")):
        film_matrix_grid(g, g.q[1], g.q[1], lam)
    with pytest.raises(ValueError, match="qy = nan outside"):
        film_matrix_grid(g, qx_inside, np.array([g.q[1], np.nan, g.q[2]]), g.lam[1])


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


# --- the parsed table's sidecar ---------------------------------------------

def grid_bytes(grid):
    return [a.tobytes() for a in (grid.q, grid.lam, grid.matrices)]


def sidecar_of(path):
    return path.parent / f".{path.name}.pbsim.npy"


def test_sidecar_hit_gives_the_parsed_grid_bit_for_bit(tmp_path, monkeypatch):
    path = tmp_path / "random.csv"
    save_tabulated(random_table(np.random.default_rng(3), 3), path)
    parsed = load_tabulated(path)
    assert sidecar_of(path).is_file()
    monkeypatch.setattr(film_module, "_parse_tabulated", None)  # a parse would fail
    cached = load_tabulated(path)
    assert [a.dtype for a in (cached.q, cached.lam, cached.matrices)] == \
        [a.dtype for a in (parsed.q, parsed.lam, parsed.matrices)]
    assert grid_bytes(cached) == grid_bytes(parsed)


def test_table_load_holds_only_the_parsed_rows_and_the_grid(tmp_path):
    # 121 x 121 q points at 4 wavelengths, 58 564 rows.  A parse holds the
    # 88 B/row loadtxt array and the 64 B/row grid; a sidecar hit holds the
    # grid and the symmetry check's scratch of one component, 24 B/row
    grid = default_film_table(2e-3, [790.0, 795.0, 800.0, 805.0], n_q=121)
    path = tmp_path / "film.csv"
    save_tabulated(grid, path)
    rows = grid.matrices.size // 4
    for load, budget in (("parse", 160), ("sidecar hit", 100)):
        tracemalloc.start()
        try:
            load_tabulated(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= budget * rows + 262144, f"{load}: {peak / rows:.1f} B/row"
        assert sidecar_of(path).is_file()


def test_table_parse_sorts_nothing(tmp_path, monkeypatch):
    # the rows are sorted, so the axes are read from them; a sort would load
    # NumPy's sort code into every run that parses a table
    def refuse(*args, **kwargs):
        raise AssertionError("np.sort called")

    path = tmp_path / "film.csv"
    save_tabulated(default_film_table(2e-3, [790.0, 797.0, 804.0]), path)
    expected = load_tabulated(path)
    sidecar_of(path).unlink()
    monkeypatch.setattr(np, "sort", refuse)
    assert grid_bytes(load_tabulated(path)) == grid_bytes(expected)


def test_edited_table_is_parsed_again(tmp_path):
    path = sample_tabulated(tmp_path)
    first = load_tabulated(path)
    lines = path.read_text().splitlines()
    # a 1.5x larger film, as a new run of the solver would give
    path.write_text("\n".join([lines[0]] + [
        ",".join(row.split(",")[:3] + [f"{1.5 * float(v):.8e}" for v in row.split(",")[3:]])
        for row in lines[1:]]) + "\n")
    assert np.allclose(load_tabulated(path).matrices, 1.5 * first.matrices, rtol=1e-8, atol=0)


@pytest.mark.parametrize("damage", ["truncated", "asymmetric"])
def test_damaged_sidecar_falls_back_to_the_csv(tmp_path, damage):
    path = sample_tabulated(tmp_path)
    parsed = load_tabulated(path)
    sidecar = sidecar_of(path)
    if damage == "truncated":
        sidecar.write_bytes(sidecar.read_bytes()[:-100])
    else:
        # the key of this very CSV, over matrices that break the x mirror
        m = parsed.matrices.copy()
        m[:, 0, 1, 0, 1] += 0.1 * np.max(np.abs(m))
        with open(sidecar, "wb") as fh:
            for array in (np.array(film_module._table_key(path)), parsed.q, parsed.lam, m):
                np.save(fh, array)
    assert grid_bytes(load_tabulated(path)) == grid_bytes(parsed)
    # and the sidecar holds the parsed grid again
    cached = film_module._read_sidecar(str(sidecar), film_module._table_key(path))
    assert grid_bytes(cached) == grid_bytes(parsed)


# a sidecar with the CSV's own key whose arrays a parse would never give
@pytest.mark.parametrize("damage", [
    "decreasing_axes", "nan_wavelength", "float_matrices", "flat_matrices", "nan_matrix_entry"])
def test_sidecar_that_fails_a_parse_check_falls_back_to_the_csv(tmp_path, monkeypatch, damage):
    path = sample_tabulated(tmp_path)
    parsed = load_tabulated(path)
    q, lam, m = parsed.q, parsed.lam.copy(), parsed.matrices.copy()
    if damage == "decreasing_axes":
        q = q[::-1]
    elif damage == "nan_wavelength":
        lam[0] = np.nan
    elif damage == "float_matrices":
        m = m.real
    elif damage == "flat_matrices":
        m = m.reshape(-1, 2, 2)
    else:  # refused by TabulatedGrid, as any non-finite entry is
        m[0, 0, 0, 0, 0] = np.nan
    with open(sidecar_of(path), "wb") as fh:
        for array in (np.array(film_module._table_key(path)), q, lam, m):
            np.save(fh, array)
    parses = []
    parse = film_module._parse_tabulated
    monkeypatch.setattr(film_module, "_parse_tabulated", lambda p: parses.append(p) or parse(p))
    assert grid_bytes(load_tabulated(path)) == grid_bytes(parsed)
    assert parses == [path]


@pytest.mark.parametrize("text", [
    f"{TABULATED_HEADER}\n0,0,797,1,0,0,0,0,0,1,0\n0,0,798,1,0,0,0,0,0\n",
    f"{TABULATED_HEADER}\n0,0,797,1,0,1,0,0,0,1,0\n",
], ids=["ragged_row", "asymmetric"])
def test_table_that_fails_to_load_leaves_no_sidecar(tmp_path, text):
    path = tmp_path / "film.csv"
    path.write_text(text)
    with pytest.raises(ValueError):
        load_tabulated(path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["film.csv"]


def test_table_changed_during_the_parse_leaves_no_sidecar(tmp_path, monkeypatch):
    path = sample_tabulated(tmp_path)
    keys = iter([(1, 2, 3, 4), (1, 2, 3, 5)])  # before and after the parse
    monkeypatch.setattr(film_module, "_table_key", lambda p: next(keys))
    load_tabulated(path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["film.csv"]


# --- family validation -----------------------------------------------------

def test_family_requires_effective_index_above_one():
    with pytest.raises(ValueError, match=r"^effective index 0\.9286 must exceed 1$"):
        FilmModel(period=700.0, direct_amplitude=0.0, families=(((1, 0), 650.0, 5.0, 0.1),))


def test_family_orders_are_point_group_closed(film):
    # the diagonal family, then the axis family, each orbit sorted, each
    # order with its family's n_eff, width and amplitude
    assert [order[:2] for order in film.orders] == [
        (-1, -1), (-1, 1), (1, -1), (1, 1), (-1, 0), (0, -1), (0, 1), (1, 0)]
    diagonal, axis = film.orders[0][2:], film.orders[4][2:]
    assert all(order[2:] == diagonal for order in film.orders[:4])
    assert all(order[2:] == axis for order in film.orders[4:])
    assert (diagonal[1], axis[1]) == (4.0, 5.0) and axis[2] == 0.38 * diagonal[2]


@pytest.mark.parametrize("seed", [(1, 1), (1, 0), (2, 1), (3, 0), (-2, 5)])
def test_family_orders_are_the_orbit_under_the_eight_lattice_symmetries(seed):
    # the orbit under 2x2 rotation matrices by multiples of 90 deg and their
    # products with the mirror y -> -y
    rotations = [np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])
                 for a in np.arange(4) * np.pi / 2]
    group = rotations + [np.diag([1.0, -1.0]) @ r for r in rotations]
    orbit = {tuple(int(round(c)) for c in g @ np.array(seed, dtype=float)) for g in group}
    lone = FilmModel(period=700.0, direct_amplitude=0.0, families=((seed, 2000.0, 5.0, 0.1),))
    orders = [order[:2] for order in lone.orders]
    assert orders == sorted(orbit)
    assert all(type(m) is int for order in orders for m in order)
