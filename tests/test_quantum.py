import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from plasmon_biphoton.jones import linear_pol
from plasmon_biphoton.quantum import (
    concurrence,
    postselect_channel,
    power_form,
    reduced_form,
    visibility,
)

from oracles import (
    postselect_channel_labels,
    rotation,
    singlet,
    visibility_brute,
    visibility_eigvalsh,
)


def rate(form, beta1):
    """Coincidence rate e(beta1)^T A e(beta1) of a 2x2 coincidence form A."""
    e1 = np.array([np.cos(beta1), np.sin(beta1)])
    return float(e1 @ form @ e1)


def uniform_fields(pol_angle, n=5):
    """n x n grid of identical fields linearly polarized at ``pol_angle``."""
    return np.tile(linear_pol(pol_angle), (n, n, 1))


# --- singlet ---------------------------------------------------------------

def test_singlet_norm_and_overlap():
    s = singlet()
    assert np.isclose(np.vdot(s, s).real, 1.0)
    assert s[0] == 0.0  # no |XX> component


def test_singlet_rotation_invariance():
    beta = 0.37
    r = rotation(beta)
    s = singlet()
    rotated = np.kron(r, r) @ s
    phase = np.vdot(s, rotated)
    assert np.isclose(abs(phase), 1.0, atol=1e-12)
    assert np.allclose(rotated, phase * s, atol=1e-12)


# --- post-selection channel ------------------------------------------------

def test_identity_channel_coherent_solid_gives_singlet():
    rho = postselect_channel(np.eye(2), 1.0)
    s = singlet()
    assert np.allclose(rho, np.outer(s, s.conj()), atol=1e-12)
    assert np.isclose(np.linalg.matrix_rank(rho, tol=1e-10), 1)


def test_identity_channel_orthogonal_solid_gives_mixture():
    rho = postselect_channel(np.eye(2), 0.0)
    expected = np.zeros((4, 4), dtype=complex)
    expected[1, 1] = 0.5  # |XY><XY|
    expected[2, 2] = 0.5  # |YX><YX|
    assert np.allclose(rho, expected, atol=1e-12)


def test_single_surviving_channel_is_product_state():
    rho = postselect_channel(np.diag([1.0, 0.0]), 1.0)
    expected = np.zeros((4, 4), dtype=complex)
    expected[1, 1] = 1.0  # |XY>
    assert np.allclose(rho, expected, atol=1e-12)
    assert concurrence(rho) == pytest.approx(0.0, abs=1e-9)


def test_zero_channel_raises():
    with pytest.raises(ValueError):
        postselect_channel(np.zeros((2, 2)), 1.0)


@st.composite
def channel_inputs(draw):
    comp = st.floats(min_value=-1.0, max_value=1.0)
    t = np.array([[complex(draw(comp), draw(comp)) for _ in range(2)] for _ in range(2)])
    if np.sum(np.abs(t) ** 2) < 1e-4:
        t = t + np.eye(2)
    return t, draw(st.floats(min_value=0.0, max_value=1.0))


@given(channel_inputs())
@settings(max_examples=50, deadline=None)
def test_postselected_state_is_density_matrix(inputs):
    t, coherence = inputs
    rho = postselect_channel(t, coherence)
    assert np.allclose(rho, rho.conj().T, atol=1e-10)
    assert np.linalg.eigvalsh(rho).min() > -1e-10
    assert np.isclose(np.trace(rho).real, 1.0, atol=1e-10)


def test_postselect_channel_equals_the_labelled_branch_matrix():
    # bit for bit, over random t with and without zero entries, at both ends
    # of the coherence range and between
    rng = np.random.default_rng(23)
    for _ in range(200):
        t = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        for channel in (t, np.where(rng.random((2, 2)) < 0.4, 0.0, t)):
            if not channel.any():
                continue
            for coherence in (0.0, 1.0, rng.uniform()):
                rho = postselect_channel(channel, coherence)
                reference = postselect_channel_labels(channel, coherence)
                assert rho.tobytes() == reference.tobytes()


def test_visibility_scale_invariance_of_channel():
    t = np.array([[0.8, 0.1], [0.0, 0.5j]])
    v1 = visibility(reduced_form(postselect_channel(t, 1.0), 0.3))
    v2 = visibility(reduced_form(postselect_channel(3.7j * t, 1.0), 0.3))
    assert v1 == pytest.approx(v2, abs=1e-12)


# --- concurrence -----------------------------------------------------------

def test_concurrence_singlet():
    rho = postselect_channel(np.eye(2), 1.0)
    assert concurrence(rho) == pytest.approx(1.0, abs=1e-10)


def test_concurrence_separable_mixture():
    rho = postselect_channel(np.eye(2), 0.0)
    assert concurrence(rho) == pytest.approx(0.0, abs=1e-10)


# --- coincidence rates -----------------------------------------------------

def test_monomode_singlet_malus_law():
    rho = postselect_channel(np.eye(2), 1.0)
    for b1, b2 in [(0.2, 0.9), (1.1, 0.3), (0.0, np.pi / 4)]:
        c = rate(reduced_form(rho, b2), b1)
        assert c == pytest.approx(0.5 * np.sin(b1 - b2) ** 2, abs=1e-12)


def test_multimode_identity_transfer_malus_law():
    b2 = 0.4
    form = power_form(uniform_fields(b2 + np.pi / 2))
    c_ref = rate(form, b2 + np.pi / 2)
    for b1 in (0.0, 0.7, 2.0):
        c = rate(form, b1)
        assert c == pytest.approx(c_ref * np.sin(b1 - b2) ** 2, abs=1e-9 * c_ref)


def test_case_i_visibilities_by_closed_form():
    # orthogonal solid states: V = 1 in the lattice basis, 0 at 45 degrees
    rho = postselect_channel(np.eye(2), 0.0)
    # closed form: rho = (|XY><XY| + |YX><YX|)/2, so
    # C(b1, 0) = sin^2(b1)/2 and C(b1, 45 deg) = 1/4 for all b1
    for b1 in (0.0, 0.5, 1.2):
        assert rate(reduced_form(rho, 0.0), b1) == pytest.approx(
            0.5 * np.sin(b1) ** 2, abs=1e-12)
        assert rate(reduced_form(rho, np.pi / 4), b1) == pytest.approx(0.25, abs=1e-12)
    assert visibility(reduced_form(rho, 0.0)) == pytest.approx(1.0, abs=1e-12)
    assert visibility(reduced_form(rho, np.pi / 4)) == pytest.approx(0.0, abs=1e-12)


def test_case_ii_visibility_is_one_everywhere():
    rho = postselect_channel(np.eye(2), 1.0)
    for b2 in np.deg2rad([0.0, 22.5, 45.0, 67.5]):
        assert visibility(reduced_form(rho, b2)) == pytest.approx(1.0, abs=1e-12)


# --- visibility: eigenvalue route vs brute-force scan ----------------------

@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=30, deadline=None)
def test_visibility_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    b2 = rng.uniform(0.0, np.pi)
    n = 4
    fields = rng.normal(size=(n, n, 2)) + 1j * rng.normal(size=(n, n, 2))
    assert visibility(power_form(fields)) == pytest.approx(visibility_brute(b2, fields), abs=1e-6)
    # monomode: a post-selected state of a random channel
    t = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = postselect_channel(t, 1.0)
    v = visibility(reduced_form(rho, b2))
    assert v == pytest.approx(visibility_brute(b2, rho), abs=1e-6)
    # ... which is the one-mode coincidence sum the sweep's zero-aperture row reduces
    assert v == pytest.approx(visibility(power_form(t @ linear_pol(b2 + np.pi / 2.0))), abs=1e-12)


def test_visibility_invariant_under_global_map_phase():
    rng = np.random.default_rng(7)
    fields = rng.normal(size=(3, 3, 2)) + 1j * rng.normal(size=(3, 3, 2))
    v1 = visibility(power_form(fields))
    v2 = visibility(power_form(np.exp(0.77j) * fields))
    assert v1 == pytest.approx(v2, abs=1e-12)


# --- visibility: closed form vs LAPACK -------------------------------------

EPS = np.finfo(float).eps


@pytest.mark.parametrize("kind", ["psd", "rank_one", "isotropic"])
def test_visibility_closed_form_matches_eigvalsh(kind):
    # V is in [0, 1], so a few ulp of 1 bounds the difference; random
    # magnitudes over 200 decades keep the scale out of it
    rng = np.random.default_rng(len(kind))
    for _ in range(2000):
        scale = 10.0 ** rng.uniform(-100.0, 100.0)
        if kind == "psd":
            x = rng.normal(size=(2, 3)) * scale
            form = x @ x.T
        elif kind == "rank_one":
            x = rng.normal(size=2) * scale
            form = np.outer(x, x)
        else:
            form = np.eye(2) * scale ** 2
        v = visibility(form)
        assert abs(v - visibility_eigvalsh(form)) <= 4 * EPS
        if kind == "rank_one":
            assert abs(v - 1.0) <= 4 * EPS
        elif kind == "isotropic":
            assert v == 0.0


def test_visibility_reads_the_lower_triangle_as_eigvalsh_does():
    form = np.array([[2.0, 5.0], [0.5, 1.0]])
    assert visibility(form) == pytest.approx(visibility_eigvalsh(form), abs=4 * EPS)
    assert visibility(form) != pytest.approx(visibility(form.T), abs=1e-3)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("entry", [(0, 0), (1, 0), (1, 1)])
def test_non_finite_form_gives_nan(bad, entry):
    # eigvalsh([[nan, 0], [0, 1]]) is [0, -0], which would read as a rate
    # that vanishes identically
    form = np.array([[1.0, 0.2], [0.2, 0.5]])
    form[entry] = bad
    assert np.isnan(visibility(form))


def test_zero_form_raises():
    with pytest.raises(ValueError, match="vanishes identically"):
        visibility(np.zeros((2, 2)))
    with pytest.raises(ValueError, match="vanishes identically"):
        visibility(-np.eye(2))
