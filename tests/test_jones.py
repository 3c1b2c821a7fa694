import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from plasmon_biphoton.jones import ellipse_of, jones_intensity, linear_pol, polarizer, rotation

angles = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


def test_rotation_zero_is_identity():
    assert np.allclose(rotation(0.0), np.eye(2))


def test_rotation_quarter_turn():
    assert np.allclose(rotation(np.pi / 2), [[0, -1], [1, 0]], atol=1e-15)


def test_rotation_inverse():
    assert np.allclose(rotation(0.3) @ rotation(-0.3), np.eye(2), atol=1e-15)


@given(angles, angles)
def test_rotation_additivity(a, b):
    assert np.allclose(rotation(a) @ rotation(b), rotation(a + b), atol=1e-12)


def test_polarizer_x():
    assert np.allclose(polarizer(0.0), [[1, 0], [0, 0]])


def test_polarizer_45():
    assert np.allclose(polarizer(np.pi / 4), [[0.5, 0.5], [0.5, 0.5]])


def test_polarizer_idempotent():
    p = polarizer(0.7)
    assert np.allclose(p @ p, p, atol=1e-15)
    assert np.allclose(p, p.conj().T)
    assert np.isclose(np.trace(p).real, 1.0)


@given(angles)
def test_polarizer_blocks_orthogonal(beta):
    blocked = polarizer(beta) @ linear_pol(beta + np.pi / 2)
    assert np.max(np.abs(blocked)) < 1e-12


def test_ellipse_linear_x():
    e = ellipse_of(np.array([1.0, 0.0], dtype=complex))
    assert e.psi == pytest.approx(0.0)
    assert e.axis_ratio == pytest.approx(0.0)
    assert e.intensity == pytest.approx(1.0)


def test_ellipse_circular():
    e = ellipse_of(np.array([1.0, 1.0j]) / np.sqrt(2))
    assert abs(e.axis_ratio) == pytest.approx(1.0)
    # handedness convention: sign follows Im(ex * conj(ey))
    assert np.sign(e.axis_ratio) == np.sign(np.imag(1.0 * np.conj(1.0j)))
    assert e.psi == 0.0


def test_ellipse_linear_45():
    e = ellipse_of(np.array([1.0, 1.0]) / np.sqrt(2))
    assert e.psi == pytest.approx(np.pi / 4)
    assert e.axis_ratio == pytest.approx(0.0, abs=1e-12)


def test_ellipse_zero_intensity_raises():
    with pytest.raises(ValueError):
        ellipse_of(np.zeros(2, dtype=complex))


@st.composite
def jones_vectors(draw):
    re = st.floats(min_value=-2.0, max_value=2.0)
    v = np.array([complex(draw(re), draw(re)), complex(draw(re), draw(re))])
    if jones_intensity(v) < 1e-2:
        v = v + np.array([1.0, 0.3j])
    return v


@given(jones_vectors(), angles)
def test_ellipse_rotation_covariance(v, phi):
    e0 = ellipse_of(v)
    if 1.0 - abs(e0.axis_ratio) < 1e-3:
        return  # orientation degenerate for (near-)circular states
    e1 = ellipse_of(rotation(phi) @ v)
    dpsi = (e1.psi - e0.psi - phi) % np.pi
    assert min(dpsi, np.pi - dpsi) < 1e-6
    assert e1.axis_ratio == pytest.approx(e0.axis_ratio, abs=1e-9)


@given(jones_vectors(), angles)
@example(np.array([0.875j, 1.0]), 1.0)  # psi = -pi/2 and pi/2 - 3e-16: one orientation
def test_ellipse_global_phase_invariance(v, phase):
    e0 = ellipse_of(v)
    e1 = ellipse_of(np.exp(1j * phase) * v)
    if 1.0 - abs(e0.axis_ratio) > 1e-6:  # psi degenerate for circular states
        dpsi = (e1.psi - e0.psi) % np.pi
        assert min(dpsi, np.pi - dpsi) < 1e-9
    # asin loses precision near the circular boundary, hence the loose abs
    assert e1.axis_ratio == pytest.approx(e0.axis_ratio, abs=1e-6)
    assert e1.intensity == pytest.approx(e0.intensity)
