import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from plasmon_biphoton.jones import ellipse_arrays, linear_pol

from oracles import rotation

angles = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


def ellipse(v):
    """(intensity, psi, axis_ratio) of one Jones vector, as floats."""
    return tuple(float(x) for x in ellipse_arrays(v[0], v[1]))


def test_rotation_zero_is_identity():
    assert np.allclose(rotation(0.0), np.eye(2))


def test_rotation_quarter_turn():
    assert np.allclose(rotation(np.pi / 2), [[0, -1], [1, 0]], atol=1e-15)


def test_rotation_inverse():
    assert np.allclose(rotation(0.3) @ rotation(-0.3), np.eye(2), atol=1e-15)


@given(angles, angles)
def test_rotation_additivity(a, b):
    assert np.allclose(rotation(a) @ rotation(b), rotation(a + b), atol=1e-12)


def test_ellipse_linear_x():
    # x-polarized field and the zero field, which gets psi 0 and ratio 0
    intensity, psi, ratio = ellipse_arrays(np.array([1.0, 0.0]), np.array([0.0, 0.0]))
    assert np.array_equal(intensity, [1.0, 0.0])
    assert np.array_equal(psi, [0.0, 0.0])
    assert np.array_equal(ratio, [0.0, 0.0])


def test_ellipse_circular():
    _, psi, ratio = ellipse(np.array([1.0, 1.0j]) / np.sqrt(2))
    assert abs(ratio) == pytest.approx(1.0)
    # handedness convention: sign follows Im(ex * conj(ey))
    assert np.sign(ratio) == np.sign(np.imag(1.0 * np.conj(1.0j)))
    assert psi == 0.0


def test_ellipse_linear_45():
    _, psi, ratio = ellipse(np.array([1.0, 1.0]) / np.sqrt(2))
    assert psi == pytest.approx(np.pi / 4)
    assert ratio == pytest.approx(0.0, abs=1e-12)


@st.composite
def jones_vectors(draw):
    re = st.floats(min_value=-2.0, max_value=2.0)
    v = np.array([complex(draw(re), draw(re)), complex(draw(re), draw(re))])
    if np.sum(np.abs(v) ** 2) < 1e-2:
        v = v + np.array([1.0, 0.3j])
    return v


@given(jones_vectors(), angles)
def test_ellipse_rotation_covariance(v, phi):
    _, psi0, ratio0 = ellipse(v)
    if 1.0 - abs(ratio0) < 1e-3:
        return  # orientation degenerate for (near-)circular states
    _, psi1, ratio1 = ellipse(rotation(phi) @ v)
    dpsi = (psi1 - psi0 - phi) % np.pi
    assert min(dpsi, np.pi - dpsi) < 1e-6
    assert ratio1 == pytest.approx(ratio0, abs=1e-9)


@given(jones_vectors(), angles)
@example(np.array([0.875j, 1.0]), 1.0)  # psi = -pi/2 and pi/2 - 3e-16: one orientation
def test_ellipse_global_phase_invariance(v, phase):
    intensity0, psi0, ratio0 = ellipse(v)
    intensity1, psi1, ratio1 = ellipse(np.exp(1j * phase) * v)
    if 1.0 - abs(ratio0) > 1e-6:  # psi degenerate for circular states
        dpsi = (psi1 - psi0) % np.pi
        assert min(dpsi, np.pi - dpsi) < 1e-9
    # asin loses precision near the circular boundary, hence the loose abs
    assert ratio1 == pytest.approx(ratio0, abs=1e-6)
    assert intensity1 == pytest.approx(intensity0)
