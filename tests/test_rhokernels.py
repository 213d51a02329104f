import math

import numpy as np
import pytest

from conftest import C
from kernel_oracles import forward_modes, kspace_reference
from qplanar.errors import AccuracyError, ConfigError
from qplanar.rhokernels import GaussianWindow, kernel_radial
from qplanar.stack import ConstantEps, Layer, Stack, VACUUM

OMEGA = 2e15
K0 = OMEGA / C


def absorbing_env_stack():
    outer = ConstantEps(1.5 + 1.0j)
    return Stack(outer, (Layer(200e-9, ConstantEps(2 + 0.5j)),), outer)


def test_empty_stack_reflection_kernel_is_zero():
    st = Stack(VACUUM, (), VACUUM)
    win = GaussianWindow(k_w=1.5 * K0)
    rho = np.linspace(0.0, 8.0 / K0, 40)
    for kind in ("R0n", "Rn0"):
        field = kernel_radial(st, OMEGA, kind, win, rho)
        assert np.abs(field.tensor).max() == 0.0


def test_empty_stack_transmission_s_part_closed_form():
    # in-plane trace of the TE part of the free propagation kernel with a
    # Gaussian window: (k_w^2 / 2 pi) exp(-k_w^2 rho^2 / 2)
    st = Stack(VACUUM, (), VACUUM)
    win = GaussianWindow(k_w=1.2 * K0)
    rho = np.linspace(0.0, 6.0 / win.k_w, 60)
    field = kernel_radial(st, OMEGA, "T0n", win, rho)
    s_tensor = field.mode_profiles_q[0].sum(axis=0)
    trace = s_tensor[:, 0, 0] + s_tensor[:, 1, 1]
    expected = win.k_w ** 2 / (2.0 * math.pi) * np.exp(-win.k_w ** 2 * rho ** 2 / 2.0)
    np.testing.assert_allclose(trace.real, expected, rtol=1e-10, atol=1e-12 * expected[0])
    np.testing.assert_allclose(trace.imag, 0.0, atol=1e-12 * expected[0])


def test_s_part_is_transverse():
    field = kernel_radial(
        absorbing_env_stack(), OMEGA, "R0n", GaussianWindow(k_w=1.5 * K0),
        np.linspace(0.0, 6.0 / K0, 25),
    )
    s_part = field.mode_profiles_q[0]
    assert np.abs(s_part[..., 2, :]).max() == 0.0
    assert np.abs(s_part[..., :, 2]).max() == 0.0
    # the TM part carries the z rows/columns
    p_part = field.mode_profiles_q[1]
    assert np.abs(p_part[..., 2, :]).max() > 0.0


def test_round_trip_recovers_windowed_coefficients():
    st = absorbing_env_stack()
    win = GaussianWindow(k_w=1.5 * K0)
    rho = np.linspace(0.0, 34.0 / K0, 3401)
    field = kernel_radial(st, OMEGA, "R0n", win, rho)
    ks = np.linspace(0.02 * K0, 2.5 * K0, 20)
    recovered = forward_modes(field, ks)
    reference = kspace_reference(st, OMEGA, "R0n", win, ks)
    err = np.abs(recovered - reference).max() / np.abs(reference).max()
    assert err < 1e-4, err


def test_rotational_covariance():
    st = absorbing_env_stack()
    win = GaussianWindow(k_w=1.5 * K0)
    rho = np.linspace(0.0, 5.0 / K0, 12)
    field = kernel_radial(st, OMEGA, "T0n", win, rho, phi_dir=0.0)
    rotated = field.tensor_at(math.pi / 2.0)
    rot = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    expected = np.einsum("ab,rbc,dc->rad", rot, field.tensor, rot)
    np.testing.assert_allclose(rotated, expected, rtol=1e-11, atol=1e-13 * np.abs(field.tensor).max())


def test_phi_kernel_kind():
    st = absorbing_env_stack()
    win = GaussianWindow(k_w=1.2 * K0)
    rho = np.linspace(0.0, 4.0 / K0, 8)
    field = kernel_radial(st, OMEGA, "Phi0+", win, rho, layer=1)
    assert field.tensor.shape == (8, 3, 3)
    assert np.abs(field.tensor).max() > 0.0
    with pytest.raises(ConfigError):
        kernel_radial(st, OMEGA, "Phi0+", win, rho, layer=0)


def test_window_refinement_converged():
    # the adaptive loop must have seen a sub-1e-6 change between doublings;
    # an impossible tolerance with no refinement budget raises the accuracy error
    st = absorbing_env_stack()
    win = GaussianWindow(k_w=1.5 * K0)
    rho = np.linspace(0.0, 5.0 / K0, 10)
    kernel_radial(st, OMEGA, "R0n", win, rho, rel_tol=1e-6)
    with pytest.raises(AccuracyError, match="did not converge"):
        kernel_radial(st, OMEGA, "R0n", win, rho, rel_tol=1e-30, max_doublings=1)


def test_bad_inputs():
    st = absorbing_env_stack()
    win = GaussianWindow(k_w=1.5 * K0)
    with pytest.raises(ConfigError):
        kernel_radial(st, OMEGA, "nope", win, np.array([0.0, 1e-7]))
    with pytest.raises(ConfigError):
        kernel_radial(st, OMEGA, "R0n", win, np.array([-1e-7]))
    with pytest.raises(ConfigError):
        GaussianWindow(k_w=-1.0)
