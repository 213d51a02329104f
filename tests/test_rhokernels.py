import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import jv

from conftest import C
from kernel_oracles import accumulate_per_node, forward_modes, kspace_reference
from qplanar.errors import AccuracyError, ConfigError
from qplanar.rhokernels import (
    KERNEL_KINDS, GaussianWindow, _accumulate, _bessel_j012, _panel_edges, kernel_radial,
)
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
    field = kernel_radial(st, OMEGA, "T0n", win, rho)
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
    for layer in (0, st.n):
        with pytest.raises(ConfigError):
            kernel_radial(st, OMEGA, "Phi0+", win, rho, layer=layer)


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


@pytest.mark.parametrize("max_doublings", [0, -1])
def test_max_doublings_below_one_is_config_error(max_doublings):
    with pytest.raises(ConfigError, match="max_doublings"):
        kernel_radial(absorbing_env_stack(), OMEGA, "R0n", GaussianWindow(k_w=1.5 * K0), np.array([0.0]),
                      max_doublings=max_doublings)


@pytest.mark.parametrize("rel_tol", [math.nan, math.inf, 0.0, -1e-7])
def test_bad_rel_tol_is_config_error(rel_tol):
    with pytest.raises(ConfigError, match="rel_tol"):
        kernel_radial(absorbing_env_stack(), OMEGA, "R0n", GaussianWindow(k_w=1.5 * K0), np.array([0.0]),
                      rel_tol=rel_tol)


def test_convergence_record():
    rel_tol = 1e-7
    field = kernel_radial(absorbing_env_stack(), OMEGA, "R0n", GaussianWindow(k_w=1.5 * K0),
                          np.linspace(0.0, 5.0 / K0, 10), rel_tol=rel_tol)
    assert 0.0 <= field.last_change < rel_tol
    m = round(math.log2(field.nodes_per_panel / 24))
    assert m >= 1 and field.nodes_per_panel == 24 * 2 ** m


def test_bessel_j2_recurrence_matches_jv():
    # x = 0, subnormal, and small x, where 2 J_1 / x - J_0 cancels or loses bits
    small = np.array([0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-160, 1e-20, 1e-8,
                      1e-4, 9.99e-4])
    b2 = _bessel_j012(small)[2]
    assert b2[0] == 0.0
    np.testing.assert_allclose(b2, jv(2, small), rtol=1e-13, atol=1e-300)
    x = np.concatenate([np.linspace(1e-3, 2e-3, 101), np.linspace(2e-3, 150.0, 2001)])
    b0, b1, b2 = _bessel_j012(x)
    np.testing.assert_allclose(b0, jv(0, x), rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(b1, jv(1, x), rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(b2, jv(2, x), rtol=0.0, atol=1e-15)


_CLADDING = st.one_of(
    st.builds(complex, st.floats(1.0, 3.0), st.just(0.0)),     # lossless: a branch point
    st.builds(complex, st.floats(1.0, 3.0), st.floats(0.01, 1.0)),
)
_LAYER = st.builds(
    Layer, st.floats(20e-9, 300e-9),
    st.builds(ConstantEps, st.builds(complex, st.floats(1.0, 6.0), st.floats(0.0, 1.0))),
)


@st.composite
def kernel_cases(draw):
    kind = draw(st.sampled_from(KERNEL_KINDS))
    layers = draw(st.lists(_LAYER, min_size=1 if kind.startswith("Phi") else 0, max_size=3))
    stack = Stack(ConstantEps(draw(_CLADDING)), tuple(layers), ConstantEps(draw(_CLADDING)))
    layer = draw(st.integers(1, len(layers))) if kind.startswith("Phi") else 0
    window = GaussianWindow(k_w=draw(st.floats(0.5, 2.0)) * K0)
    # rho = 0, k rho ~ 1e-8 across the k range, and two ordinary radii
    rho = np.array([0.0, 1e-8 / window.k_max, 1e-8 / window.k_w, 0.7 / window.k_w, 4.0 / window.k_w])
    return stack, kind, layer, window, rho, draw(st.sampled_from([24, 64, 96, 160]))


@settings(max_examples=25, deadline=None)
@given(kernel_cases())
def test_block_accumulation_matches_per_node_oracle(case):
    stack, kind, layer, window, rho, n_nodes = case
    edges = _panel_edges(stack, OMEGA, window)
    got = _accumulate(stack, OMEGA, kind, layer, window, rho, edges, n_nodes)
    ref = accumulate_per_node(stack, OMEGA, kind, layer, window, rho, edges, n_nodes)
    assert np.all(np.isfinite(got))
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
