import math

import numpy as np
import pytest

from conftest import C, quarter_wave_stack, random_mode, random_stack
from qplanar.errors import ConfigError, RegimeError
from qplanar.greens import green_kernel, verify_green_identity, wavefun
from qplanar.modes import make_context
from qplanar.scatter import scatter_set
from qplanar.stack import ConstantEps, Layer, Stack, VACUUM


def uniform_ctx(eps, omega=2e15, k_frac=0.6):
    st = Stack(ConstantEps(eps), (), ConstantEps(eps))
    return make_context(st, omega, k_frac * omega / C)


def test_wavefun_uniform_vacuum_is_plane_wave():
    ctx = uniform_ctx(1.0 + 0.0j, k_frac=0.3)
    ss = scatter_set(ctx, q="s")
    z = -0.7e-6
    v = wavefun(ctx, ss, 0, ">", z)
    expected = ctx.pol_vector("s", 0, +1) * np.exp(1j * ctx.beta[0] * z)
    np.testing.assert_allclose(v, expected, rtol=1e-14)


def test_wavefun_at_top_interface():
    st = Stack(VACUUM, (Layer(150e-9, ConstantEps(3 + 0.2j)),), VACUUM)
    ctx = make_context(st, 2e15, 2e6)
    ss = scatter_set(ctx, q="p")
    d = st.thickness(1)
    v = wavefun(ctx, ss, 1, ">", d)
    expected = ctx.pol_vector("p", 1, +1) + ss.r_right[1] * ctx.pol_vector("p", 1, -1)
    np.testing.assert_allclose(v, expected, rtol=1e-14)


def test_wavefun_quarter_wave_bottom():
    omega = 2e15
    st = quarter_wave_stack(omega)
    ctx = make_context(st, omega, 0.0)
    ss = scatter_set(ctx, q="s")
    # r seen from inside the slab toward the far vacuum is (2-1)/(2+1) = 1/3
    assert ss.r_right[1] == pytest.approx(1.0 / 3.0, abs=1e-14)
    d = st.thickness(1)
    v = wavefun(ctx, ss, 1, ">", 0.0)
    phase = np.exp(1j * ctx.beta[1] * (-d))
    expected = ctx.pol_vector("s", 0, +1) * phase + (1.0 / 3.0) * ctx.pol_vector("s", 0, +1) / phase
    np.testing.assert_allclose(v, expected, rtol=1e-12)


def test_wavefun_rejects_out_of_region():
    ctx = uniform_ctx(2.0 + 0.1j)
    ss = scatter_set(ctx, q="s")
    with pytest.raises(ConfigError):
        wavefun(ctx, ss, 0, ">", +1e-9)


def test_wavefun_rejects_array_with_one_point_outside():
    st = Stack(VACUUM, (Layer(200e-9, ConstantEps(2 + 0.5j)),), VACUUM)
    ctx = make_context(st, 2e15, 3e6)
    ss = scatter_set(ctx, q="p")
    assert wavefun(ctx, ss, 1, "<", np.linspace(0.0, 200e-9, 5)).shape == (5, 3)
    for bad in (200.001e-9, -1e-12, np.nan):
        with pytest.raises(ConfigError):
            wavefun(ctx, ss, 1, "<", np.array([[0.0, 50e-9], [bad, 100e-9]]))


def test_homogeneous_medium_kernel():
    eps = 1.8 + 0.25j
    ctx = uniform_ctx(eps)
    b = ctx.beta[0]
    z, zp = -50e-9, -180e-9
    g = green_kernel(ctx, j=0, jp=0, z=z, zp=zp)
    es = ctx.pol_vector("s", 0, +1)
    ep = ctx.pol_vector("p", 0, +1)
    expected = 0.5j / b * np.exp(1j * b * (z - zp)) * (np.outer(es, es) + np.outer(ep, ep))
    np.testing.assert_allclose(g, expected, rtol=1e-13)
    # mirrored ordering uses the downward waves
    g2 = green_kernel(ctx, j=0, jp=0, z=zp, zp=z)
    em = ctx.pol_vector("p", 0, -1)
    expected2 = 0.5j / b * np.exp(1j * b * (z - zp)) * (np.outer(es, es) + np.outer(em, em))
    np.testing.assert_allclose(g2, expected2, rtol=1e-13)


def test_reciprocity_randomized():
    rng = np.random.default_rng(8)
    for _ in range(60):
        st = random_stack(rng)
        omega, k, _ = random_mode(rng)
        fwd = make_context(st, omega, k, khat=(1, 0))
        rev = make_context(st, omega, k, khat=(-1, 0))
        n = st.n
        j = int(rng.integers(0, n + 1))
        jp = int(rng.integers(0, n + 1))

        def coord(region):
            if region == 0:
                return -float(rng.uniform(0, 300e-9))
            if region == n:
                return float(rng.uniform(0, 300e-9))
            return float(rng.uniform(0, st.thickness(region)))

        z, zp = coord(j), coord(jp)
        g1 = green_kernel(fwd, j=j, jp=jp, z=z, zp=zp)
        g2 = green_kernel(rev, j=jp, jp=j, z=zp, zp=z)
        scale = np.abs(g1).max()
        assert np.abs(g1 - g2.T).max() < 1e-12 * scale


def test_kernel_on_node_array_matches_scalar_calls():
    rng = np.random.default_rng(21)
    for trial in range(40):
        st = random_stack(rng)
        omega, k, _ = random_mode(rng)
        ctx = make_context(st, omega, k)
        n = st.n
        j = int(rng.integers(0, n + 1))
        jp = j if trial % 2 == 0 else int(rng.integers(0, n + 1))

        def coords(region, size):
            if region == 0:
                return -rng.uniform(0, 300e-9, size)
            if region == n:
                return rng.uniform(0, 300e-9, size)
            return rng.uniform(0, st.thickness(region), size)

        z = float(coords(j, 1)[0])
        zp = coords(jp, 7)
        if jp == j:
            zp[3] = z  # a node on the field point, where tie is read
        tie = rng.choice([0.0, 0.5, 1.0], size=7)
        g = green_kernel(ctx, j, jp, z, zp, tie)
        stacked = np.stack([green_kernel(ctx, j, jp, z, float(a), float(t)) for a, t in zip(zp, tie)])
        assert g.shape == (7, 3, 3)
        assert np.abs(g - stacked).max() <= 1e-15 * np.abs(stacked).max(), (trial, j, jp)


def test_far_field_is_outgoing():
    # lossless vacuum outer region, source inside the absorbing layer:
    # the region-0 kernel must be a pure e^{-i beta z} wave (no incoming part)
    st = Stack(VACUUM, (Layer(200e-9, ConstantEps(2 + 0.5j)),), VACUUM)
    ctx = make_context(st, 2e15, 0.4 * 2e15 / C)
    zp = 80e-9
    z1, z2 = -1.0e-6, -3.5e-6
    g1 = green_kernel(ctx, j=0, jp=1, z=z1, zp=zp)
    g2 = green_kernel(ctx, j=0, jp=1, z=z2, zp=zp)
    ratio = np.exp(-1j * ctx.beta[0] * (z2 - z1))
    np.testing.assert_allclose(g2, g1 * ratio, rtol=1e-12)


def test_same_region_jump_matches_theta_discontinuity():
    st = Stack(VACUUM, (Layer(200e-9, ConstantEps(2 + 0.5j)),), VACUUM)
    ctx = make_context(st, 2e15, 3e6)
    z = 90e-9
    eps_z = 1e-15
    above = green_kernel(ctx, j=1, jp=1, z=z + eps_z, zp=z)
    below = green_kernel(ctx, j=1, jp=1, z=z - eps_z, zp=z)
    upper = green_kernel(ctx, j=1, jp=1, z=z, zp=z, tie=1.0)
    lower = green_kernel(ctx, j=1, jp=1, z=z, zp=z, tie=0.0)
    jump_limits = above - below
    jump_exact = upper - lower
    assert np.isfinite(jump_exact).all()
    assert np.abs(jump_exact).max() > 0.0
    assert np.abs(jump_limits - jump_exact).max() < 1e-7 * np.abs(jump_exact).max()
    # the symmetric value is the average of the one-sided ones
    sym = green_kernel(ctx, j=1, jp=1, z=z, zp=z)
    np.testing.assert_allclose(sym, 0.5 * (upper + lower), rtol=1e-14)


GREEN_STACK = Stack(
    ConstantEps(1 + 0.01j),
    (Layer(200e-9, ConstantEps(2 + 0.2j)),),
    ConstantEps(1 + 0.01j),
)


def test_identity_boundary_point():
    ctx = make_context(GREEN_STACK, 2e15, 0.5 * 2e15 / C)
    res = verify_green_identity(ctx, j=0, jp=0, z=0.0, zp=0.0, nodes_per_layer=200)
    assert res.residual < 1e-6


def test_identity_stronger_absorption_smaller_residual():
    # larger outer eps'' -> faster tail decay -> smaller residual at fixed nodes
    omega = 2e15
    res = []
    for epp in (0.01, 0.1):
        st = Stack(ConstantEps(1 + 1j * epp),
                   (Layer(200e-9, ConstantEps(2 + 0.2j)),),
                   ConstantEps(1 + 1j * epp))
        ctx = make_context(st, omega, 0.5 * omega / C)
        res.append(verify_green_identity(ctx, nodes_per_layer=64).residual)
    assert res[1] < res[0]


def test_identity_uniform_absorbing_space():
    st = Stack(ConstantEps(1 + 0.01j), (), ConstantEps(1 + 0.01j))
    ctx = make_context(st, 2e15, 0.3 * 2e15 / C)
    res = verify_green_identity(ctx, j=0, jp=0, z=0.0, zp=0.0)
    assert res.residual < 1e-8


def test_identity_interior_points_multilayer():
    st = Stack(
        ConstantEps(1 + 0.03j),
        (Layer(200e-9, ConstantEps(2 + 0.2j)), Layer(120e-9, ConstantEps(4 + 0.6j))),
        ConstantEps(1.5 + 0.02j),
    )
    ctx = make_context(st, 2e15, 0.7 * 2e15 / C)
    for (j, jp, z, zp) in [(0, 1, -50e-9, 80e-9), (1, 1, 60e-9, 60e-9), (1, 2, 100e-9, 50e-9)]:
        res = verify_green_identity(ctx, j=j, jp=jp, z=z, zp=zp, nodes_per_layer=200)
        assert res.residual < 1e-8, (j, jp, res.residual)


def test_identity_convergence_order_at_least_two():
    ctx = make_context(GREEN_STACK, 2e15, 0.5 * 2e15 / C)
    residuals = [
        verify_green_identity(ctx, nodes_per_layer=nodes).residual
        for nodes in (26, 52, 104)
    ]
    orders = [math.log2(residuals[i] / residuals[i + 1]) for i in range(2)]
    assert all(o >= 1.9 for o in orders), (residuals, orders)


def test_identity_requires_absorbing_outer_media():
    st = Stack(VACUUM, (Layer(200e-9, ConstantEps(2 + 0.2j)),), VACUUM)
    ctx = make_context(st, 2e15, 1e6)
    with pytest.raises(RegimeError, match="Im eps"):
        verify_green_identity(ctx)
