import math

import numpy as np
import pytest

from conftest import C, quarter_wave_stack, random_mode, random_stack
from green_oracles import simpson_identity
from qplanar.errors import ConfigError, RegimeError
from qplanar.greens import green_kernel, verify_green_identity, wavefun
from qplanar.modes import make_context
from qplanar.scatter import scatter_set
from qplanar.stack import ConstantEps, Layer, Stack, VACUUM


def pair(ctx):
    return scatter_set(ctx, "s"), scatter_set(ctx, "p")


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
    # decaying from the face it leaves: the rightward part has come across the layer
    expected = (ctx.pol_vector("p", 1, +1) + ss.r_right[1] * ctx.pol_vector("p", 1, -1)) * ss.phase[1]
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
    # the reflected part carries the round trip e^{2 i beta d} = -1
    phase = np.exp(1j * ctx.beta[1] * d)
    expected = ctx.pol_vector("s", 0, +1) + (1.0 / 3.0) * ctx.pol_vector("s", 0, +1) * phase ** 2
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
    ss = pair(ctx)
    g = green_kernel(ctx, ss, j=0, jp=0, z=z, zp=zp)
    es = ctx.pol_vector("s", 0, +1)
    ep = ctx.pol_vector("p", 0, +1)
    expected = 0.5j / b * np.exp(1j * b * (z - zp)) * (np.outer(es, es) + np.outer(ep, ep))
    np.testing.assert_allclose(g, expected, rtol=1e-13)
    # mirrored ordering uses the downward waves
    g2 = green_kernel(ctx, ss, j=0, jp=0, z=zp, zp=z)
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
        g1 = green_kernel(fwd, pair(fwd), j=j, jp=jp, z=z, zp=zp)
        g2 = green_kernel(rev, pair(rev), j=jp, jp=j, z=zp, zp=z)
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
        ss = pair(ctx)
        g = green_kernel(ctx, ss, j, jp, z, zp, tie)
        stacked = np.stack([green_kernel(ctx, ss, j, jp, z, float(a), float(t)) for a, t in zip(zp, tie)])
        assert g.shape == (7, 3, 3)
        assert np.abs(g - stacked).max() <= 1e-15 * np.abs(stacked).max(), (trial, j, jp)


def test_far_field_is_outgoing():
    # lossless vacuum outer region, source inside the absorbing layer:
    # the region-0 kernel must be a pure e^{-i beta z} wave (no incoming part)
    st = Stack(VACUUM, (Layer(200e-9, ConstantEps(2 + 0.5j)),), VACUUM)
    ctx = make_context(st, 2e15, 0.4 * 2e15 / C)
    zp = 80e-9
    z1, z2 = -1.0e-6, -3.5e-6
    ss = pair(ctx)
    g1 = green_kernel(ctx, ss, j=0, jp=1, z=z1, zp=zp)
    g2 = green_kernel(ctx, ss, j=0, jp=1, z=z2, zp=zp)
    ratio = np.exp(-1j * ctx.beta[0] * (z2 - z1))
    np.testing.assert_allclose(g2, g1 * ratio, rtol=1e-12)


def test_same_region_jump_matches_theta_discontinuity():
    st = Stack(VACUUM, (Layer(200e-9, ConstantEps(2 + 0.5j)),), VACUUM)
    ctx = make_context(st, 2e15, 3e6)
    z = 90e-9
    eps_z = 1e-15
    ss = pair(ctx)
    above = green_kernel(ctx, ss, j=1, jp=1, z=z + eps_z, zp=z)
    below = green_kernel(ctx, ss, j=1, jp=1, z=z - eps_z, zp=z)
    upper = green_kernel(ctx, ss, j=1, jp=1, z=z, zp=z, tie=1.0)
    lower = green_kernel(ctx, ss, j=1, jp=1, z=z, zp=z, tie=0.0)
    jump_limits = above - below
    jump_exact = upper - lower
    assert np.isfinite(jump_exact).all()
    assert np.abs(jump_exact).max() > 0.0
    assert np.abs(jump_limits - jump_exact).max() < 1e-7 * np.abs(jump_exact).max()
    # the symmetric value is the average of the one-sided ones
    sym = green_kernel(ctx, ss, j=1, jp=1, z=z, zp=z)
    np.testing.assert_allclose(sym, 0.5 * (upper + lower), rtol=1e-14)


GREEN_STACK = Stack(
    ConstantEps(1 + 0.01j),
    (Layer(200e-9, ConstantEps(2 + 0.2j)),),
    ConstantEps(1 + 0.01j),
)

TWO_LAYERS = Stack(
    ConstantEps(1 + 0.03j),
    (Layer(200e-9, ConstantEps(2 + 0.2j)), Layer(120e-9, ConstantEps(4 + 0.6j))),
    ConstantEps(1.5 + 0.02j),
)

METAL_DIELECTRIC_METAL = Stack(
    ConstantEps(1.5 + 0.3j),
    (Layer(40e-9, ConstantEps(-4 + 1j)), Layer(120e-9, ConstantEps(2.5 + 0.2j)),
     Layer(40e-9, ConstantEps(-4 + 1j))),
    ConstantEps(2 + 0.1j),
)

UNIFORM = Stack(ConstantEps(1 + 0.01j), (), ConstantEps(1 + 0.01j))


def oracle_gap(ctx, nodes, **field_points):
    """|closed-form lhs - Simpson lhs| per mode, over the identity's scale."""
    res = verify_green_identity(ctx, **field_points)
    lhs, _, _ = simpson_identity(ctx, nodes_per_layer=nodes, **field_points)
    scale = np.maximum(np.abs(res.lhs).max(axis=(-2, -1)), np.abs(res.rhs).max(axis=(-2, -1)))
    return np.abs(res.lhs - lhs).max(axis=(-2, -1)) / scale


def test_identity_boundary_point():
    ctx = make_context(GREEN_STACK, 2e15, 0.5 * 2e15 / C)
    res = verify_green_identity(ctx, j=0, jp=0, z=0.0, zp=0.0)
    assert res.residual < 1e-6


def test_identity_stronger_absorption_smaller_residual():
    # larger outer eps'' -> faster tail decay -> the oracle at fixed nodes nearer the closed form
    omega = 2e15
    res = []
    for epp in (0.01, 0.1):
        st = Stack(ConstantEps(1 + 1j * epp),
                   (Layer(200e-9, ConstantEps(2 + 0.2j)),),
                   ConstantEps(1 + 1j * epp))
        ctx = make_context(st, omega, 0.5 * omega / C)
        res.append(oracle_gap(ctx, 64))
    assert res[1] < res[0]


def test_identity_uniform_absorbing_space():
    ctx = make_context(UNIFORM, 2e15, 0.3 * 2e15 / C)
    res = verify_green_identity(ctx, j=0, jp=0, z=0.0, zp=0.0)
    assert res.residual < 1e-8


def test_identity_interior_points_multilayer():
    ctx = make_context(TWO_LAYERS, 2e15, 0.7 * 2e15 / C)
    for (j, jp, z, zp) in [(0, 1, -50e-9, 80e-9), (1, 1, 60e-9, 60e-9), (1, 2, 100e-9, 50e-9)]:
        res = verify_green_identity(ctx, j=j, jp=jp, z=z, zp=zp)
        assert res.residual < 1e-8, (j, jp, res.residual)


def test_identity_convergence_order_at_least_two():
    # the Simpson oracle converges to the closed form
    ctx = make_context(GREEN_STACK, 2e15, 0.5 * 2e15 / C)
    gaps = [oracle_gap(ctx, nodes) for nodes in (26, 52, 104)]
    orders = [math.log2(gaps[i] / gaps[i + 1]) for i in range(2)]
    assert all(o >= 1.9 for o in orders), (gaps, orders)


def test_identity_requires_absorbing_outer_media():
    st = Stack(VACUUM, (Layer(200e-9, ConstantEps(2 + 0.2j)),), VACUUM)
    ctx = make_context(st, 2e15, 1e6)
    with pytest.raises(RegimeError, match="Im eps"):
        verify_green_identity(ctx)


def field_points(stack):
    """(j, jp, z, zp): coincident at the origin, inside a layer and in the far half-space;
    distinct in one layer, across regions and on both sides of an interface."""
    n, d1 = stack.n, (stack.thickness(1) if stack.n > 1 else None)
    points = [(0, 0, 0.0, 0.0), (0, n, -40e-9, 30e-9), (n, n, 50e-9, 50e-9), (n, 0, 0.0, -20e-9)]
    if d1 is not None:
        points += [(1, 1, 0.3 * d1, 0.3 * d1), (1, 1, 0.25 * d1, 0.75 * d1), (0, 1, -50e-9, 0.4 * d1),
                   (1, 2, d1, 0.0), (2, 1, 0.0, d1), (1, 1, d1, d1), (1, 0, 0.0, 0.0)]
    return points


@pytest.mark.parametrize("stack", [GREEN_STACK, TWO_LAYERS, METAL_DIELECTRIC_METAL, UNIFORM],
                         ids=["one-layer", "two-layers", "metal-dielectric-metal", "uniform"])
def test_closed_form_matches_the_simpson_oracle(stack):
    omega = np.repeat([1.2e15, 2e15], 4)
    ctx = make_context(stack, omega, np.tile([0.0, 0.6, 1.1, 1.6], 2) * omega / C)
    for j, jp, z, zp in field_points(stack):
        gap = oracle_gap(ctx, 2000, j=j, jp=jp, z=z, zp=zp)
        assert np.all(gap <= 1e-10), ((j, jp, z, zp), gap.max())


@pytest.mark.parametrize("stack", [GREEN_STACK, METAL_DIELECTRIC_METAL])
def test_identity_at_coincident_points_matches_both_factor_evaluation(stack):
    omega = np.repeat([1.2e15, 2e15, 2.8e15], 4)
    ctx = make_context(stack, omega, np.tile([0.0, 0.6, 1.1, 1.6], 3) * omega / C)
    res = verify_green_identity(ctx)
    lhs, rhs, residual = simpson_identity(ctx, nodes_per_layer=2000)
    scale = np.maximum(np.abs(lhs).max(axis=(-2, -1)), np.abs(rhs).max(axis=(-2, -1)))
    assert np.all(np.abs(res.lhs - lhs).max(axis=(-2, -1)) <= 1e-10 * scale)
    assert np.all(np.abs(res.rhs - rhs).max(axis=(-2, -1)) <= 1e-14 * scale)
    assert np.all(np.abs(res.residual - residual) <= 1e-10)


def test_identity_at_distinct_points_evaluates_both_factors(monkeypatch):
    import qplanar.greens

    fields, kernels = [], []
    real_panel, real_kernel = qplanar.greens._panel, qplanar.greens.green_kernel

    def counting_panel(ctx, pair, j, z, *args):
        fields.append((j, z))
        return real_panel(ctx, pair, j, z, *args)

    def counting_kernel(ctx, ss, j, jp, z, zp, tie=0.5):
        kernels.append((j, z))
        return real_kernel(ctx, ss, j, jp, z, zp, tie)

    monkeypatch.setattr(qplanar.greens, "_panel", counting_panel)
    monkeypatch.setattr(qplanar.greens, "green_kernel", counting_kernel)
    clad = ConstantEps(1 + 0.03j)
    st = Stack(clad, (Layer(200e-9, ConstantEps(2 + 0.2j)),), clad)
    ctx = make_context(st, 2e15, 0.7 * 2e15 / C)
    res = verify_green_identity(ctx, j=0, jp=1, z=-50e-9, zp=80e-9)
    assert res.residual < 1e-8
    # one factor per field point at each panel and tail, and g and g_rev
    assert fields.count((0, -50e-9)) == fields.count((1, 80e-9)) > 1
    assert len(fields) == 2 * fields.count((0, -50e-9))
    assert kernels == [(0, -50e-9), (1, 80e-9)]


THICK_SLABS = {
    "1um-dielectric": (1e-6, 4 + 0.01j, 2 + 0.01j),
    "10um-dielectric": (10e-6, 4 + 0.01j, 2 + 0.01j),
    "100um-dielectric": (100e-6, 4 + 0.01j, 2 + 0.01j),
    "4um-metal": (4e-6, -10 + 1j, 1 + 0.01j),
    "40um-metal": (40e-6, -10 + 1j, 1 + 0.01j),
    "1mm-metal": (1e-3, -10 + 1j, 1 + 0.01j),
}


@pytest.mark.parametrize("slab", sorted(THICK_SLABS))
def test_identity_holds_at_any_thickness(slab):
    # Before the closed form these read FAIL at up to 1.9e-3 on 200 Simpson nodes, or NaN
    # once e^{-beta'' d} underflowed; a RuntimeWarning fails the test.
    d, eps, far = THICK_SLABS[slab]
    st = Stack(ConstantEps(1 + 0.01j), (Layer(d, ConstantEps(eps)),), ConstantEps(far))
    ctx = make_context(st, 2e15, np.array([0.0, 0.5, 1.2]) * 2e15 / C)
    for j, jp, z, zp in [(0, 0, 0.0, 0.0), (1, 1, d / 2, d / 2), (0, 2, -1e-7, 1e-7), (1, 1, 0.0, d)]:
        res = verify_green_identity(ctx, j=j, jp=jp, z=z, zp=zp)
        assert np.all(np.isfinite(res.lhs)) and np.all(np.isfinite(res.rhs))
        assert np.all(res.residual <= 1e-12), ((j, jp, z, zp), res.residual)
