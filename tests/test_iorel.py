import numpy as np
import pytest

from conftest import C, quarter_wave_stack, random_mode, random_stack
from qplanar.errors import ConfigError
from qplanar.iorel import (
    MU0,
    AmplitudeVector,
    SourceBlock,
    field_outside,
    io_matrix,
    mean_out,
)
from qplanar.modes import make_context
from qplanar.scatter import scatter_set
from qplanar.stack import ConstantEps, Layer, Stack, VACUUM


def test_empty_stack_pass_through():
    st = Stack(VACUUM, (), VACUUM)
    ctx = make_context(st, 2e15, 1e6)
    io = io_matrix(scatter_set(ctx, "s"))
    np.testing.assert_array_equal(io.s_matrix, [[0.0, 1.0], [1.0, 0.0]])
    assert io.phi.shape == (0, 2, 2)


def test_phi_ratio_structure():
    rng = np.random.default_rng(2)
    for _ in range(100):
        st = random_stack(rng)
        omega, k, q = random_mode(rng)
        ctx = make_context(st, omega, k)
        ss = scatter_set(ctx, q)
        io = io_matrix(ss)
        # the scattering block IS the whole-stack coefficient set
        np.testing.assert_array_equal(io.s_matrix, [[ss.r_0n, ss.t_n0], [ss.t_0n, ss.r_n0]])
        # E+ at z = d and E- at z = 0: each opposite-column ratio is one layer flight and a
        # reflection, e^{i beta d} r
        for j, ((p0p, p0m), (pnp, pnm)) in enumerate(io.phi, start=1):
            if abs(ss.r_left[j]) > 1e-12:
                assert pnp / pnm == pytest.approx(1.0 / (ss.r_left[j] * ss.phase[j]), rel=1e-10)
            if abs(ss.r_right[j]) > 1e-12:
                assert p0m / p0p == pytest.approx(1.0 / (ss.r_right[j] * ss.phase[j]), rel=1e-10)


def test_io_matrix_quarter_wave_magnitudes():
    omega = 2e15
    st = quarter_wave_stack(omega)
    ctx = make_context(st, omega, 0.0)
    io = io_matrix(scatter_set(ctx, "s"))
    assert abs(io.s_matrix[0][0]) == pytest.approx(0.6, abs=1e-12)
    assert abs(io.s_matrix[1][0]) ** 2 == pytest.approx(0.64, abs=1e-12)


def test_mean_out_scattering_only():
    st = Stack(VACUUM, (Layer(130e-9, ConstantEps(2 + 0.3j)),), VACUUM)
    ctx = make_context(st, 2e15, 2e6)
    io = io_matrix(scatter_set(ctx, "p"))
    out0, outn = mean_out(io, AmplitudeVector(in0=1.0, inN=0.0, intra=((0.0, 0.0),)))
    assert out0 == io.s_matrix[0][0]
    assert outn == io.s_matrix[1][0]


def test_mean_out_interior_source_only():
    st = Stack(VACUUM, (Layer(130e-9, ConstantEps(2 + 0.3j)),), VACUUM)
    ctx = make_context(st, 2e15, 2e6)
    io = io_matrix(scatter_set(ctx, "s"))
    ep, em = 0.8 - 0.1j, 0.2 + 0.4j
    out0, outn = mean_out(io, AmplitudeVector(intra=((ep, em),)))
    (p0p, p0m), (pnp, pnm) = io.phi[0]
    assert out0 == pytest.approx(p0p * ep + p0m * em, rel=1e-14)
    assert outn == pytest.approx(pnp * ep + pnm * em, rel=1e-14)


def test_mean_out_zero_and_linearity():
    st = Stack(VACUUM, (Layer(100e-9, ConstantEps(3 + 0.2j)),), VACUUM)
    ctx = make_context(st, 2e15, 1e6)
    io = io_matrix(scatter_set(ctx, "s"))
    assert mean_out(io, AmplitudeVector(intra=((0.0, 0.0),))) == (0.0, 0.0)
    a = AmplitudeVector(in0=0.3 + 0.1j, inN=-0.4j, intra=((0.2, 0.7 - 0.2j),))
    b = AmplitudeVector(in0=-1.0, inN=0.5, intra=((0.9j, 0.1),))
    lam = 0.7 - 1.3j
    combo = AmplitudeVector(
        in0=a.in0 + lam * b.in0,
        inN=a.inN + lam * b.inN,
        intra=tuple(
            (pa + lam * pb, ma + lam * mb)
            for (pa, ma), (pb, mb) in zip(a.intra, b.intra)
        ),
    )
    oa = mean_out(io, a)
    ob = mean_out(io, b)
    oc = mean_out(io, combo)
    assert oc[0] == pytest.approx(oa[0] + lam * ob[0], rel=1e-12)
    assert oc[1] == pytest.approx(oa[1] + lam * ob[1], rel=1e-12)


def test_mean_out_dimension_mismatch():
    st = Stack(VACUUM, (Layer(100e-9, ConstantEps(3 + 0.2j)),), VACUUM)
    ctx = make_context(st, 2e15, 1e6)
    io = io_matrix(scatter_set(ctx, "s"))
    with pytest.raises(ConfigError):
        mean_out(io, AmplitudeVector(in0=1.0))


def test_field_outside_homogeneous_transport():
    st = Stack(VACUUM, (Layer(100e-9, ConstantEps(2 + 0.5j)),), VACUUM)
    ctx = make_context(st, 2e15, 1e6)
    e_out = 0.3 - 0.8j
    z = -2.2e-6
    _, val = field_outside(ctx, 0, z, "s", e_out_boundary=e_out)
    assert val == pytest.approx(np.exp(-1j * ctx.beta[0] * z) * e_out, rel=1e-14)


def test_field_outside_evanescent_decays_away_from_plate():
    omega = 2e15
    st = Stack(VACUUM, (Layer(100e-9, ConstantEps(2 + 0.5j)),), VACUUM)
    ctx = make_context(st, omega, 1.6 * omega / C)
    assert ctx.beta[0].real == 0.0
    vals = []
    for z in (-0.2e-6, -0.5e-6, -1.0e-6):
        _, v = field_outside(ctx, 0, z, "s", e_out_boundary=1.0)
        vals.append(abs(v))
    assert vals[0] > vals[1] > vals[2]


def test_field_outside_boundary_amplitudes_exact():
    st = Stack(VACUUM, (Layer(100e-9, ConstantEps(2 + 0.5j)),), VACUUM)
    ctx = make_context(st, 2e15, 3e6)
    blk = SourceBlock(-4e-7, -1e-7, (0.2 + 0.1j, 0.3, -0.4j))
    got = field_outside(ctx, 0, 0.0, "p", 0.5 + 0.5j, -0.25j, [blk])
    assert got == (0.5 + 0.5j, -0.25j)


def _rk4(f, y0, z0, z1, n):
    h = (z1 - z0) / n
    y, z = y0, z0
    for _ in range(n):
        k1 = f(z, y)
        k2 = f(z + h / 2, y + h / 2 * k1)
        k3 = f(z + h / 2, y + h / 2 * k2)
        k4 = f(z + h, y + h * k3)
        y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        z += h
    return y


@pytest.mark.parametrize("side_is_left", [True, False])
@pytest.mark.parametrize("q", ["s", "p"])
def test_field_outside_matches_ode_integration(side_is_left, q):
    st = Stack(ConstantEps(1.3 + 0.1j), (Layer(100e-9, ConstantEps(2 + 0.3j)),), ConstantEps(1.1 + 0.02j))
    omega = 2e15
    ctx = make_context(st, omega, 0.6 * omega / C)
    side = 0 if side_is_left else ctx.n
    beta = ctx.beta[side]
    amp = MU0 * omega / (2.0 * beta)
    j0 = np.array([0.3 + 0.1j, -0.2j, 0.15 + 0.05j])
    L = 2.5e-7
    e_in0, e_out0 = 0.7 - 0.2j, -0.1 + 0.4j
    sp = complex(j0 @ ctx.pol_vector(q, side, +1))
    sm = complex(j0 @ ctx.pol_vector(q, side, -1))

    if side_is_left:
        blk = SourceBlock(-L, 0.0, tuple(j0))
        z_eval = -L

        def f_in(z, y):
            return 1j * beta * y - amp * sp * (1.0 if -L <= z <= 0 else 0.0)

        def f_out(z, y):
            return -1j * beta * y + amp * sm * (1.0 if -L <= z <= 0 else 0.0)

    else:
        blk = SourceBlock(0.0, L, tuple(j0))
        z_eval = L

        def f_in(z, y):
            return -1j * beta * y + amp * sm * (1.0 if 0 <= z <= L else 0.0)

        def f_out(z, y):
            return 1j * beta * y - amp * sp * (1.0 if 0 <= z <= L else 0.0)

    closed = field_outside(ctx, side, z_eval, q, e_in0, e_out0, [blk])
    ode_in = _rk4(f_in, e_in0, 0.0, z_eval, 10_000)
    ode_out = _rk4(f_out, e_out0, 0.0, z_eval, 10_000)
    assert closed[0] == pytest.approx(ode_in, rel=1e-8)
    assert closed[1] == pytest.approx(ode_out, rel=1e-8)


def test_field_outside_wrong_side():
    st = Stack(VACUUM, (), VACUUM)
    ctx = make_context(st, 2e15, 0.0)
    with pytest.raises(ConfigError):
        field_outside(ctx, 0, +1e-6, "s")
    with pytest.raises(ConfigError):
        field_outside(ctx, 1, -1e-6, "s")
