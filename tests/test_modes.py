import numpy as np
import pytest

from conftest import C, random_stack
from qplanar.errors import ConfigError
from qplanar.modes import Regime, make_context, regime, upper_sqrt
from qplanar.stack import ConstantEps, Stack, VACUUM


def vacuum_stack():
    return Stack(VACUUM, (), VACUUM)


def test_normal_incidence_vacuum():
    # omega/c = 2 um^-1, k = 0
    omega = 2e6 * C
    ctx = make_context(vacuum_stack(), omega, 0.0)
    assert ctx.beta[0] == pytest.approx(2e6)
    assert ctx.beta[0].imag == 0.0


def test_evanescent_vacuum_pure_imaginary():
    # omega/c = 1 um^-1, k = 2 um^-1 -> beta = i sqrt(3) um^-1 exactly
    omega = 1e6 * C
    ctx = make_context(vacuum_stack(), omega, 2e6)
    assert ctx.beta[0].real == 0.0
    assert ctx.beta[0].imag == pytest.approx(np.sqrt(3.0) * 1e6, rel=1e-15)


def test_lossless_dense_propagating():
    # eps = 2.25, omega/c = 1, k = 1.2 -> beta = 0.9 exactly
    omega = 1e6 * C
    st = Stack(ConstantEps(2.25 + 0j), (), ConstantEps(2.25 + 0j))
    ctx = make_context(st, omega, 1.2e6)
    assert ctx.beta[0] == pytest.approx(0.9e6, rel=1e-14)
    assert ctx.beta[0].imag == 0.0


def test_branch_positivity_random():
    rng = np.random.default_rng(11)
    for _ in range(10_000):
        eps = complex(rng.uniform(-4.0, 6.0), rng.uniform(1e-6, 2.0))
        omega = rng.uniform(1e14, 5e15)
        k = rng.uniform(0.0, 3.0) * omega / C
        b = upper_sqrt(upper_sqrt(eps) ** 2 * (omega / C) ** 2 - k * k)
        assert b.real > 0.0 and b.imag > 0.0


def test_bilinear_normalization():
    rng = np.random.default_rng(5)
    for _ in range(200):
        st = random_stack(rng)
        omega = rng.uniform(1e15, 3e15)
        k = rng.uniform(0.0, 2.5) * omega / C
        ctx = make_context(st, omega, k)
        for j in range(ctx.n + 1):
            for sign in (+1, -1):
                e = ctx.pol_vector("p", j, sign)
                assert abs(e @ e - 1.0) < 1e-12
        es = ctx.pol_vector("s", 0, +1)
        assert abs(es @ es - 1.0) < 1e-15
        assert es[2] == 0.0


def test_beta_continuous_across_light_line():
    omega = 2e15
    k0 = omega / C
    st = vacuum_stack()
    eps_k = 1e-8 * k0
    below = make_context(st, omega, k0 - eps_k).beta[0]
    above = make_context(st, omega, k0 + eps_k).beta[0]
    assert abs(below) < 2e-4 * k0
    assert abs(above) < 2e-4 * k0


def test_mirror_symmetry_of_p_vectors():
    st = Stack(ConstantEps(3 + 0.2j), (), ConstantEps(3 + 0.2j))
    ctx = make_context(st, 2e15, 1e6)
    ep, em = ctx.pol_vector("p", 0, +1), ctx.pol_vector("p", 0, -1)
    np.testing.assert_allclose(ep[:2], -em[:2])
    np.testing.assert_allclose(ep[2], em[2])


def test_pol_vector_direction_array_and_reversed_k():
    rng = np.random.default_rng(4)
    st = random_stack(rng, n_layers=2)
    ctx = make_context(st, 2e15, 1.3 * 2e15 / C)
    theta = rng.uniform(0.0, 2.0 * np.pi, 6)
    for q in ("s", "p"):
        for j in range(ctx.n + 1):
            for sign in (+1, -1):
                arr = ctx.pol_vector(q, j, sign, (np.cos(theta), np.sin(theta)))
                assert arr.shape == (6, 3)
                for t, row in zip(theta, arr):
                    one = make_context(st, 2e15, ctx.k, khat=(np.cos(t), np.sin(t)))
                    np.testing.assert_allclose(row, one.pol_vector(q, j, sign), rtol=0, atol=1e-15)
                rev = ctx.pol_vector(q, j, sign, (-ctx.khat[0], -ctx.khat[1]))
                expected = (-ctx.pol_vector("s", j, sign) if q == "s"
                            else ctx.pol_vector("p", j, -sign))
                np.testing.assert_array_equal(rev, expected)


def test_khat_default_and_validation():
    st = vacuum_stack()
    ctx = make_context(st, 2e15, 0.0)
    assert ctx.khat == (1.0, 0.0)
    with pytest.raises(ConfigError, match="unit"):
        make_context(st, 2e15, 0.0, khat=(1.0, 1.0))
    s = 1 / np.sqrt(2.0)
    ctx2 = make_context(st, 2e15, 1e6, khat=(s, s))
    assert abs(np.hypot(*ctx2.khat) - 1.0) < 1e-12


def test_regime_classification():
    omega = 2e15
    k0 = omega / C
    st = vacuum_stack()
    assert regime(make_context(st, omega, 0.5 * k0), 0) is Regime.PROPAGATING
    assert regime(make_context(st, omega, 1.5 * k0), 0) is Regime.EVANESCENT
    lossy = Stack(ConstantEps(2 + 0.5j), (), ConstantEps(2 + 0.5j))
    for k in (0.0, 0.5 * k0, 2.5 * k0):
        assert regime(make_context(lossy, omega, k), 0) is Regime.LOSSY


def test_invalid_mode_arguments():
    st = vacuum_stack()
    with pytest.raises(ConfigError):
        make_context(st, -1e15, 0.0)
    with pytest.raises(ConfigError):
        make_context(st, 2e15, -5.0)
