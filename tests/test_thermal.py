import math

import numpy as np
import pytest

from conftest import C, random_stack
from qplanar.commutators import commutator_set
from qplanar.errors import AccuracyError, RegimeError
from qplanar.modes import make_context
from qplanar.stack import ConstantEps, Layer, Stack, VACUUM
from qplanar.thermal import bose, emission_w, kirchhoff_residual

HBAR = 1.054571817e-34
K_B = 1.380649e-23


def test_bose_at_crossover():
    # hbar omega = kB T
    T = 300.0
    omega = K_B * T / HBAR
    assert bose(omega, T) == pytest.approx(1.0 / (math.e - 1.0), rel=1e-14)
    assert bose(omega, T) == pytest.approx(0.5819767, rel=1e-6)


def test_bose_zero_temperature():
    assert bose(2e15, 0.0) == 0.0


def test_bose_rayleigh_jeans_accuracy():
    T = 300.0
    x = 1e-6
    omega = x * K_B * T / HBAR
    n = bose(omega, T)
    assert n == pytest.approx(1.0 / x - 0.5, rel=1e-6)


def test_bose_extreme_quantum_limit_underflows_cleanly():
    assert bose(1e20, 0.01) == 0.0


def test_emission_zero_for_lossless_stack():
    st = Stack(VACUUM, (Layer(150e-9, ConstantEps(2.25 + 0j)),), VACUUM)
    omega = 2e15
    for k_frac in (0.0, 0.6, 1.4):
        ctx = make_context(st, omega, k_frac * omega / C)
        for q in ("s", "p"):
            assert emission_w(ctx, q=q, temperature=300.0, side=0) == 0.0


def test_emission_zero_at_zero_temperature():
    st = Stack(VACUUM, (Layer(200e-9, ConstantEps(2 + 0.5j)),), VACUUM)
    ctx = make_context(st, 2e15, 1e6)
    assert emission_w(ctx, q="s", temperature=0.0, side=0) == 0.0


def test_emission_matches_kirchhoff_budget():
    # vacuum-clad absorbing slab, propagating: w = n c_in (1 - |r|^2 - |t|^2)
    st = Stack(VACUUM, (Layer(200e-9, ConstantEps(2 + 0.5j)),), VACUUM)
    omega = 2e15
    ctx = make_context(st, omega, 0.55 * omega / C)
    for q in ("s", "p"):
        for side in (0, ctx.n):
            cs = commutator_set(ctx, q=q)
            w = emission_w(ctx, q=q, temperature=300.0, side=side)
            s = cs.io.s_matrix
            row = s[0] if side == 0 else s[1]
            budget = bose(omega, 300.0) * cs.c_in0 * (
                1.0 - abs(row[0]) ** 2 - abs(row[1]) ** 2
            )
            assert w == pytest.approx(budget, rel=1e-10)


def test_kirchhoff_residual_small_on_sweep():
    st = Stack(VACUUM, (Layer(200e-9, ConstantEps(2 + 0.5j)),), VACUUM)
    worst = 0.0
    for omega in np.linspace(1e15, 3e15, 12):
        for f in np.linspace(0.0, 0.95, 12):
            ctx = make_context(st, omega, f * omega / C)
            for q in ("s", "p"):
                worst = max(worst, kirchhoff_residual(ctx, q=q, temperature=300.0))
    assert worst < 1e-8


def test_kirchhoff_lossless_both_sides_zero():
    st = Stack(VACUUM, (Layer(150e-9, ConstantEps(2.25 + 0j)),), VACUUM)
    ctx = make_context(st, 2e15, 1e6)
    assert kirchhoff_residual(ctx, q="s") < 1e-14
    assert kirchhoff_residual(ctx, q="p") < 1e-14


def test_kirchhoff_rejects_evanescent():
    st = Stack(VACUUM, (Layer(200e-9, ConstantEps(2 + 0.5j)),), VACUUM)
    omega = 2e15
    ctx = make_context(st, omega, 1.2 * omega / C)
    with pytest.raises(RegimeError, match="propagating"):
        kirchhoff_residual(ctx, q="s")


def test_kirchhoff_rejects_nonvacuum_outer():
    st = Stack(ConstantEps(1.5 + 0j), (Layer(200e-9, ConstantEps(2 + 0.5j)),), VACUUM)
    ctx = make_context(st, 2e15, 1e6)
    with pytest.raises(RegimeError, match="vacuum"):
        kirchhoff_residual(ctx, q="s")


def test_evanescent_emission_balances_output_commutator():
    # w / n = c_out in the evanescent-vacuum regime (zero-input noise budget)
    st = Stack(VACUUM, (Layer(200e-9, ConstantEps(2 + 0.5j)),), VACUUM)
    omega = 2e15
    for f in (1.1, 1.6, 2.3):
        ctx = make_context(st, omega, f * omega / C)
        for q in ("s", "p"):
            cs = commutator_set(ctx, q=q)
            w = emission_w(ctx, q=q, temperature=300.0, side=0)
            n = bose(omega, 300.0)
            assert w / n == pytest.approx(cs.c_out0, rel=1e-8)
            assert w / n == pytest.approx(
                2.0 * cs.io.s_matrix[0, 0].imag / abs(ctx.beta[0]), rel=1e-8
            )


def test_emission_monotone_in_temperature():
    st = Stack(VACUUM, (Layer(180e-9, ConstantEps(3 + 0.7j)),), VACUUM)
    omega = 2e15
    ctx = make_context(st, omega, 0.4 * omega / C)
    temps = [50.0, 150.0, 300.0, 600.0, 1200.0]
    vals = [emission_w(ctx, q="p", temperature=t, side=0) for t in temps]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert all(v >= 0.0 for v in vals)


def test_side_arrays_match_scalar_side_calls_bit_for_bit():
    rng = np.random.default_rng(8)
    for trial in range(24):
        vacuum = trial % 2 == 0
        st = random_stack(rng, n_layers=int(rng.integers(0, 5)), outer="vacuum" if vacuum else "mixed")
        omega = float(rng.uniform(1e15, 3e15))
        ctx = make_context(st, omega, rng.uniform(0.0, 0.95 if vacuum else 2.5, 9) * omega / C)
        sides = [0, ctx.n]
        for q in ("s", "p"):
            for f in (emission_w, kirchhoff_residual) if vacuum else (emission_w,):
                both = f(ctx, q, 300.0, sides)
                assert both.shape == (2, 9)
                np.testing.assert_array_equal(both, [f(ctx, q, 300.0, side) for side in sides])
            column = emission_w(ctx, q, 300.0, [[0], [ctx.n]])
            np.testing.assert_array_equal(column, emission_w(ctx, q, 300.0, sides)[:, None])


def test_emission_raises_at_a_grazing_k():
    st = Stack(VACUUM, (Layer(150e-9, ConstantEps(2.25 + 0j)), Layer(200e-9, ConstantEps(2 + 0.5j))),
               VACUUM)
    omega = 2e15
    kj = make_context(st, omega, 0.0).kj.real
    for k in kj[:2]:   # the vacuum light line and the lossless layer's branch point
        ctx = make_context(st, omega, np.array([0.3 * kj[0], k]))
        for q in ("s", "p"):
            with pytest.raises(RegimeError, match="grazing"):
                emission_w(ctx, q, 300.0, [0, ctx.n])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_layer_raises_naming_the_point_and_layer():
    # layer 2 is 40 um of eps = -10 + 1i: its intraplate amplitudes overflow
    st = Stack(VACUUM, (Layer(200e-9, ConstantEps(2 + 0.5j)), Layer(4e-5, ConstantEps(-10 + 1j))),
               VACUUM)
    ctx = make_context(st, 2e15, np.array([1e5, 3.3e6]))
    with pytest.raises(AccuracyError, match=r"omega = 2\.000000e\+15 rad/s, k = 1\.000000e\+05 "
                                            r"1/m: the noise coupling of layer 2 overflows"):
        emission_w(ctx, q="p", side=[0, st.n])
