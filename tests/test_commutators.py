import re

import numpy as np
import pytest

import mode_oracles as oracle
from conftest import C, random_mode, random_stack
from qplanar.commutators import (
    assembled_out,
    bosonic,
    bosonize,
    c_in,
    commutator_set,
    grazing,
    intraplate_tau,
    intraplate_xi,
    unitarity_residual,
)
from qplanar.errors import RegimeError
from qplanar.modes import make_context
from qplanar.scatter import scatter_set
from qplanar.stack import ConstantEps, Layer, Stack, VACUUM


def _scale(ctx, cs):
    return max(*abs(cs.c_in), *abs(np.diagonal(cs.c_out)),
               1.0 / abs(ctx.beta[0]), 1.0 / abs(ctx.beta[-1]))


def test_vacuum_propagating_in_out_equal():
    st = Stack(VACUUM, (), VACUUM)
    omega = 2e15
    ctx = make_context(st, omega, 0.4 * omega / C)
    for q in ("s", "p"):
        cs = commutator_set(ctx, q=q)
        expected = 1.0 / ctx.beta[0].real
        assert cs.c_in[0] == pytest.approx(expected, rel=1e-13)
        assert cs.c_out[0, 0] == pytest.approx(expected, rel=1e-13)
        assert cs.c_in[1] == pytest.approx(expected, rel=1e-13)
        assert cs.c_out[1, 1] == pytest.approx(expected, rel=1e-13)


def test_assembled_empty_stack_is_exactly_c_in():
    st = Stack(VACUUM, (), VACUUM)
    omega = 2e15
    ctx = make_context(st, omega, 0.3 * omega / C)
    for q in ("s", "p"):
        cs = commutator_set(ctx, q=q)
        # S = [[0, 1], [1, 0]] and no layers: the assembly collapses to c_in
        out = assembled_out(cs)
        assert out[0, 0] == cs.c_in[0]
        assert out[1, 1] == cs.c_in[1]


def test_tau_inverts_to_bosonic_combinations():
    # the inverse of tau must be the normalized (E+ +/- E-) map, E+ taken at z = d
    st = Stack(VACUUM, (Layer(180e-9, ConstantEps(2.5 + 0.6j)),), VACUUM)
    ctx = make_context(st, 2e15, 3e6)
    for q in ("s", "p"):
        xi_p, xi_m = intraplate_xi(ctx, q, 1)
        tau = intraplate_tau((xi_p, xi_m))
        expected_inv = np.array([[1.0 / xi_p, 1.0 / xi_p], [1.0 / xi_m, -1.0 / xi_m]])
        np.testing.assert_allclose(np.linalg.inv(tau), expected_inv, rtol=1e-12)


def test_lossless_layer_has_no_intraplate_noise():
    # beta'' = 0 below k = 1.5 omega/c and beta' = 0 above it put x or y at 0, where
    # expm1(-2x)/(2 beta'') or sin(y)/y is 0/0; a RuntimeWarning fails this test
    st = Stack(VACUUM, (Layer(160e-9, ConstantEps(2.25 + 0j)),), VACUUM)
    omega = 2e15
    for k_frac in (0.0, 0.7, 1.2, 2.0):
        ctx = make_context(st, omega, k_frac * omega / C)
        for q in ("s", "p"):
            cs = commutator_set(ctx, q=q)
            assert np.abs(cs.cmat[0]).max() == 0.0


def test_evanescent_vacuum_lossless_stack_silent_output():
    st = Stack(VACUUM, (Layer(160e-9, ConstantEps(2.25 + 0j)),), VACUUM)
    omega = 2e15
    ctx = make_context(st, omega, 1.8 * omega / C)
    for q in ("s", "p"):
        cs = commutator_set(ctx, q=q)
        assert cs.c_in[0] == 0.0
        assert abs(cs.c_out[0, 0]) < 1e-12
        assert abs(cs.c_out[1, 1]) < 1e-12


def test_closed_vs_assembled_randomized():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1500):
        st = random_stack(rng)
        omega, k, q = random_mode(rng)
        ctx = make_context(st, omega, k)
        if any(b == 0.0 for b in ctx.beta):
            continue
        cs = commutator_set(ctx, q=q)
        assert np.all(cs.c_in >= 0.0)
        scale = _scale(ctx, cs)
        out = assembled_out(cs)
        worst = max(worst, abs(out[0, 0] - cs.c_out[0, 0]) / scale,
                    abs(out[1, 1] - cs.c_out[1, 1]) / scale)
    assert worst < 1e-10, worst


def test_cross_closed_vs_assembled_randomized():
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(1500):
        st = random_stack(rng)
        omega, k, q = random_mode(rng)
        ctx = make_context(st, omega, k)
        if any(b == 0.0 for b in ctx.beta):
            continue
        cs = commutator_set(ctx, q=q)
        worst = max(worst, abs(assembled_out(cs)[0, 1] - cs.c_out[0, 1]) / _scale(ctx, cs))
    assert worst < 1e-10, worst


def test_near_zero_and_negative_eps_claddings_match_the_assembly():
    """Claddings with eps near 0 or negative around absorbing layers: c_out is exactly
    Hermitian and within 1e-12 of the brute-force assembly, s and p, k up to 5 omega/c."""
    rng = np.random.default_rng(606)

    def cladding():
        u = rng.random()
        if u < 0.2:
            return VACUUM
        if u < 0.6:
            return ConstantEps(complex(rng.uniform(-0.1, 0.1), 10.0 ** rng.uniform(-7.0, -2.0)))
        return ConstantEps(complex(rng.uniform(-20.0, -0.5), 10.0 ** rng.uniform(-6.0, 0.0)))

    worst = 0.0
    for _ in range(300):
        layers = tuple(Layer(float(rng.uniform(20e-9, 300e-9)),
                             ConstantEps(complex(rng.uniform(1.0, 6.0), rng.uniform(0.0, 1.0))))
                       for _ in range(rng.integers(1, 4)))
        st = Stack(cladding(), layers, cladding())
        omega = rng.uniform(1e15, 3e15)
        ctx = make_context(st, omega, rng.uniform(0.0, 5.0, 16) * omega / C)
        for q in ("s", "p"):
            cs = commutator_set(ctx, q=q)
            np.testing.assert_array_equal(cs.c_out, np.conj(np.swapaxes(cs.c_out, -1, -2)))
            scale = np.max(np.concatenate([abs(cs.c_in), abs(np.diagonal(cs.c_out, 0, -2, -1)),
                                           1.0 / abs(ctx.beta[[0, -1]].T)], -1), axis=-1)
            gap = np.max(abs(assembled_out(cs) - cs.c_out), axis=(-2, -1)) / scale
            worst = max(worst, float(gap.max()))
    assert worst < 1e-12, worst


@pytest.mark.parametrize("q", ["s", "p"])
def test_c_in_and_c_out_are_the_commutator_set_fields(q):
    """The public c_in(ctx, q) returns the commutator set's c_in bit for bit, and both fields put
    side 0 at index 0 and side n at index 1, with the rows of S."""
    rng = np.random.default_rng(707)
    for _ in range(20):
        st = random_stack(rng)
        omega = rng.uniform(1e15, 3e15, 12)
        ctx = make_context(st, omega, rng.uniform(0.0, 2.5, 12) * omega / C)
        ctx = ctx.select(~grazing(ctx))
        cs = commutator_set(ctx, q=q)
        np.testing.assert_array_equal(c_in(ctx, q), cs.c_in)
        for side in (0, ctx.n):
            row = ctx.side_row(side)
            b, ab2 = ctx.beta[side], abs(ctx.beta[side]) ** 2
            p = 1.0 if q == "s" else (ab2 + ctx.k * ctx.k) / abs(ctx.kj[side]) ** 2
            np.testing.assert_array_equal(cs.c_in[:, row], b.real / ab2 * p)
            np.testing.assert_array_equal(cs.c_out[:, row, row].imag, 0.0)


def test_cross_vanishes_propagating_vacuum():
    st = Stack(VACUUM, (Layer(200e-9, ConstantEps(2 + 0.5j)),), VACUUM)
    omega = 2e15
    for k_frac in (0.0, 0.3, 0.9):
        ctx = make_context(st, omega, k_frac * omega / C)
        for q in ("s", "p"):
            val = commutator_set(ctx, q=q).c_out[0, 1]
            assert abs(val) * abs(ctx.beta[0]) < 1e-12


def test_cross_evanescent_vacuum_transmission_form():
    st = Stack(VACUUM, (Layer(200e-9, ConstantEps(2 + 0.5j)),), VACUUM)
    omega = 2e15
    for k_frac in (1.1, 1.7, 2.4):
        ctx = make_context(st, omega, k_frac * omega / C)
        for q in ("s", "p"):
            cs = commutator_set(ctx, q=q)
            expected = 2.0 * cs.io.s_matrix[1, 0].imag / abs(ctx.beta[0])
            assert cs.c_out[0, 1] == pytest.approx(expected, rel=1e-11)
            # lossless stack instead: Im t = 0, cross = 0
    st_ll = Stack(VACUUM, (Layer(200e-9, ConstantEps(2.25 + 0j)),), VACUUM)
    ctx = make_context(st_ll, omega, 1.9 * omega / C)
    cs = commutator_set(ctx, q="s")
    assert abs(cs.c_out[0, 1]) * abs(ctx.beta[0]) < 1e-13


def test_evanescent_vacuum_output_noise_reflection_form():
    st = Stack(VACUUM, (Layer(200e-9, ConstantEps(2 + 0.5j)),), VACUUM)
    omega = 2e15
    for k_frac in (1.05, 1.5, 2.2):
        ctx = make_context(st, omega, k_frac * omega / C)
        for q in ("s", "p"):
            cs = commutator_set(ctx, q=q)
            r = cs.io.s_matrix[0, 0]
            assert r.imag >= 0.0  # positivity of the output noise budget
            assert cs.c_out[0, 0] == pytest.approx(2.0 * r.imag / abs(ctx.beta[0]), rel=1e-10)


def test_intraplate_matrices_hermitian_psd():
    rng = np.random.default_rng(303)
    for _ in range(400):
        st = random_stack(rng)
        omega, k, q = random_mode(rng)
        ctx = make_context(st, omega, k)
        if any(b == 0.0 for b in ctx.beta):
            continue
        cs = commutator_set(ctx, q=q)
        for cmat in cs.cmat:
            np.testing.assert_allclose(cmat, cmat.conjugate().T, rtol=0, atol=1e-18)
            tr = cmat.trace().real
            if tr > 0:
                assert np.linalg.eigvalsh(cmat).min() >= -1e-14 * tr


def test_tau_reconstructs_intraplate_matrix():
    rng = np.random.default_rng(404)
    for _ in range(400):
        st = random_stack(rng)
        omega, k, q = random_mode(rng)
        ctx = make_context(st, omega, k)
        if any(b == 0.0 for b in ctx.beta):
            continue
        cs = commutator_set(ctx, q=q)
        for j, cmat in enumerate(cs.cmat, start=1):
            xi_p, xi_m = intraplate_xi(ctx, q, j)
            tau = intraplate_tau((xi_p, xi_m))
            assert xi_p >= 0.0 and xi_m >= 0.0
            rec = tau @ tau.conjugate().T
            scale = max(np.abs(cmat).max(), 1e-30 * _scale(ctx, cs))
            assert np.abs(rec - cmat).max() <= 1e-10 * scale


def test_bosonize_vacuum_propagating_is_identity_rescaling():
    st = Stack(VACUUM, (Layer(140e-9, ConstantEps(2.25 + 0j)),), VACUUM)
    omega = 2e15
    ctx = make_context(st, omega, 0.6 * omega / C)
    for q in ("s", "p"):
        cs = commutator_set(ctx, q=q)
        bos = bosonize(ctx, cs)
        s = np.array(cs.io.s_matrix)
        np.testing.assert_allclose(bos.s_matrix, s, rtol=1e-12)


def test_bosonize_rejects_evanescent_vacuum():
    st = Stack(VACUUM, (Layer(140e-9, ConstantEps(2 + 0.5j)),), VACUUM)
    omega = 2e15
    ctx = make_context(st, omega, 1.4 * omega / C)
    cs = commutator_set(ctx, q="s")
    with pytest.raises(RegimeError, match="bosonic input"):
        bosonize(ctx, cs)


def test_bosonize_lossy_outer_media():
    st = Stack(ConstantEps(1.2 + 0.05j),
               (Layer(150e-9, ConstantEps(3 + 0.3j)),),
               ConstantEps(2 + 0.1j))
    ctx = make_context(st, 2e15, 0.5 * 2e15 / C)
    for q in ("s", "p"):
        cs = commutator_set(ctx, q=q)
        bos = bosonize(ctx, cs)
        # modified coefficients differ from the bare ones for lossy outer media
        assert abs(bos.s_matrix[..., 0, 0]) != pytest.approx(abs(cs.io.s_matrix[0][0]), rel=1e-6)
        # diagonal of the bosonized Gram matrix is exactly the closure identity
        gram = bos.s_matrix @ bos.s_matrix.conjugate().T
        for ph in bos.phi:
            gram += ph @ ph.conjugate().T
        assert gram[0, 0].real == pytest.approx(1.0, abs=1e-12)
        assert gram[1, 1].real == pytest.approx(1.0, abs=1e-12)
        # off-diagonal reproduces the scaled cross commutator
        expected = cs.c_out[0, 1] / np.sqrt(cs.c_out[0, 0].real * cs.c_out[1, 1].real)
        assert gram[0, 1] == pytest.approx(expected, rel=1e-10)


def test_unitarity_residual_cases():
    omega = 2e15
    # lossless slab, propagating vacuum: noise columns vanish
    st = Stack(VACUUM, (Layer(140e-9, ConstantEps(2.25 + 0j)),), VACUUM)
    ctx = make_context(st, omega, 0.5 * omega / C)
    cs = commutator_set(ctx, q="p")
    bos = bosonize(ctx, cs)
    assert max(np.abs(p).max() for p in bos.phi) < 1e-14
    assert unitarity_residual(bos) < 1e-12
    # absorbing slab: nonzero noise columns, identity still exact
    st2 = Stack(VACUUM, (Layer(200e-9, ConstantEps(2 + 0.5j)),), VACUUM)
    ctx2 = make_context(st2, omega, 0.5 * omega / C)
    cs2 = commutator_set(ctx2, q="p")
    bos2 = bosonize(ctx2, cs2)
    assert max(np.abs(p).max() for p in bos2.phi) > 1e-3
    assert unitarity_residual(bos2) < 1e-10
    # empty stack: exactly zero
    st3 = Stack(VACUUM, (), VACUUM)
    ctx3 = make_context(st3, omega, 0.5 * omega / C)
    assert unitarity_residual(bosonize(ctx3, commutator_set(ctx3, q="s"))) == 0.0


def test_normal_incidence_polarization_degeneracy():
    rng = np.random.default_rng(505)
    for _ in range(60):
        st = random_stack(rng)
        omega = float(rng.uniform(1e15, 3e15))
        ctx = make_context(st, omega, 0.0)
        cs_s = commutator_set(ctx, q="s")
        cs_p = commutator_set(ctx, q="p")
        ss_s, ss_p = scatter_set(ctx, q="s"), scatter_set(ctx, q="p")
        scale = _scale(ctx, cs_s)
        for a, b in [(ss_s.r_0n, ss_p.r_0n), (ss_s.t_0n, ss_p.t_0n),
                     (ss_s.r_n0, ss_p.r_n0), (ss_s.t_n0, ss_p.t_n0)]:
            assert abs(a) == pytest.approx(abs(b), rel=1e-12, abs=1e-300)
        for a, b in [(cs_s.c_in[0], cs_p.c_in[0]), (cs_s.c_out[0, 0], cs_p.c_out[0, 0]),
                     (cs_s.c_out[1, 1], cs_p.c_out[1, 1]), (cs_s.c_out[0, 1], cs_p.c_out[0, 1])]:
            assert abs(abs(a) - abs(b)) <= 1e-12 * scale
        for ca, cb in zip(cs_s.cmat, cs_p.cmat):
            assert np.abs(np.abs(ca) - np.abs(cb)).max() <= 1e-12 * scale


def test_wrong_transmission_convention_is_caught(flip_p_transmission):
    # with the TM transmission sign flipped, the cross-commutator closure
    # must fail loudly
    st = Stack(VACUUM, (Layer(200e-9, ConstantEps(2 + 0.5j)),), VACUUM)
    omega = 2e15
    ctx = make_context(st, omega, 1.4 * omega / C)
    cs = commutator_set(ctx, q="p")
    mismatch = abs(assembled_out(cs)[0, 1] - cs.c_out[0, 1])
    assert mismatch > 1e-3 * _scale(ctx, cs)


def test_xi_passivity_guard():
    # a fabricated non-passive propagation constant (negative Im beta) must be
    # rejected with the offending layer named, not silently square-rooted
    from dataclasses import replace

    from qplanar.commutators import intraplate_xi
    from qplanar.errors import PassivityError

    st = Stack(VACUUM, (Layer(200e-9, ConstantEps(2 + 0.5j)),), VACUUM)
    ctx = make_context(st, 2e15, 1e6)
    bad_beta = tuple(
        b if j != 1 else complex(b.real, -b.imag) for j, b in enumerate(ctx.beta)
    )
    bad_ctx = replace(ctx, beta=bad_beta)
    with pytest.raises(PassivityError, match="layer 1"):
        intraplate_xi(bad_ctx, "s", 1)


def test_grazing_mode_rejected():
    st = Stack(VACUUM, (), VACUUM)
    omega = 2e15
    ctx = make_context(st, omega, omega / C)
    assert ctx.beta[0] == 0.0
    with pytest.raises(RegimeError, match="grazing"):
        commutator_set(ctx, q="s")
    # The closed forms divide 0/0 there: each raises first, naming the mode.
    st = Stack(VACUUM, (Layer(200e-9, ConstantEps(2 + 0.5j)),), VACUUM)
    ctx = make_context(st, omega, np.array([0.5, 1.0]) * omega / C)
    for closed in (lambda: c_in(ctx, "p"), lambda: commutator_set(ctx, "p")):
        with pytest.raises(RegimeError, match=re.escape(f"at {ctx.mode(1)} (grazing mode")):
            closed()


def test_entrywise_2x2_products_match_stacked_matmul():
    """assembled_out, bosonize and unitarity_residual form their 2x2 products entry by entry;
    the stacked-@ oracle agrees within 1e-15 of the sum of the products' magnitudes."""
    rng = np.random.default_rng(29)
    for trial in range(40):
        st = random_stack(rng)
        omega = rng.uniform(1e15, 3e15, 16)
        ctx = make_context(st, omega, rng.uniform(0.0, 2.5, 16) * omega / C)
        for q in ("s", "p"):
            cs = commutator_set(ctx, q=q)
            s, phi = cs.io.s_matrix, cs.io.phi
            scale = np.max(oracle.assembled_out(abs(s), abs(cs.c_in), abs(phi), abs(cs.cmat)),
                           axis=(-2, -1))
            ref = oracle.assembled_out(s, cs.c_in, phi, cs.cmat)
            assert np.all(np.max(abs(assembled_out(cs) - ref), axis=(-2, -1)) <= 1e-15 * scale)

            ok = bosonic(ctx, cs)
            sub = ctx.select(ok)
            cs_sub = commutator_set(sub, q=q)
            bos = bosonize(sub, cs_sub)
            layers = np.arange(1, sub.n)
            tau = intraplate_tau(intraplate_xi(sub, q, layers))
            out_scale = 1.0 / np.sqrt(np.diagonal(cs_sub.c_out, 0, -2, -1).real)[..., :, None]
            ref_phi = out_scale * (cs_sub.io.phi @ tau)
            phi_scale = np.max(out_scale * (abs(cs_sub.io.phi) @ abs(tau)), axis=(-2, -1))
            assert np.all(np.max(abs(bos.phi - ref_phi), axis=(-2, -1)) <= 1e-15 * phi_scale)
            gram_scale = np.max(oracle.gram(abs(bos.s_matrix), abs(bos.phi)), axis=(-2, -1))
            ref_res = np.max(abs(oracle.gram(bos.s_matrix, bos.phi) - np.eye(2)), axis=(-2, -1))
            assert np.all(abs(unitarity_residual(bos) - ref_res) <= 1e-15 * gram_scale)


def test_far_face_noise_sum_matches_the_front_face_formulas():
    """sum_j Phi C Phi^+ of the scalar oracle is the same on both conventions: E+ at z = d, and
    E+ at z = 0 (whose C++ carries e^{2 beta'' d}).  Random passive stacks with thick and
    negative-eps layers; wherever the front-face formulas are finite they agree within 1e-13
    of the sum of the front-face products' magnitudes.  Its C+- = i beta''/|beta|^2 (e^{-2i
    beta' d} - 1) Q enters with the magnitude 2 beta''/|beta|^2 |Q| of its two terms, since
    they cancel when beta' d is small."""
    rng = np.random.default_rng(1907)
    checked = overflowed = 0
    for _ in range(300):
        layers = tuple(Layer(float(10.0 ** rng.uniform(-8.0, -4.3)),
                             ConstantEps(complex(rng.uniform(-20.0, 12.0), 10.0 ** rng.uniform(-6.0, 0.3))))
                       for _ in range(rng.integers(1, 5)))
        outer = [VACUUM if rng.random() < 0.5 else ConstantEps(complex(rng.uniform(1.0, 4.0),
                                                                       rng.uniform(0.0, 1.0)))
                 for _ in range(2)]
        omega, k, q = random_mode(rng, 3.0)
        m = oracle.make_context(Stack(outer[0], layers, outer[1]), omega, k)
        if any(b == 0.0 for b in m.beta):
            continue
        far = oracle.commutators(m, q)
        try:
            front = oracle.commutators(m, q, front=True)
        except OverflowError:   # expm1(2 beta'' d) beyond the float range
            overflowed += 1
            continue
        mags = abs(front["cmat"])
        for j, mag in enumerate(mags, start=1):
            mag[0, 1] = mag[1, 0] = 2.0 * m.beta[j].imag / abs(m.beta[j]) ** 2 * abs(oracle._pqq(m, j, q)[1])
        scale = np.max(sum(abs(phi) @ mag @ abs(phi).T for phi, mag in zip(front["phi"], mags)))
        if not np.isfinite(scale):
            overflowed += 1
            continue
        sums = [sum(phi @ c @ phi.conj().T for phi, c in zip(cs["phi"], cs["cmat"])) for cs in (far, front)]
        assert np.max(abs(sums[0] - sums[1])) <= 1e-13 * scale, (m, q)
        checked += 1
    assert checked > 200 and overflowed > 0, (checked, overflowed)
