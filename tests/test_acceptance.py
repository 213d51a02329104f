"""Acceptance suite: one test per release criterion, each printing its metric.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
All tolerances are pinned here; nothing is deferred to calibration.
"""

import math
import time

import numpy as np
import pytest

from conftest import C, quarter_wave_stack, random_mode, random_stack
from kernel_oracles import forward_modes, kspace_reference
from qplanar.commutators import (
    assembled_out,
    bosonize,
    commutator_set,
    intraplate_tau,
    intraplate_xi,
    unitarity_residual,
)
from qplanar.errors import RegimeError
from qplanar.greens import verify_green_identity
from qplanar.modes import make_context
from qplanar.rhokernels import GaussianWindow, kernel_radial
from qplanar.sampler import sample_emission
from qplanar.scatter import scatter_set
from qplanar.stack import ConstantEps, Layer, Stack, VACUUM
from qplanar.thermal import kirchhoff_residual


def report(num, desc, **metrics):
    shown = " ".join(f"{k}={v:.3e}" if isinstance(v, float) else f"{k}={v}"
                     for k, v in metrics.items())
    print(f"\nACCEPTANCE {num:2d} PASS: {desc} ({shown})")


LOSSLESS_SLAB = Stack(VACUUM, (Layer(150e-9, ConstantEps(2.25 + 0j)),), VACUUM)
ABSORBING_SLAB = Stack(VACUUM, (Layer(200e-9, ConstantEps(2.0 + 0.5j)),), VACUUM)


def _grid_1():
    omegas = np.linspace(1e15, 3e15, 100)
    fracs = np.linspace(0.0, 0.999, 100)
    return omegas, fracs


def test_criterion_01_unitarity_lossless_grid():
    omegas, fracs = _grid_1()
    t0 = time.time()
    worst = 0.0
    for om in omegas:
        ctx = make_context(LOSSLESS_SLAB, om, fracs * om / C)
        for q in ("s", "p"):
            res = unitarity_residual(bosonize(ctx, commutator_set(ctx, q=q)))
            worst = max(worst, float(res.max()))
    elapsed = time.time() - t0
    assert worst < 1e-12, worst
    assert elapsed < 5.0, elapsed
    report(1, "bosonized scattering unitary on 100x100 propagating grid",
           max_residual=worst, seconds=elapsed)


def _sweep_samples(n_samples, seed=2024):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n_samples:
        st = random_stack(rng)
        omega, k, q = random_mode(rng)
        ctx = make_context(st, omega, k)
        if any(b == 0.0 for b in ctx.beta):
            continue
        out.append((ctx, q))
    return out


def test_criterion_02_commutator_closure_randomized():
    t0 = time.time()
    samples = _sweep_samples(10_000)
    worst = 0.0
    for ctx, q in samples:
        cs = commutator_set(ctx, q=q)
        scale = max(abs(cs.c_in0), abs(cs.c_inN), abs(cs.c_out0), abs(cs.c_outN),
                    1.0 / abs(ctx.beta[0]), 1.0 / abs(ctx.beta[-1]))
        out = assembled_out(cs)
        worst = max(
            worst,
            abs(out[0, 0] - cs.c_out0) / scale,
            abs(out[1, 1] - cs.c_outN) / scale,
            abs(out[0, 1] - cs.cross) / scale,
        )
    elapsed = time.time() - t0
    assert worst < 1e-10, worst
    assert elapsed < 30.0, elapsed
    report(2, "closed-form output commutators match brute-force assembly (1e4 samples)",
           max_rel_err=worst, seconds=elapsed)


def test_criterion_03_vacuum_propagating_limits():
    omegas, fracs = _grid_1()
    worst_io = 0.0
    worst_cross = 0.0
    for om in omegas[::2]:
        for f in fracs[::2]:
            ctx = make_context(LOSSLESS_SLAB, om, f * om / C)
            scale = 1.0 / ctx.beta[0].real
            for q in ("s", "p"):
                cs = commutator_set(ctx, q=q)
                worst_io = max(worst_io, abs(cs.c_out0 - cs.c_in0) / scale,
                               abs(cs.c_outN - cs.c_inN) / scale)
                worst_cross = max(worst_cross, abs(cs.cross) / scale)
    assert worst_io < 1e-12, worst_io
    assert worst_cross < 1e-12, worst_cross
    report(3, "propagating vacuum: c_out = c_in and cross-commutator = 0",
           max_io_gap=worst_io, max_cross=worst_cross)


def test_criterion_04_evanescent_vacuum():
    omegas = np.linspace(1e15, 3e15, 30)
    fracs = np.linspace(1.01, 2.8, 30)
    worst_abs = 0.0
    worst_lossless = 0.0
    for om in omegas:
        for f in fracs:
            k = f * om / C
            for q in ("s", "p"):
                ctx = make_context(ABSORBING_SLAB, om, k)
                cs = commutator_set(ctx, q=q)
                assert cs.c_in0 == 0.0 and cs.c_inN == 0.0
                target = 2.0 * cs.io.s_matrix[0, 0].imag / abs(ctx.beta[0])
                worst_abs = max(worst_abs, abs(cs.c_out0 - target) / abs(target))
                ctx2 = make_context(LOSSLESS_SLAB, om, k)
                cs2 = commutator_set(ctx2, q=q)
                assert cs2.c_in0 == 0.0 and cs2.c_inN == 0.0
                worst_lossless = max(worst_lossless, abs(cs2.c_out0), abs(cs2.c_outN))
    assert worst_abs < 1e-10, worst_abs
    assert worst_lossless < 1e-12, worst_lossless
    report(4, "evanescent vacuum: c_in = 0 exactly; output noise = 2 Im r / |beta|",
           max_rel_err=worst_abs, lossless_max=worst_lossless)


def test_criterion_05_kirchhoff_balance():
    omegas = np.linspace(1e15, 3e15, 25)
    fracs = np.linspace(0.0, 0.97, 25)
    worst = 0.0
    for om in omegas:
        for f in fracs:
            ctx = make_context(ABSORBING_SLAB, om, f * om / C)
            for q in ("s", "p"):
                for side in (0, ctx.n):
                    worst = max(worst, kirchhoff_residual(ctx, q=q, temperature=300.0, side=side))
    assert worst < 1e-8, worst
    report(5, "emissivity equals absorptivity at T = 300 K (propagating grid)",
           max_residual=worst)


GREEN_STACK = Stack(ConstantEps(1 + 0.01j),
                    (Layer(200e-9, ConstantEps(2 + 0.2j)),),
                    ConstantEps(1 + 0.01j))


def test_criterion_06_green_identity():
    ctx = make_context(GREEN_STACK, 2e15, 0.5 * 2e15 / C)
    res = verify_green_identity(ctx, j=0, jp=0, z=0.0, zp=0.0, nodes_per_layer=200)
    assert res.residual < 1e-6, res.residual
    residuals = [verify_green_identity(ctx, nodes_per_layer=m).residual for m in (26, 52, 104)]
    orders = [math.log2(residuals[i] / residuals[i + 1]) for i in range(2)]
    assert all(o >= 1.9 for o in orders), (residuals, orders)
    report(6, "Green absorption identity at the boundary plane",
           residual_200_nodes=res.residual, min_order=min(orders))


def test_criterion_07_monte_carlo_oracle():
    from qplanar.thermal import emission_w

    k = 0.5 * 2e15 / C
    ctx = make_context(ABSORBING_SLAB, 2e15, k)
    w_ref = emission_w(ctx, q="p", temperature=300.0, side=0)
    plan = dict(q="p", temperature=300.0, side=0, nodes_per_layer=64, realizations=100_000,
                seed=31415)
    t0 = time.time()
    w, stderr = sample_emission(ctx, **plan)
    elapsed = time.time() - t0
    dev = abs(w - w_ref) / stderr
    assert dev < 3.0, (w, w_ref, stderr)
    assert elapsed < 60.0, elapsed
    w2, stderr2 = sample_emission(ctx, **plan)
    assert w == w2 and stderr == stderr2
    report(7, "sampler reproduces closed-form emission, bit-deterministic",
           sigmas=dev, seconds=elapsed)


def test_criterion_08_quarter_wave_slab():
    omega = 2e15
    st = quarter_wave_stack(omega)
    ctx = make_context(st, omega, 0.0)
    worst_r = worst_t = 0.0
    for q in ("s", "p"):
        ss = scatter_set(ctx, q=q)
        worst_r = max(worst_r, abs(abs(ss.r_0n) - 0.6))
        worst_t = max(worst_t, abs(abs(ss.t_0n) ** 2 - 0.64))
    assert worst_r < 1e-12 and worst_t < 1e-12
    report(8, "quarter-wave slab |r| = 0.6, |t|^2 = 0.64", r_err=worst_r, t2_err=worst_t)


def test_criterion_09_normal_incidence_degeneracy():
    rng = np.random.default_rng(909)
    worst = 0.0
    for _ in range(300):
        st = random_stack(rng)
        omega = float(rng.uniform(1e15, 3e15))
        ctx = make_context(st, omega, 0.0)
        cs_s = commutator_set(ctx, q="s")
        cs_p = commutator_set(ctx, q="p")
        ss_s, ss_p = scatter_set(ctx, q="s"), scatter_set(ctx, q="p")
        scale = max(1.0 / abs(ctx.beta[0]), 1.0 / abs(ctx.beta[-1]),
                    abs(cs_s.c_out0), abs(cs_s.c_outN))

        def gap(a, b, sc=1.0):
            return abs(abs(a) - abs(b)) / sc

        for arrays in ("r_left", "r_right", "t_to0", "t_toN", "t_from0", "t_fromN", "d_fp"):
            for a, b in zip(getattr(ss_s, arrays), getattr(ss_p, arrays)):
                worst = max(worst, gap(a, b))
        for a, b in zip(cs_s.io.phi.ravel(), cs_p.io.phi.ravel()):
            worst = max(worst, gap(a, b))
        for a, b in [(cs_s.c_in0, cs_p.c_in0), (cs_s.c_inN, cs_p.c_inN),
                     (cs_s.c_out0, cs_p.c_out0), (cs_s.c_outN, cs_p.c_outN),
                     (cs_s.cross, cs_p.cross)]:
            worst = max(worst, gap(a, b, scale))
        for ca, cb in zip(cs_s.cmat, cs_p.cmat):
            worst = max(worst, np.abs(np.abs(ca) - np.abs(cb)).max() / scale)
        # at k = 0 the TM basis vector flips sign relative to TE, which swaps
        # the two intraplate bosonic combinations; compare them as a pair
        for j in range(1, ctx.n):
            (sp, sm), (pp, pm) = intraplate_xi(ctx, "s", j), intraplate_xi(ctx, "p", j)
            worst = max(worst, min(abs(sp - pp) + abs(sm - pm),
                                   abs(sp - pm) + abs(sm - pp)) / math.sqrt(scale))
    assert worst < 1e-12, worst
    report(9, "s and p magnitudes coincide at normal incidence", max_gap=worst)


def test_criterion_10_intraplate_psd_and_tau():
    samples = _sweep_samples(10_000, seed=4096)
    worst_psd = 0.0
    worst_tau = 0.0
    for ctx, q in samples:
        cs = commutator_set(ctx, q=q)
        for j, cmat in enumerate(cs.cmat, start=1):
            tau = intraplate_tau(ctx, j, intraplate_xi(ctx, q, j))
            tr = cmat.trace().real
            if tr > 0.0:
                worst_psd = max(worst_psd, -np.linalg.eigvalsh(cmat).min() / tr)
                rec = tau @ tau.conjugate().T
                worst_tau = max(worst_tau, np.abs(rec - cmat).max() / np.abs(cmat).max())
    assert worst_psd < 1e-14, worst_psd
    assert worst_tau < 1e-10, worst_tau
    report(10, "intraplate commutator matrices PSD and tau tau+ reconstruction",
           max_neg_eig_over_trace=worst_psd, max_tau_err=worst_tau)


def test_criterion_11_rho_kernel_round_trip():
    omega = 2e15
    k0 = omega / C
    outer = ConstantEps(1.5 + 1.0j)
    st = Stack(outer, (Layer(200e-9, ConstantEps(2 + 0.5j)),), outer)
    window = GaussianWindow(k_w=1.5 * k0)
    rho = np.linspace(0.0, 36.0 / k0, 3601)
    field = kernel_radial(st, omega, "R0n", window, rho)
    ks = np.linspace(0.02 * k0, 2.5 * k0, 20)
    recovered = forward_modes(field, ks)
    reference = kspace_reference(st, omega, "R0n", window, ks)
    err = float(np.abs(recovered - reference).max() / np.abs(reference).max())
    assert err < 1e-4, err
    report(11, "windowed kernel forward transform returns k-space coefficients",
           max_rel_err=err, k_points=len(ks))


def test_criterion_12_bosonization_regime_guard():
    omegas = np.linspace(1e15, 3e15, 50)
    fracs = np.concatenate([np.linspace(0.0, 0.999, 25), np.linspace(1.0001, 2.6, 25)])
    n_prop = n_evan = 0
    for om in omegas:
        for f in fracs:
            if abs(f - 1.5) < 1e-3:
                continue  # exact slab branch point is a legitimate singularity
            ctx = make_context(LOSSLESS_SLAB, om, f * om / C)
            for q in ("s", "p"):
                cs = commutator_set(ctx, q=q)
                if f < 1.0:
                    bosonize(ctx, cs)
                    n_prop += 1
                else:
                    with pytest.raises(RegimeError):
                        bosonize(ctx, cs)
                    n_evan += 1
    report(12, "bosonic operators exist iff the mode propagates",
           propagating=n_prop, evanescent=n_evan)
