import math

import numpy as np
import pytest

from conftest import C
from qplanar import sampler
from qplanar.errors import ConfigError
from qplanar.iorel import io_matrix
from qplanar.modes import make_context
from qplanar.sampler import BLOCK, SamplePlan, sample_emission
from qplanar.scatter import scatter_set
from qplanar.stack import ConstantEps, Layer, Stack, VACUUM
from qplanar.thermal import bose, emission_w

OMEGA = 2e15


def absorbing_slab():
    return Stack(VACUUM, (Layer(200e-9, ConstantEps(2 + 0.5j)),), VACUUM)


# far = 1 samples the emission into region n, far = 0 into region 0
@pytest.mark.parametrize("k_frac,q,far", [(0.4, "s", 0), (0.8, "p", 1), (1.4, "s", 0)])
def test_estimate_matches_closed_form(k_frac, q, far):
    st = absorbing_slab()
    k = k_frac * OMEGA / C
    ctx = make_context(st, OMEGA, k)
    side = ctx.n if far else 0
    w_ref = emission_w(ctx, q=q, temperature=300.0, side=side)
    plan = SamplePlan(omega=OMEGA, k=k, q=q, temperature=300.0,
                      nodes_per_layer=64, realizations=50_000, seed=1234, side=side)
    est = sample_emission(plan, st)
    assert est.stderr > 0.0
    assert abs(est.w - w_ref) < 3.0 * est.stderr


def test_multilayer_estimate():
    st = Stack(VACUUM,
               (Layer(150e-9, ConstantEps(3 + 0.4j)), Layer(100e-9, ConstantEps(2 + 0.8j))),
               VACUUM)
    k = 0.5 * OMEGA / C
    ctx = make_context(st, OMEGA, k)
    w_ref = emission_w(ctx, q="p", temperature=350.0, side=ctx.n)
    plan = SamplePlan(omega=OMEGA, k=k, q="p", temperature=350.0,
                      nodes_per_layer=64, realizations=50_000, seed=5, side=ctx.n)
    est = sample_emission(plan, st)
    assert abs(est.w - w_ref) < 3.0 * est.stderr


def test_zero_temperature_exact_zero():
    plan = SamplePlan(omega=OMEGA, k=1e6, temperature=0.0, realizations=100, seed=1)
    est = sample_emission(plan, absorbing_slab())
    assert est.w == 0.0 and est.stderr == 0.0


def test_different_seeds_differ():
    st = absorbing_slab()
    a = sample_emission(SamplePlan(omega=OMEGA, k=1e6, realizations=5000, seed=1), st)
    b = sample_emission(SamplePlan(omega=OMEGA, k=1e6, realizations=5000, seed=2), st)
    assert a.w != b.w


def test_stderr_scaling_with_realizations():
    st = absorbing_slab()
    a = sample_emission(SamplePlan(omega=OMEGA, k=1e6, realizations=20_000, seed=3), st)
    b = sample_emission(SamplePlan(omega=OMEGA, k=1e6, realizations=80_000, seed=3), st)
    # doubling N twice halves the standard error, within statistical scatter
    ratio = a.stderr / b.stderr
    assert 2.0 * 0.8 < ratio < 2.0 * 1.2


def test_node_refinement_bias_below_stderr():
    # optically thick, strongly absorbing layer: the midpoint-rule bias at
    # 2 nodes (~20%) towers over the ~0.3% statistical error, so refinement
    # toward the continuum value is visible above the noise
    st = Stack(VACUUM, (Layer(400e-9, ConstantEps(2 + 4j)),), VACUUM)
    k = 0.4 * OMEGA / C
    ctx = make_context(st, OMEGA, k)
    w_ref = emission_w(ctx, q="s", temperature=300.0, side=0)
    plans = [
        SamplePlan(omega=OMEGA, k=k, q="s", temperature=300.0,
                   nodes_per_layer=m, realizations=100_000, seed=11)
        for m in (2, 8, 64)
    ]
    ests = [sample_emission(p, st) for p in plans]
    errs = [abs(e.w - w_ref) for e in ests]
    assert errs[0] > 10.0 * ests[0].stderr      # coarse grid is visibly biased
    assert errs[1] < errs[0]
    assert errs[2] < errs[0]
    assert errs[2] < 3.0 * ests[2].stderr       # 64-node bias below the noise


def test_lossless_layer_warns():
    st = Stack(VACUUM, (Layer(100e-9, ConstantEps(2.25 + 0j)),), VACUUM)
    plan = SamplePlan(omega=OMEGA, k=1e6, realizations=10, seed=1)
    with pytest.warns(UserWarning) as record:
        est = sample_emission(plan, st)
    messages = [str(w.message) for w in record]
    assert any("lossless" in m for m in messages)
    assert est.w == 0.0


def test_bad_plans_rejected():
    st = absorbing_slab()
    with pytest.raises(ConfigError):
        sample_emission(SamplePlan(omega=OMEGA, k=1e6, realizations=0), st)
    with pytest.raises(ConfigError):
        sample_emission(SamplePlan(omega=OMEGA, k=1e6, nodes_per_layer=1), st)
    with pytest.raises(ConfigError):
        sample_emission(SamplePlan(omega=OMEGA, k=1e6), Stack(VACUUM, (), VACUUM))


def fresh_array_moments(seed, realizations, w):
    """Reference block loop: fresh draws per block, then (re + 1j im) / sqrt(2)."""
    s1 = s2 = 0.0
    for idx in range((realizations + BLOCK - 1) // BLOCK):
        rng = np.random.Generator(np.random.Philox(key=[np.uint64(seed), np.uint64(idx)]))
        draws = rng.standard_normal(size=(min(BLOCK, realizations - idx * BLOCK), w.size, 2))
        f = (draws[..., 0] + 1j * draws[..., 1]) / math.sqrt(2.0)
        w_vals = np.abs(f @ w) ** 2
        s1 += w_vals.sum()
        s2 += (w_vals * w_vals).sum()
    return s1, s2


def coupled_weights(monkeypatch, plan, stack):
    """The compacted weight vector that `sample_emission` hands to its block loop."""
    seen = []
    with monkeypatch.context() as m:
        m.setattr(sampler, "_moments", lambda seed, n, w: seen.append(w) or (0.0, 0.0))
        sample_emission(plan, stack)
    return seen[0]


LOSSY_LOSSLESS_LOSSY = Stack(
    VACUUM,
    (Layer(120e-9, ConstantEps(2 + 0.4j)), Layer(90e-9, ConstantEps(2.25 + 0j)),
     Layer(150e-9, ConstantEps(3 + 0.3j))),
    VACUUM,
)


@pytest.mark.filterwarnings("ignore:layer 2 is lossless")
@pytest.mark.parametrize("realizations", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 5])
def test_block_loop_bit_identical_to_fresh_arrays(monkeypatch, realizations):
    plan = SamplePlan(omega=OMEGA, k=0.5 * OMEGA / C, q="p", nodes_per_layer=16,
                      realizations=realizations, seed=21, side=4)
    w = coupled_weights(monkeypatch, plan, LOSSY_LOSSLESS_LOSSY)
    assert sampler._moments(plan.seed, realizations, w) == fresh_array_moments(plan.seed, realizations, w)


# coupled components per lossy layer: s keeps y; p keeps x and z, only x at k = 0
@pytest.mark.parametrize("q,k_frac,components", [("s", 0.5, 1), ("s", 0.0, 1), ("p", 0.5, 2),
                                                 ("p", 0.0, 1)])
def test_draws_only_coupled_components(monkeypatch, q, k_frac, components):
    plan = SamplePlan(omega=OMEGA, k=k_frac * OMEGA / C, q=q, nodes_per_layer=16,
                      realizations=100, seed=1)
    with pytest.warns(UserWarning, match="layer 2 is lossless"):
        w = coupled_weights(monkeypatch, plan, LOSSY_LOSSLESS_LOSSY)
    # two layer amplitudes per coupled component (s 2, p 4, p at k = 0 2 per
    # lossy layer) in each of the two lossy layers; the lossless one draws nothing
    assert w.size == 2 * components * 2
    assert np.all(w != 0)


@pytest.mark.filterwarnings("ignore:layer 2 is lossless")
@pytest.mark.parametrize("q", ["s", "p"])
def test_draw_count_does_not_grow_with_nodes(monkeypatch, q):
    sizes = [coupled_weights(monkeypatch, SamplePlan(omega=OMEGA, k=0.5 * OMEGA / C, q=q,
                                                     nodes_per_layer=m, realizations=1),
                             LOSSY_LOSSLESS_LOSSY).size
             for m in (16, 4096)]
    assert sizes[0] == sizes[1]


def cell_weights(plan, stack):
    """Oracle: one weight per (z-cell, component), u = sum_cells w_cell . f_cell.

    The cell variance n/dz is folded into the weights, so the draws they
    multiply are unit circular Gaussians; the variance of u is sum |w|^2.
    """
    ctx = make_context(stack, plan.omega, plan.k)
    row = ctx.side_row(plan.side)
    phi = io_matrix(scatter_set(ctx, plan.q)).phi
    occ = bose(plan.omega, plan.temperature)
    m = plan.nodes_per_layer
    weights = []
    for j in range(1, ctx.n):
        dz = ctx.d[j] / m
        z_cells = (np.arange(m) + 0.5) * dz
        beta = ctx.beta[j]
        pref = -(ctx.omega / C) * math.sqrt(max(ctx.eps[j].imag, 0.0)) / beta * dz
        phi_plus, phi_minus = phi[j - 1][row]
        e_plus, e_minus = ctx.pol_vector(plan.q, j, +1), ctx.pol_vector(plan.q, j, -1)
        w_plus = phi_plus * pref * np.exp(-1j * beta * z_cells)[:, None] * e_plus
        w_minus = phi_minus * pref * np.exp(1j * beta * z_cells)[:, None] * e_minus
        weights.append((w_plus + w_minus) * math.sqrt(occ / dz))
    return np.concatenate(weights).reshape(-1)


def random_passive_stack(rng):
    def eps(lossy):
        return ConstantEps(complex(rng.uniform(1.0, 6.0), rng.uniform(0.02, 2.0) if lossy else 0.0))

    def clad():
        return eps(True) if rng.random() < 0.5 else VACUUM

    layers = tuple(Layer(rng.uniform(20e-9, 300e-9), eps(rng.random() < 0.7))
                   for _ in range(rng.integers(1, 5)))
    return Stack(clad(), layers, clad())


@pytest.mark.filterwarnings("ignore:layer")
@pytest.mark.filterwarnings("ignore:no noise couples")
@pytest.mark.parametrize("case", range(24))
def test_layer_amplitudes_keep_the_cell_variance(monkeypatch, case):
    """Two draws per (lossy layer, component) give u the variance of one draw per cell."""
    rng = np.random.default_rng(1000 + case)
    st = random_passive_stack(rng)
    for q in ("s", "p"):
        for k_frac in (0.0, 1.5):
            for side in (0, st.n):
                m = int(rng.integers(2, 65))
                plan = SamplePlan(omega=OMEGA, k=k_frac * OMEGA / C, q=q, nodes_per_layer=m,
                                  realizations=1, side=side)
                v = coupled_weights(monkeypatch, plan, st)
                ref = np.sum(abs(cell_weights(plan, st)) ** 2)
                assert abs(np.sum(abs(v) ** 2) - ref) <= 1e-13 * ref, (q, k_frac, side, m)


def test_lossless_layer_between_lossy_ones():
    st = LOSSY_LOSSLESS_LOSSY
    k = 0.5 * OMEGA / C
    w_ref = emission_w(make_context(st, OMEGA, k), q="p", temperature=300.0, side=0)
    plan = SamplePlan(omega=OMEGA, k=k, q="p", temperature=300.0,
                      nodes_per_layer=64, realizations=50_000, seed=8)
    with pytest.warns(UserWarning, match="layer 2 is lossless"):
        est = sample_emission(plan, st)
    assert abs(est.w - w_ref) < 3.0 * est.stderr
