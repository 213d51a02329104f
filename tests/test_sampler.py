import math

import numpy as np
import pytest

from conftest import C
from qplanar import sampler
from qplanar.errors import ConfigError
from qplanar.iorel import io_matrix
from qplanar.modes import make_context
from qplanar.sampler import BLOCK, sample_emission
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
    w, stderr = sample_emission(ctx, q, 300.0, side, nodes_per_layer=64, realizations=50_000,
                                seed=1234)
    assert stderr > 0.0
    assert abs(w - w_ref) < 3.0 * stderr


def test_multilayer_estimate():
    st = Stack(VACUUM,
               (Layer(150e-9, ConstantEps(3 + 0.4j)), Layer(100e-9, ConstantEps(2 + 0.8j))),
               VACUUM)
    k = 0.5 * OMEGA / C
    ctx = make_context(st, OMEGA, k)
    w_ref = emission_w(ctx, q="p", temperature=350.0, side=ctx.n)
    w, stderr = sample_emission(ctx, "p", 350.0, ctx.n, nodes_per_layer=64, realizations=50_000,
                                seed=5)
    assert abs(w - w_ref) < 3.0 * stderr


def test_zero_temperature_exact_zero():
    w, stderr = sample_emission(make_context(absorbing_slab(), OMEGA, 1e6), temperature=0.0,
                                realizations=100, seed=1)
    assert w == 0.0 and stderr == 0.0


def test_different_seeds_differ():
    ctx = make_context(absorbing_slab(), OMEGA, 1e6)
    a, _ = sample_emission(ctx, realizations=5000, seed=1)
    b, _ = sample_emission(ctx, realizations=5000, seed=2)
    assert a != b


def test_stderr_scaling_with_realizations():
    ctx = make_context(absorbing_slab(), OMEGA, 1e6)
    _, a = sample_emission(ctx, realizations=20_000, seed=3)
    _, b = sample_emission(ctx, realizations=80_000, seed=3)
    # doubling N twice halves the standard error, within statistical scatter
    ratio = a / b
    assert 2.0 * 0.8 < ratio < 2.0 * 1.2


def test_node_refinement_bias_below_stderr():
    # optically thick, strongly absorbing layer: the midpoint-rule bias at
    # 2 nodes (~20%) towers over the ~0.3% statistical error, so refinement
    # toward the continuum value is visible above the noise
    st = Stack(VACUUM, (Layer(400e-9, ConstantEps(2 + 4j)),), VACUUM)
    k = 0.4 * OMEGA / C
    ctx = make_context(st, OMEGA, k)
    w_ref = emission_w(ctx, q="s", temperature=300.0, side=0)
    ests = [sample_emission(ctx, "s", 300.0, nodes_per_layer=m, realizations=100_000, seed=11)
            for m in (2, 8, 64)]
    errs = [abs(w - w_ref) for w, _ in ests]
    assert errs[0] > 10.0 * ests[0][1]          # coarse grid is visibly biased
    assert errs[1] < errs[0]
    assert errs[2] < errs[0]
    assert errs[2] < 3.0 * ests[2][1]           # 64-node bias below the noise


def test_lossless_layer_warns():
    st = Stack(VACUUM, (Layer(100e-9, ConstantEps(2.25 + 0j)),), VACUUM)
    with pytest.warns(UserWarning) as record:
        w, _ = sample_emission(make_context(st, OMEGA, 1e6), realizations=10, seed=1)
    messages = [str(r.message) for r in record]
    assert any("lossless" in m for m in messages)
    assert w == 0.0


def test_bad_plans_rejected():
    ctx = make_context(absorbing_slab(), OMEGA, 1e6)
    with pytest.raises(ConfigError):
        sample_emission(ctx, realizations=0)
    with pytest.raises(ConfigError):
        sample_emission(ctx, nodes_per_layer=1)
    with pytest.raises(ConfigError):
        sample_emission(make_context(Stack(VACUUM, (), VACUUM), OMEGA, 1e6))


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


def coupled_weights(monkeypatch, ctx, **kwargs):
    """The compacted weight vectors that `sample_emission` hands to its block loop, one per
    polarization and mode, polarizations first."""
    seen = []

    def record(seed, n, vectors):
        seen.extend(vectors)
        return np.zeros((len(vectors), 2))

    with monkeypatch.context() as m:
        m.setattr(sampler, "_moments", record)
        sample_emission(ctx, **kwargs)
    return seen


LOSSY_LOSSLESS_LOSSY = Stack(
    VACUUM,
    (Layer(120e-9, ConstantEps(2 + 0.4j)), Layer(90e-9, ConstantEps(2.25 + 0j)),
     Layer(150e-9, ConstantEps(3 + 0.3j))),
    VACUUM,
)


@pytest.mark.filterwarnings("ignore:layer 2 is lossless")
@pytest.mark.parametrize("realizations", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 5])
def test_block_loop_bit_identical_to_fresh_arrays(monkeypatch, realizations):
    ctx = make_context(LOSSY_LOSSLESS_LOSSY, OMEGA, 0.5 * OMEGA / C)
    [w] = coupled_weights(monkeypatch, ctx, q="p", side=4, nodes_per_layer=16,
                          realizations=realizations, seed=21)
    [got] = sampler._moments(21, realizations, [w])
    assert tuple(got) == fresh_array_moments(21, realizations, w)


@pytest.mark.filterwarnings("ignore:layer 2 is lossless")
@pytest.mark.parametrize("realizations", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 5])
def test_shared_draws_equal_fresh_arrays_at_every_width(monkeypatch, realizations):
    """One draw per block, as wide as the widest vector, gives each vector the sums of its own
    fresh draws, bit for bit."""
    ctx = make_context(LOSSY_LOSSLESS_LOSSY, OMEGA, np.array([0.0, 0.5]) * OMEGA / C)
    vectors = coupled_weights(monkeypatch, ctx, q=("s", "p"), side=4, nodes_per_layer=16,
                              realizations=realizations, seed=21)
    vectors.insert(2, np.zeros(0, dtype=complex))
    vectors.append(vectors[-1][:3])
    assert [v.size for v in vectors] == [4, 4, 0, 4, 8, 3]
    sums = sampler._moments(21, realizations, vectors)
    for v, got in zip(vectors, sums):
        assert tuple(got) == fresh_array_moments(21, realizations, v)


# coupled components per lossy layer: s keeps y; p keeps x and z, only x at k = 0
@pytest.mark.parametrize("q,k_frac,components", [("s", 0.5, 1), ("s", 0.0, 1), ("p", 0.5, 2),
                                                 ("p", 0.0, 1)])
def test_draws_only_coupled_components(monkeypatch, q, k_frac, components):
    ctx = make_context(LOSSY_LOSSLESS_LOSSY, OMEGA, k_frac * OMEGA / C)
    with pytest.warns(UserWarning, match="layer 2 is lossless"):
        [w] = coupled_weights(monkeypatch, ctx, q=q, nodes_per_layer=16, realizations=100, seed=1)
    # two layer amplitudes per coupled component (s 2, p 4, p at k = 0 2 per
    # lossy layer) in each of the two lossy layers; the lossless one draws nothing
    assert w.size == 2 * components * 2
    assert np.all(w != 0)


@pytest.mark.filterwarnings("ignore:layer 2 is lossless")
@pytest.mark.parametrize("q", ["s", "p"])
def test_draw_count_does_not_grow_with_nodes(monkeypatch, q):
    ctx = make_context(LOSSY_LOSSLESS_LOSSY, OMEGA, 0.5 * OMEGA / C)
    sizes = [coupled_weights(monkeypatch, ctx, q=q, nodes_per_layer=m, realizations=1)[0].size
             for m in (16, 4096)]
    assert sizes[0] == sizes[1]


def cell_weights(ctx, q, side, m, temperature=300.0):
    """Oracle: one weight per (z-cell, component), u = sum_cells w_cell . f_cell.

    The cell variance n/dz is folded into the weights, so the draws they
    multiply are unit circular Gaussians; the variance of u is sum |w|^2.
    """
    row = ctx.side_row(side)
    phi = io_matrix(scatter_set(ctx, q)).phi
    occ = bose(ctx.omega, temperature)
    weights = []
    for j in range(1, ctx.n):
        dz = ctx.d[j] / m
        z_cells = (np.arange(m) + 0.5) * dz
        beta = ctx.beta[j]
        pref = -(ctx.omega / C) * math.sqrt(max(ctx.eps[j].imag, 0.0)) / beta * dz
        phi_plus, phi_minus = phi[j - 1][row]
        e_plus, e_minus = ctx.pol_vector(q, j, +1), ctx.pol_vector(q, j, -1)
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
                ctx = make_context(st, OMEGA, k_frac * OMEGA / C)
                [v] = coupled_weights(monkeypatch, ctx, q=q, side=side, nodes_per_layer=m,
                                      realizations=1)
                ref = np.sum(abs(cell_weights(ctx, q, side, m)) ** 2)
                assert abs(np.sum(abs(v) ** 2) - ref) <= 1e-13 * ref, (q, k_frac, side, m)


def test_lossless_layer_between_lossy_ones():
    st = LOSSY_LOSSLESS_LOSSY
    ctx = make_context(st, OMEGA, 0.5 * OMEGA / C)
    w_ref = emission_w(ctx, q="p", temperature=300.0, side=0)
    with pytest.warns(UserWarning, match="layer 2 is lossless"):
        w, stderr = sample_emission(ctx, "p", 300.0, nodes_per_layer=64, realizations=50_000,
                                    seed=8)
    assert abs(w - w_ref) < 3.0 * stderr


@pytest.mark.filterwarnings("ignore:layer 2 is lossless")
@pytest.mark.parametrize("q", ["s", "p"])
def test_batch_equals_one_call_per_mode(q):
    """Each mode of a batch draws its own streams: its estimate is the one-mode call's, bit for bit.

    The grid holds k = 0, propagating and evanescent k at several omega, and one omega whose
    occupation underflows to exactly 0 at 300 K next to modes that sample.
    """
    st = LOSSY_LOSSLESS_LOSSY
    omega = np.array([1.3e15, 2e15, 3.1e15, 5e17])[:, None]
    k = np.array([0.0, 0.4, 0.9, 1.6]) * omega / C
    batch = make_context(st, omega, k)
    for side in (0, st.n):
        w, stderr = sample_emission(batch, q, 300.0, side, nodes_per_layer=24, realizations=500,
                                    seed=3)
        assert w.shape == stderr.shape == k.shape
        assert np.all(w[:3] > 0.0) and np.all(w[3] == 0.0) and np.all(stderr[3] == 0.0)
        for at in np.ndindex(k.shape):
            one = sample_emission(make_context(st, omega[at[0], 0], k[at]), q, 300.0, side,
                                  nodes_per_layer=24, realizations=500, seed=3)
            assert (w[at].tobytes(), stderr[at].tobytes()) == (one[0].tobytes(), one[1].tobytes())


@pytest.mark.filterwarnings("ignore:layer 2 is lossless")
def test_polarization_sequence_equals_one_call_per_polarization():
    """q = ("s", "p") puts the polarization axis first and shares the draws: each polarization's
    estimates are its own call's, bit for bit, on the grid of the batch test above."""
    st = LOSSY_LOSSLESS_LOSSY
    omega = np.array([1.3e15, 2e15, 3.1e15, 5e17])[:, None]
    k = np.array([0.0, 0.4, 0.9, 1.6]) * omega / C
    batch = make_context(st, omega, k)
    for side in (0, st.n):
        w, stderr = sample_emission(batch, ("s", "p"), 300.0, side, nodes_per_layer=24,
                                    realizations=BLOCK + 5, seed=3)
        assert w.shape == stderr.shape == (2,) + k.shape
        for iq, q in enumerate("sp"):
            one = sample_emission(batch, q, 300.0, side, nodes_per_layer=24,
                                  realizations=BLOCK + 5, seed=3)
            assert (w[iq].tobytes(), stderr[iq].tobytes()) == (one[0].tobytes(), one[1].tobytes())
