import importlib.util
import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import C
from qplanar import sampler
from qplanar.cli import main
from qplanar.commutators import gram_eigenvalues
from qplanar.errors import ConfigError
from qplanar.modes import make_context
from qplanar.sampler import BLOCK, sample_emission
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
    w, stderr = sample_emission(ctx, q, 300.0, side, realizations=50_000, seed=1234)
    assert stderr > 0.0
    assert abs(w - w_ref) < 3.0 * stderr


def test_multilayer_estimate():
    st = Stack(VACUUM,
               (Layer(150e-9, ConstantEps(3 + 0.4j)), Layer(100e-9, ConstantEps(2 + 0.8j))),
               VACUUM)
    k = 0.5 * OMEGA / C
    ctx = make_context(st, OMEGA, k)
    w_ref = emission_w(ctx, q="p", temperature=350.0, side=ctx.n)
    w, stderr = sample_emission(ctx, "p", 350.0, ctx.n, realizations=50_000, seed=5)
    assert abs(w - w_ref) < 3.0 * stderr


def test_zero_temperature_exact_zero():
    w, stderr = sample_emission(make_context(absorbing_slab(), OMEGA, 1e6), temperature=0.0,
                                realizations=100, seed=1)
    assert w == 0.0 and stderr == 0.0


def test_tiny_occupation_keeps_a_positive_stderr():
    """At 30 K, n(omega, T) ~ 1e-229: |u|^4 would underflow to 0 if n entered the draws."""
    ctx = make_context(absorbing_slab(), OMEGA, 3e6)
    w_ref = emission_w(ctx, q="s", temperature=30.0)
    w, stderr = sample_emission(ctx, "s", 30.0, realizations=20_000)
    assert stderr > 0.0
    assert abs(w - w_ref) < 5.0 * stderr


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
    [w] = coupled_weights(monkeypatch, ctx, q="p", side=4, realizations=realizations, seed=21)
    [got] = sampler._moments(21, realizations, [w])
    assert tuple(got) == fresh_array_moments(21, realizations, w)


@pytest.mark.filterwarnings("ignore:layer 2 is lossless")
@pytest.mark.parametrize("realizations", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 5])
def test_shared_draws_equal_fresh_arrays_at_every_width(monkeypatch, realizations):
    """One draw per block, as wide as the widest vector, gives each vector the sums of its own
    fresh draws, bit for bit."""
    ctx = make_context(LOSSY_LOSSLESS_LOSSY, OMEGA, np.array([0.0, 0.5]) * OMEGA / C)
    vectors = coupled_weights(monkeypatch, ctx, q=("s", "p"), side=4, realizations=realizations,
                              seed=21)
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
        [w] = coupled_weights(monkeypatch, ctx, q=q, realizations=100, seed=1)
    # two layer amplitudes per coupled component (s 2, p 4, p at k = 0 2 per
    # lossy layer) in each of the two lossy layers; the lossless one draws nothing
    assert w.size == 2 * components * 2
    assert np.all(w != 0)


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
    """Two draws per (lossy layer, component) give u the variance of white noise, one draw per
    z-cell in the limit of fine cells: sum |v|^2 is the closed-form emission over n(omega, T)."""
    rng = np.random.default_rng(1000 + case)
    st = random_passive_stack(rng)
    occ = bose(OMEGA, 300.0)
    for q in ("s", "p"):
        for k_frac in (0.0, 1.5):
            ctx = make_context(st, OMEGA, k_frac * OMEGA / C)
            for side in (0, st.n):
                [v] = coupled_weights(monkeypatch, ctx, q=q, side=side, realizations=1)
                ref = emission_w(ctx, q, 300.0, side) / occ
                assert abs(np.sum(abs(v) ** 2) - ref) <= 1e-13 * ref, (q, k_frac, side)


def _mode_function_gram(beta, d):
    """g and h of the Gram matrix by mpmath.quad of the mode functions at mpmath's precision, on
    panels no wider than a period of e^{2i beta' z}, and doubling from the face z = d outward
    on the decay length 1/beta''."""
    from mpmath import mp

    b = mp.mpc(beta.real, beta.imag)
    d = mp.mpf(d)
    period = mp.pi / b.real   # of e^{2i beta' z}
    decay = 1 / b.imag
    edges = {mp.mpf(0), d}
    edges.update(d - decay * 2 ** i for i in range(-2, 64) if decay * 2 ** i < d)
    edges.update(period * i for i in range(1, int(d / period) + 1))
    edges = sorted(edges)
    g = mp.quad(lambda z: abs(mp.exp(1j * b * (d - z))) ** 2, edges)
    h = mp.quad(lambda z: mp.conj(mp.exp(1j * b * (d - z))) * mp.exp(1j * b * z), edges)
    return g, h.real


def _thickness_at(eps, k_frac, part, target):
    """The thickness d of a layer of `eps` at which beta'' d ("imag") or beta' d ("real")
    rounds to exactly `target`: a switch point of the Gram eigenvalues' two forms."""
    st = Stack(VACUUM, (Layer(1e-7, ConstantEps(eps)),), VACUUM)
    b = getattr(make_context(st, OMEGA, k_frac * OMEGA / C).beta[1], part)
    d = target / b
    while b * d < target:
        d = np.nextafter(d, math.inf)
    while b * d > target:
        d = np.nextafter(d, -math.inf)
    assert b * d == target
    return float(d)


# eps, thickness, k / (omega/c): thin and weakly lossy layers (x and y far below 1, up to the
# light line), the absorbing slab, 15 um of weakly lossy eps = 4 + 0.01i (y = 200), very
# thick lossy layers, and x = beta'' d or y = beta' d at 1 and 1 +/- 1 ulp, where the
# eigenvalues switch between the series and the closed form
GRAM_CASES = [
    (2 + 1e-10j, 1e-9, 0.0), (2 + 1e-10j, 1e-9, 1.4142), (2 + 1e-10j, 1e-9, 1.41421356),
    (4 + 1e-6j, 1e-8, 0.5), (2 + 0.5j, 2e-7, 0.4), (4 + 0.01j, 1.5e-5, 0.0),
    (2 + 4j, 4e-7, 1.7), (-10 + 1j, 4e-5, 0.5), (-10 + 1j, 1e-3, 0.5),
    *((2 + 0.5j, _thickness_at(2 + 0.5j, 0.4, part, edge), 0.4) for part in ("imag", "real")
      for edge in (np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0))),
]


@pytest.mark.parametrize("eps,thickness,k_frac", GRAM_CASES)
def test_gram_eigenvalues_match_mpmath_quadrature(eps, thickness, k_frac):
    mpmath = pytest.importorskip("mpmath")
    st = Stack(VACUUM, (Layer(thickness, ConstantEps(eps)),), VACUUM)
    ctx = make_context(st, OMEGA, k_frac * OMEGA / C)
    beta = ctx.beta[1]
    plus, minus = gram_eigenvalues(ctx, 1)
    with mpmath.workdps(40):
        g, h = _mode_function_gram(complex(beta), thickness)
        for got, ref in ((plus, g + h), (minus, g - h)):
            assert abs(got - ref) <= 1e-14 * ref, (got, ref)


def test_lossless_layer_between_lossy_ones():
    st = LOSSY_LOSSLESS_LOSSY
    ctx = make_context(st, OMEGA, 0.5 * OMEGA / C)
    w_ref = emission_w(ctx, q="p", temperature=300.0, side=0)
    with pytest.warns(UserWarning, match="layer 2 is lossless"):
        w, stderr = sample_emission(ctx, "p", 300.0, realizations=50_000, seed=8)
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
        w, stderr = sample_emission(batch, q, 300.0, side, realizations=500, seed=3)
        assert w.shape == stderr.shape == k.shape
        assert np.all(w[:3] > 0.0) and np.all(w[3] == 0.0) and np.all(stderr[3] == 0.0)
        for at in np.ndindex(k.shape):
            one = sample_emission(make_context(st, omega[at[0], 0], k[at]), q, 300.0, side,
                                  realizations=500, seed=3)
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
        w, stderr = sample_emission(batch, ("s", "p"), 300.0, side, realizations=BLOCK + 5, seed=3)
        assert w.shape == stderr.shape == (2,) + k.shape
        for iq, q in enumerate("sp"):
            one = sample_emission(batch, q, 300.0, side, realizations=BLOCK + 5, seed=3)
            assert (w[iq].tobytes(), stderr[iq].tobytes()) == (one[0].tobytes(), one[1].tobytes())


def _bench_workloads():
    path = Path(__file__).parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_golden_and_benchmark_samples_resolve_their_layers(tmp_path, monkeypatch, capsys):
    """Neither the `sample` golden nor the benchmark's `sample` command at any input seed
    warns or prints anything to stderr."""
    from test_golden import CASES

    stack, argv = CASES["sample"]
    (tmp_path / "golden.json").write_text(json.dumps(stack))
    runs = [["sample", "--stack", "golden.json", *argv[1:]]]
    bench = _bench_workloads()
    for seed in range(bench.N_INPUT_SEEDS):
        wl = bench.make_workload("certify", seed)
        wl.write_stacks(tmp_path)
        runs += [[*c.argv, "--realizations", "100"] for c in wl.commands if c.kind == "sample"]
    monkeypatch.chdir(tmp_path)
    assert len(runs) == 1 + bench.N_INPUT_SEEDS
    for run in runs:
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            assert main(run) == 0
        assert record == [], run
    assert capsys.readouterr().err == ""
