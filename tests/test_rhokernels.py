import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import C
import qplanar.bessel as bessel
import qplanar.rhokernels as rk
from kernel_oracles import accumulate_per_node, forward_modes, kspace_reference, tensor_modes_dft
from qplanar.cli import main
from qplanar.errors import AccuracyError, ConfigError
from qplanar.modes import make_context
from qplanar.rhokernels import (
    _MODES, _PATTERN, KERNEL_KINDS, GaussianWindow, _accumulate, _columns, _panel_edges, kernel_radial,
)
from qplanar.stack import ConstantEps, Layer, Stack, VACUUM, dump_stack

# The kernels divide by k rho = 0 on purpose; no NumPy warning may leave them.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

OMEGA = 2e15
K0 = OMEGA / C


def absorbing_env_stack():
    outer = ConstantEps(1.5 + 1.0j)
    return Stack(outer, (Layer(200e-9, ConstantEps(2 + 0.5j)),), outer)


def test_empty_stack_reflection_kernel_is_zero():
    st = Stack(VACUUM, (), VACUUM)
    win = GaussianWindow(k_w=1.5 * K0)
    rho = np.linspace(0.0, 8.0 / K0, 40)
    for kind in ("R0n", "Rn0"):
        field = kernel_radial(st, OMEGA, kind, win, rho)
        assert np.abs(field.tensor).max() == 0.0


def test_empty_stack_transmission_s_part_closed_form():
    # in-plane trace of the TE part of the free propagation kernel with a
    # Gaussian window: (k_w^2 / 2 pi) exp(-k_w^2 rho^2 / 2)
    st = Stack(VACUUM, (), VACUUM)
    win = GaussianWindow(k_w=1.2 * K0)
    rho = np.linspace(0.0, 6.0 / win.k_w, 60)
    field = kernel_radial(st, OMEGA, "T0n", win, rho)
    s_tensor = field.mode_profiles_q[0].sum(axis=0)
    trace = s_tensor[:, 0, 0] + s_tensor[:, 1, 1]
    expected = win.k_w ** 2 / (2.0 * math.pi) * np.exp(-win.k_w ** 2 * rho ** 2 / 2.0)
    np.testing.assert_allclose(trace.real, expected, rtol=1e-10, atol=1e-12 * expected[0])
    np.testing.assert_allclose(trace.imag, 0.0, atol=1e-12 * expected[0])


def test_s_part_is_transverse():
    field = kernel_radial(
        absorbing_env_stack(), OMEGA, "R0n", GaussianWindow(k_w=1.5 * K0),
        np.linspace(0.0, 6.0 / K0, 25),
    )
    s_part = field.mode_profiles_q[0]
    assert np.abs(s_part[..., 2, :]).max() == 0.0
    assert np.abs(s_part[..., :, 2]).max() == 0.0
    # the TM part carries the z rows/columns
    p_part = field.mode_profiles_q[1]
    assert np.abs(p_part[..., 2, :]).max() > 0.0


def test_round_trip_recovers_windowed_coefficients():
    st = absorbing_env_stack()
    win = GaussianWindow(k_w=1.5 * K0)
    rho = np.linspace(0.0, 34.0 / K0, 3401)
    field = kernel_radial(st, OMEGA, "R0n", win, rho)
    ks = np.linspace(0.02 * K0, 2.5 * K0, 20)
    recovered = forward_modes(field, ks)
    reference = kspace_reference(st, OMEGA, "R0n", win, ks)
    err = np.abs(recovered - reference).max() / np.abs(reference).max()
    assert err < 1e-4, err


def test_rotational_covariance():
    st = absorbing_env_stack()
    win = GaussianWindow(k_w=1.5 * K0)
    rho = np.linspace(0.0, 5.0 / K0, 12)
    field = kernel_radial(st, OMEGA, "T0n", win, rho)
    rotated = field.tensor_at(math.pi / 2.0)
    rot = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    expected = np.einsum("ab,rbc,dc->rad", rot, field.tensor, rot)
    np.testing.assert_allclose(rotated, expected, rtol=1e-11, atol=1e-13 * np.abs(field.tensor).max())


def test_phi_kernel_kind():
    st = absorbing_env_stack()
    win = GaussianWindow(k_w=1.2 * K0)
    rho = np.linspace(0.0, 4.0 / K0, 8)
    field = kernel_radial(st, OMEGA, "Phi0+", win, rho, layer=1)
    assert field.tensor.shape == (8, 3, 3)
    assert np.abs(field.tensor).max() > 0.0
    for layer in (0, st.n):
        with pytest.raises(ConfigError):
            kernel_radial(st, OMEGA, "Phi0+", win, rho, layer=layer)


def test_window_refinement_converged():
    # the adaptive loop must have seen a sub-1e-6 change between doublings;
    # an impossible tolerance with no refinement budget raises the accuracy error
    st = absorbing_env_stack()
    win = GaussianWindow(k_w=1.5 * K0)
    rho = np.linspace(0.0, 5.0 / K0, 10)
    kernel_radial(st, OMEGA, "R0n", win, rho, rel_tol=1e-6)
    with pytest.raises(AccuracyError, match="did not converge"):
        kernel_radial(st, OMEGA, "R0n", win, rho, rel_tol=1e-30, max_doublings=1)


def test_accuracy_error_names_the_rule_and_a_guided_mode_pole():
    # 150 nm of eps = 2.25 + 1e-3 i in vacuum guides a mode whose pole of r lies inside the window:
    # at the default 9 doublings the change still reads 8e-2, so 2 show the message as cheaply
    st = Stack(VACUUM, (Layer(150e-9, ConstantEps(2.25 + 1e-3j)),), VACUUM)
    with pytest.raises(AccuracyError) as err:
        kernel_radial(st, OMEGA, "R0n", GaussianWindow(k_w=1.5 * K0), np.linspace(0.0, 8.0 / K0, 9),
                      max_doublings=2)
    msg = str(err.value)
    assert "did not converge: last change " in msg and "at 96 nodes per panel" in msg
    assert "nearly lossless guiding layer" in msg and "max_doublings" not in msg


def test_bad_inputs():
    st = absorbing_env_stack()
    win = GaussianWindow(k_w=1.5 * K0)
    with pytest.raises(ConfigError):
        kernel_radial(st, OMEGA, "nope", win, np.array([0.0, 1e-7]))
    with pytest.raises(ConfigError):
        kernel_radial(st, OMEGA, "R0n", win, np.array([-1e-7]))
    with pytest.raises(ConfigError):
        GaussianWindow(k_w=-1.0)
    with pytest.raises(ConfigError, match="below 1e19"):   # the powers of k rho would overflow
        kernel_radial(st, OMEGA, "R0n", win, np.array([0.0, 1e19 / win.k_max]))


@pytest.mark.parametrize("max_doublings", [0, -1])
def test_max_doublings_below_one_is_config_error(max_doublings):
    with pytest.raises(ConfigError, match="max_doublings"):
        kernel_radial(absorbing_env_stack(), OMEGA, "R0n", GaussianWindow(k_w=1.5 * K0), np.array([0.0]),
                      max_doublings=max_doublings)


@pytest.mark.parametrize("rel_tol", [math.nan, math.inf, 0.0, -1e-7])
def test_bad_rel_tol_is_config_error(rel_tol):
    with pytest.raises(ConfigError, match="rel_tol"):
        kernel_radial(absorbing_env_stack(), OMEGA, "R0n", GaussianWindow(k_w=1.5 * K0), np.array([0.0]),
                      rel_tol=rel_tol)


def test_convergence_record():
    rel_tol = 1e-7
    field = kernel_radial(absorbing_env_stack(), OMEGA, "R0n", GaussianWindow(k_w=1.5 * K0),
                          np.linspace(0.0, 5.0 / K0, 10), rel_tol=rel_tol)
    assert 0.0 <= field.last_change < rel_tol
    m = round(math.log2(field.nodes_per_panel / 24))
    assert m >= 1 and field.nodes_per_panel == 24 * 2 ** m


def bessel_table(rho, k=np.ones(1)):
    """`bessel_j012` on x = rho k, in a fresh scratch."""
    rows = bessel.bessel_rows(rho, float(k.max()))
    return bessel.bessel_j012(rho, k, rows, np.empty((8, rho.size, k.size)))


def mp_bessel(n, x):
    """J_n at the doubles x, from 30 digits, rounded to doubles."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        return np.reshape([float(mp.besselj(n, v)) for v in np.ravel(x)], np.shape(x))


def test_bessel_j2_recurrence_matches_jv():
    # x = 0, subnormal, and small x, where 2 J_1 / x - J_0 would cancel or lose bits
    small = np.array([0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-160, 1e-20, 1e-8,
                      1e-4, 9.99e-4])
    b2 = bessel_table(small)[2].ravel()
    assert b2[0] == 0.0
    np.testing.assert_allclose(b2, mp_bessel(2, small), rtol=1e-13, atol=1e-300)
    x = np.concatenate([np.linspace(1e-3, 2e-3, 101), np.linspace(2e-3, 150.0, 2001)])
    for n, b in enumerate(bessel_table(x)):
        np.testing.assert_allclose(b.ravel(), mp_bessel(n, x), rtol=0.0, atol=1e-15)


def test_bessel_j012_within_1e15_of_mpmath():
    # [0, 200], 4 ulp either side of the range ends 2.5 and 5, 0 and subnormals, 1 ulp around 1e-3
    ends = np.concatenate([v + np.arange(-4, 5) * np.spacing(v) for v in (bessel._X1, bessel._X0)])
    x = np.concatenate([np.linspace(0.0, 200.0, 2001), ends, [5e-324, 1e-310, 2.2250738585072014e-308],
                        np.nextafter(1e-3, [0.0, 1.0]), [1e-3]])
    for n, b in enumerate(bessel_table(x)):
        np.testing.assert_allclose(b.ravel(), mp_bessel(n, x), rtol=0.0, atol=1e-15)
    # a block of the default kernels grid: k rho split across the two factors of each power
    rho = np.linspace(0.0, 12.0 / (1.5 * K0), 121)
    k = np.sort(np.random.default_rng(3).uniform(0.0, 8.6 * 1.5 * K0, 256))
    table = np.multiply.outer(rho, k)
    picks = np.random.default_rng(4).choice(table.size, 600, replace=False)
    for n, b in enumerate(bessel_table(rho, k)):
        np.testing.assert_allclose(b.ravel()[picks], mp_bessel(n, table.ravel()[picks]), rtol=0.0,
                                   atol=1e-15)


def test_bessel_tables_are_the_generator_output():
    pytest.importorskip("mpmath")
    from bessel_tables import tables

    for got, ref in zip((bessel._SERIES, bessel._MIDDLE, bessel._HANKEL), tables()):
        assert np.array_equal(np.array(got).view(np.int64), np.array(ref).view(np.int64))


def test_bessel_j012_equals_two_branch_oracle_bit_for_bit():
    # a fresh scratch and strided views of a wider one, as `_accumulate` passes for a short
    # block, give the same bits; the wider one starts as nan, which must not leak
    edge = np.nextafter(1e-3, [0.0, 1.0])
    x = np.concatenate([[0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-160, 1e-8, 1e-3],
                        edge, np.logspace(-12, 3, 2000)])
    rng = np.random.default_rng(5)
    for rho, k in ((x, np.ones(1)), (rng.uniform(0.0, 2e-6, 40), rng.uniform(0.0, 4e7, 64))):
        rows = bessel.bessel_rows(rho, float(k.max()))
        buf = np.full((8, rho.size, k.size + 5), np.nan)
        fresh = bessel.bessel_j012(rho, k, rows, np.empty((8, rho.size, k.size)))
        for b, ref in zip(bessel.bessel_j012(rho, k, rows, buf[..., :k.size]), fresh):
            assert b.shape == ref.shape == (rho.size, k.size)
            assert np.array_equal(b.view(np.int64), ref.view(np.int64))


def mp_legendre_node(mp, n, x0):
    """The root of P_n next to x0 and its Gauss weight, by Newton's method at mpmath's precision."""
    x = mp.mpf(float(x0))
    for _ in range(8):
        p0, p1 = mp.mpf(1), x
        for j in range(1, n):
            p0, p1 = p1, ((2 * j + 1) * x * p1 - j * p0) / (j + 1)
        dp = n * (p0 - x * p1) / (1 - x * x)
        dx = p1 / dp
        x -= dx
        if abs(dx) < mp.mpf(10) ** -38:
            break
    return x, 2 / ((1 - x * x) * dp * dp)


# Every node at n = 24, 25 and 96; the 2 central and 3 outermost nodes at n = 1536.
@pytest.mark.parametrize("n, picks", [(24, range(24)), (25, range(25)), (96, range(96)),
                                      (1536, [767, 768, 1533, 1534, 1535])])
def test_legendre_rule_matches_mpmath_newton_reference(n, picks):
    mp = pytest.importorskip("mpmath")
    x, w = rk._legendre_rule(n)
    with mp.workdps(40):
        for i in picks:
            ref_x, ref_w = mp_legendre_node(mp, n, x[i])
            assert abs(x[i] - ref_x) <= 3e-16
            assert abs(w[i] - ref_w) <= 1e-10 * ref_w   # numpy's leggauss: 1.5e-8 at n = 1536's ends


# Newton leaves the middle node of n = 59 at 6e-64, not 0
@pytest.mark.parametrize("n", [1, 2, 3, 24, 25, 59, 1536])
def test_legendre_rule_is_symmetric_and_sums_to_two(n):
    x, w = rk._legendre_rule(n)
    assert x.shape == w.shape == (n,)
    assert not (x.flags.writeable or w.flags.writeable)
    assert -1.0 < x[0] and np.all(np.diff(x) > 0.0)
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    assert abs(w.sum() - 2.0) <= 1e-15


def test_legendre_rule_integrates_even_monomials_exactly():
    x, w = rk._legendre_rule(24)
    for j in range(24):   # x^(2j) up to degree 46 = 2n - 2
        assert abs(w @ x ** (2 * j) - 2.0 / (2 * j + 1)) <= 1e-15


def test_legendre_rule_memory_is_linear_in_n():
    # numpy's dense leggauss(6144) solves a 6144 x 6144 eigenproblem: hundreds of MB
    tracemalloc.start()
    try:
        rk._legendre_rule.__wrapped__(6144)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20, peak


def branch_point_stack():
    # lossless claddings of two indices: panels [0, k0], [k0, 1.5 k0], [1.5 k0, k_max]
    return Stack(VACUUM, (Layer(150e-9, ConstantEps(3 + 0.4j)),), ConstantEps(2.25))


def closed_form_modes(stack, kind, layer, k):
    """Per-node angular modes (k, 2, 5, 3, 3) of the closed form, without the i^|n| of the Bessel integral."""
    cols = _columns(stack, OMEGA, kind, layer, k)[..., [0, 1, 2, 3, 4, 1, 2]]   # on J_0, J_1, J_2 in turn
    modes = (cols @ _PATTERN).reshape(k.shape + (2, len(_MODES), 3, 3))
    return modes / (1j ** np.abs(_MODES))[:, None, None]


def lossless_clad_stack():
    return Stack(VACUUM, (Layer(150e-9, ConstantEps(3 + 0.4j)), Layer(80e-9, ConstantEps(2 + 0.1j))),
                 ConstantEps(2.25))


@pytest.mark.parametrize("stack", [lossless_clad_stack(), absorbing_env_stack()], ids=["lossless", "lossy"])
@pytest.mark.parametrize("kind", KERNEL_KINDS)
def test_closed_form_modes_match_the_dft_oracle(stack, kind):
    layer = 1 if kind.startswith("Phi") else 0
    lines = [kj.real for kj in make_context(stack, OMEGA, 0.0).kj if kj.imag == 0.0]
    ks = [0.0, 1e-3 * K0, 0.37 * K0, 1.3 * K0, GaussianWindow(k_w=1.5 * K0).k_max]
    ks += [x for kl in lines for x in (np.nextafter(kl, 0.0), kl, np.nextafter(kl, np.inf))]
    for k in ks:
        ref = tensor_modes_dft(stack, OMEGA, kind, layer, np.array([k]))
        got = closed_form_modes(stack, kind, layer, np.array([k]))
        assert np.abs(got - ref).max() <= 1e-15 * np.abs(ref).max(), k


@pytest.mark.parametrize("kind", KERNEL_KINDS)
def test_symmetry_zeros_are_exact_and_positive(kind, tmp_path, capsys):
    stack, layer = lossless_clad_stack(), 1 if kind.startswith("Phi") else 0
    field = kernel_radial(stack, OMEGA, kind, GaussianWindow(k_w=1.5 * K0), np.linspace(0.0, 8.0 / K0, 17),
                          layer=layer)
    for part in (field.mode_profiles_q.real, field.mode_profiles_q.imag):
        assert not np.signbit(part[part == 0.0]).any()
    s_part = field.mode_profiles_q[0]
    assert np.all(s_part[[1, 3]] == 0.0)   # n = -1, 1
    assert np.all(s_part[..., 2, :] == 0.0) and np.all(s_part[..., :, 2] == 0.0)
    (tmp_path / "stack.json").write_text(dump_stack(stack))
    argv = ["kernels", "--stack", str(tmp_path / "stack.json"), "--omega", repr(OMEGA), "--kw", "1.5w",
            "--kind", kind, "--layer", str(layer), "--rho-points", "17"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "-0.000000000000e+00" not in out and "0.000000000000e+00" in out


@pytest.mark.parametrize("block", [1, 7, 50])
def test_node_blocks_across_panel_edges_match_per_node_oracle(monkeypatch, block):
    stack, window = branch_point_stack(), GaussianWindow(k_w=1.5 * K0)
    rho = np.array([0.0, 1e-8 / window.k_max, 0.7 / window.k_w, 4.0 / window.k_w])
    edges = _panel_edges(stack, OMEGA, window)
    assert len(edges) == 4
    monkeypatch.setattr(rk, "_NODE_BLOCK", block)
    for kind, layer in (("R0n", 0), ("Phi0-", 1)):
        got = _accumulate(stack, OMEGA, kind, layer, window, rho, edges, 24)
        ref = accumulate_per_node(stack, OMEGA, kind, layer, window, rho, edges, 24)
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def test_kernel_radial_does_not_depend_on_the_node_block(monkeypatch):
    stack, window = branch_point_stack(), GaussianWindow(k_w=1.5 * K0)
    rho = np.linspace(0.0, 6.0 / K0, 9)
    ref = kernel_radial(stack, OMEGA, "R0n", window, rho, rel_tol=1e-5)
    for block in (1, 7, 50):
        monkeypatch.setattr(rk, "_NODE_BLOCK", block)
        field = kernel_radial(stack, OMEGA, "R0n", window, rho, rel_tol=1e-5)
        assert field.nodes_per_panel == ref.nodes_per_panel
        diff = np.abs(field.mode_profiles_q - ref.mode_profiles_q).max()
        assert diff <= 1e-13 * np.abs(ref.mode_profiles_q).max()


_CLADDING = st.one_of(
    st.builds(complex, st.floats(1.0, 3.0), st.just(0.0)),     # lossless: a branch point
    st.builds(complex, st.floats(1.0, 3.0), st.floats(0.01, 1.0)),
)
_LAYER = st.builds(
    Layer, st.floats(20e-9, 300e-9),
    st.builds(ConstantEps, st.builds(complex, st.floats(1.0, 6.0), st.floats(0.0, 1.0))),
)


@st.composite
def kernel_cases(draw):
    kind = draw(st.sampled_from(KERNEL_KINDS))
    layers = draw(st.lists(_LAYER, min_size=1 if kind.startswith("Phi") else 0, max_size=3))
    stack = Stack(ConstantEps(draw(_CLADDING)), tuple(layers), ConstantEps(draw(_CLADDING)))
    layer = draw(st.integers(1, len(layers))) if kind.startswith("Phi") else 0
    window = GaussianWindow(k_w=draw(st.floats(0.5, 2.0)) * K0)
    # rho = 0, k rho ~ 1e-8 across the k range, and two ordinary radii
    rho = np.array([0.0, 1e-8 / window.k_max, 1e-8 / window.k_w, 0.7 / window.k_w, 4.0 / window.k_w])
    return stack, kind, layer, window, rho, draw(st.sampled_from([24, 64, 96, 160]))


@settings(max_examples=25, deadline=None)
@given(kernel_cases())
def test_block_accumulation_matches_per_node_oracle(case):
    stack, kind, layer, window, rho, n_nodes = case
    edges = _panel_edges(stack, OMEGA, window)
    got = _accumulate(stack, OMEGA, kind, layer, window, rho, edges, n_nodes)
    ref = accumulate_per_node(stack, OMEGA, kind, layer, window, rho, edges, n_nodes)
    assert np.all(np.isfinite(got))
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
