import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as hst

from conftest import C, quarter_wave_stack, random_mode, random_stack
from qplanar.errors import SingularInterfaceError
from qplanar.modes import make_context
from mode_oracles import S_IDENTITY, SMatrix, propagation, scatter_set_stacked, star
from qplanar.scatter import D_CONDITION_FLOOR, interface_rt, scatter_set
from qplanar.stack import ConstantEps, Layer, Stack, VACUUM


def test_no_interface_is_identity():
    st = Stack(ConstantEps(2 + 0.1j), (), ConstantEps(2 + 0.1j))
    ctx = make_context(st, 2e15, 1e6)
    for q in ("s", "p"):
        rc = interface_rt(ctx, 0, 1, q)
        assert rc.r == pytest.approx(0.0, abs=1e-15)
        assert rc.t == pytest.approx(1.0, rel=1e-14)


def test_fresnel_normal_incidence():
    st = Stack(VACUUM, (), ConstantEps(2.25 + 0j))
    ctx = make_context(st, 2e15, 0.0)
    rs = interface_rt(ctx, 0, 1, "s")
    rp = interface_rt(ctx, 0, 1, "p")
    assert rs.r == pytest.approx((1 - 1.5) / (1 + 1.5), rel=1e-14)
    # the two polarizations degenerate in magnitude at k = 0
    assert abs(rp.r) == pytest.approx(abs(rs.r), rel=1e-14)
    assert rp.t == pytest.approx(rs.t, rel=1e-14)


def test_interface_identities():
    rng = np.random.default_rng(3)
    for _ in range(300):
        st = random_stack(rng, n_layers=1)
        omega, k, q = random_mode(rng)
        ctx = make_context(st, omega, k)
        ab = interface_rt(ctx, 0, 1, q)
        ba = interface_rt(ctx, 1, 0, q)
        # transmission ratio follows the propagation constants
        assert ab.t / ba.t == pytest.approx(ctx.beta[0] / ctx.beta[1], rel=1e-12)
        # single-interface consistency of the convention
        assert 1.0 - ab.r ** 2 == pytest.approx(ab.t * ba.t, rel=1e-12)
        assert ba.r == pytest.approx(-ab.r, rel=1e-12)


def test_empty_stack_coefficients():
    st = Stack(VACUUM, (), VACUUM)
    ctx = make_context(st, 2e15, 1e6)
    for q in ("s", "p"):
        ss = scatter_set(ctx, q=q)
        assert ss.r_0n == 0.0
        assert ss.t_0n == 1.0
        np.testing.assert_array_equal(ss.d_fp, [1.0 + 0.0j, 1.0 + 0.0j])


def test_quarter_wave_slab():
    omega = 2e15
    st = quarter_wave_stack(omega)
    ctx = make_context(st, omega, 0.0)
    for q in ("s", "p"):
        ss = scatter_set(ctx, q=q)
        assert abs(ss.r_0n) == pytest.approx(0.6, abs=1e-12)
        assert abs(ss.t_0n) ** 2 == pytest.approx(0.64, abs=1e-12)


def test_half_wave_slab_transparent():
    omega = 2e15
    k1 = 2.0 * omega / C
    st = Stack(VACUUM, (Layer(np.pi / k1, ConstantEps(4.0 + 0j)),), VACUUM)
    ctx = make_context(st, omega, 0.0)
    ss = scatter_set(ctx, q="s")
    assert abs(ss.r_0n) < 1e-14
    assert abs(ss.t_0n) == pytest.approx(1.0, abs=1e-14)


def test_fabry_perot_denominator_assembly():
    rng = np.random.default_rng(9)
    for _ in range(100):
        st = random_stack(rng)
        omega, k, q = random_mode(rng)
        ctx = make_context(st, omega, k)
        ss = scatter_set(ctx, q=q)
        # the same array expression over all regions, so the same rounding
        expected = 1.0 - ss.r_left * ss.r_right * ss.phase * ss.phase
        for j in range(1, ss.n):
            assert ss.d_fp[j] == expected[j]


def test_reciprocity_sweep():
    rng = np.random.default_rng(17)
    for _ in range(400):
        st = random_stack(rng)
        omega, k, q = random_mode(rng)
        ctx = make_context(st, omega, k)
        ss = scatter_set(ctx, q=q)
        lhs = ss.t_0n * ctx.beta[ctx.n]
        rhs = ss.t_n0 * ctx.beta[0]
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-300)


def test_lossless_unitarity():
    rng = np.random.default_rng(23)
    count = 0
    while count < 200:
        n_layers = int(rng.integers(1, 5))
        layers = tuple(
            Layer(float(rng.uniform(50e-9, 400e-9)),
                  ConstantEps(complex(rng.uniform(1.0, 6.0), 0.0)))
            for _ in range(n_layers)
        )
        st = Stack(VACUUM, layers, VACUUM)
        omega = float(rng.uniform(1e15, 3e15))
        k = float(rng.uniform(0.0, 0.99)) * omega / C
        q = str(rng.choice(["s", "p"]))
        ctx = make_context(st, omega, k)
        ss = scatter_set(ctx, q=q)
        assert abs(ss.r_0n) ** 2 + abs(ss.t_0n) ** 2 == pytest.approx(1.0, abs=1e-12)
        count += 1


def test_nesting_consistency():
    # composing the sub-stacks [0..j] and [j..n] through layer j's propagation
    # reproduces the whole-stack block
    rng = np.random.default_rng(31)
    for _ in range(100):
        st = random_stack(rng, n_layers=int(rng.integers(2, 6)))
        omega, k, q = random_mode(rng)
        ctx = make_context(st, omega, k)
        ss = scatter_set(ctx, q=q)
        j = int(rng.integers(1, st.n))
        left = Stack(st.medium0, st.layers[: j - 1], st.layers[j - 1].material)
        right = Stack(st.layers[j - 1].material, st.layers[j:], st.mediumN)
        ss_l = scatter_set(make_context(left, omega, k), q=q)
        ss_r = scatter_set(make_context(right, omega, k), q=q)
        sl = (ss_l.r_0n, ss_l.t_n0, ss_l.t_0n, ss_l.r_n0)
        sr = (ss_r.r_0n, ss_r.t_n0, ss_r.t_0n, ss_r.r_n0)
        whole = star(star(SMatrix(*sl), propagation(ss.phase[j])), SMatrix(*sr))
        scale = max(1.0, abs(ss.t_0n))
        assert abs(whole.r_l - ss.r_0n) < 1e-12 * scale
        assert abs(whole.t_lr - ss.t_0n) < 1e-12 * scale
        assert abs(whole.t_rl - ss.t_n0) < 1e-12 * scale
        assert abs(whole.r_r - ss.r_n0) < 1e-12 * scale


def test_extreme_attenuation_stays_finite():
    # beta'' d = 300: transfer matrices would overflow, the star product must not
    omega = 2e15
    k0 = omega / C
    d = 300.0 / (np.sqrt(2.0) * k0)  # beta'' ~ sqrt(2) k0 for eps = -1 + 4i-ish
    st = Stack(VACUUM, (Layer(d, ConstantEps(-1.0 + 4.0j)),), VACUUM)
    ctx = make_context(st, omega, 0.0)
    assert ctx.beta[1].imag * d > 250.0
    for q in ("s", "p"):
        ss = scatter_set(ctx, q=q)
        vals = [ss.r_0n, ss.r_n0, ss.t_0n, ss.t_n0, *ss.d_fp, *ss.t_to0, *ss.t_toN]
        assert all(np.isfinite([v.real, v.imag]).all() for v in vals)
        assert abs(ss.t_0n) < 1e-100  # graceful underflow


def test_khat_independence():
    st = Stack(VACUUM, (Layer(120e-9, ConstantEps(3 + 0.4j)),), VACUUM)
    s = 1 / np.sqrt(2.0)
    for q in ("s", "p"):
        a = scatter_set(make_context(st, 2e15, 4e6, khat=(1, 0)), q=q)
        b = scatter_set(make_context(st, 2e15, 4e6, khat=(s, s)), q=q)
        assert a.r_0n == b.r_0n
        assert a.t_0n == b.t_0n
        np.testing.assert_array_equal(a.d_fp, b.d_fp)


def test_star_identity_element():
    assert star(S_IDENTITY, S_IDENTITY) == S_IDENTITY


def test_guided_mode_pole_warns_not_fatal():
    # lossless slab between evanescent vacua supports true guided modes where
    # r[1->0] r[1->n] e^{2 i beta d} = 1; pick the thickness solving that
    # condition so |D| lands below the conditioning floor
    omega = 2e15
    k = 1.2 * omega / C
    probe = Stack(VACUUM, (Layer(100e-9, ConstantEps(2.25 + 0j)),), VACUUM)
    ctx = make_context(probe, omega, k)
    b1 = ctx.beta[1]
    ss = scatter_set(ctx, q="s")
    loop = ss.r_left[1] * ss.r_right[1]
    assert abs(abs(loop) - 1.0) < 1e-14  # total internal reflection
    d_star = (2 * np.pi - np.angle(loop)) / (2.0 * b1.real)
    st = Stack(VACUUM, (Layer(float(d_star), ConstantEps(2.25 + 0j)),), VACUUM)
    ss_pole = scatter_set(make_context(st, omega, k), q="s")
    assert abs(ss_pole.d_fp[1]) < 1e-13
    np.testing.assert_array_equal(ss_pole.d_floor, np.abs(ss_pole.d_fp) < D_CONDITION_FLOOR)
    assert ss_pole.d_floor.tolist() == [False, True, False]
    assert np.isfinite(ss_pole.t_0n.real)


def test_no_warning_far_from_pole():
    st = Stack(VACUUM, (Layer(100e-9, ConstantEps(2.25 + 0j)),), VACUUM)
    ctx = make_context(st, 2e15, 0.0)
    assert not scatter_set(ctx, q="s").d_floor.any()


_EPS = {
    "lossless": hst.builds(complex, hst.floats(1.0, 6.0), hst.just(0.0)),
    "lossy": hst.builds(complex, hst.floats(1.0, 6.0), hst.floats(1e-8, 1.0)),
    "negative": hst.builds(complex, hst.floats(-20.0, -1.0), hst.floats(0.0, 2.0)),
    "enz": hst.builds(complex, hst.floats(-0.01, 0.01), hst.floats(0.0, 1e-5)),
}
_MEDIUM = hst.builds(ConstantEps, hst.one_of(*_EPS.values()))
_FIELDS = ("r_left", "r_right", "t_to0", "t_toN", "phase", "d_fp", "d_floor")


@hst.composite
def recursion_cases(draw):
    """A stack of 0-20 layers whose media repeat often (t = 1 exactly between equal media),
    a batch of 1, 7 or 1,000 k in 0..2.5 omega/c with one k on a cladding light line at times."""
    outer = draw(hst.lists(_MEDIUM, min_size=1, max_size=3))
    pool = outer + draw(hst.lists(_MEDIUM, min_size=1, max_size=4))
    layers = draw(hst.lists(hst.builds(Layer, hst.floats(1e-9, 2e-6), hst.sampled_from(pool)),
                            max_size=20))
    stack = Stack(draw(hst.sampled_from(outer)), tuple(layers), draw(hst.sampled_from(outer)))
    omega = draw(hst.floats(1e15, 3e15))
    size = draw(hst.sampled_from((1, 7, 1000)))
    k = np.random.default_rng(draw(hst.integers(0, 2**32))).uniform(0.0, 2.5, size) * omega / C
    light_line = draw(hst.sampled_from((None, 0, len(layers) + 1)))
    if light_line is not None:
        k[0] = make_context(stack, omega, 0.0).kj[light_line].real
    return stack, omega, k, draw(hst.sampled_from(("s", "p")))


def _bits(a):
    """The bytes of `a` as unsigned integers: +0.0 and -0.0 differ, NaNs compare by payload."""
    return np.ascontiguousarray(a).view(np.uint8)


@settings(max_examples=60, deadline=None)
@given(recursion_cases())
@example((Stack(VACUUM, (), VACUUM), 2e15, np.array([0.0]), "s"))
@example((Stack(VACUUM, (Layer(1e-7, VACUUM),) * 3, VACUUM), 2e15, np.linspace(0.0, 2.0, 7) * 2e15 / C,
          "p"))
def test_scatter_set_equals_the_stacked_recursion_bit_for_bit(case):
    stack, omega, k, q = case
    ctx = make_context(stack, omega, k)
    try:
        ref = scatter_set_stacked(ctx, q)
    except SingularInterfaceError:
        with pytest.raises(SingularInterfaceError):
            scatter_set(ctx, q)
        return
    got = scatter_set(ctx, q)
    assert got.q == ref.q and got.n == ref.n
    for name in _FIELDS:
        a, b = getattr(got, name), getattr(ref, name)
        assert a.shape == b.shape and a.dtype == b.dtype, name
        np.testing.assert_array_equal(_bits(a), _bits(b), err_msg=name)


@pytest.mark.parametrize("n_layers,modes", [(20, 156), (3, 655)])
def test_scatter_set_allocates_a_few_times_what_it_returns(n_layers, modes):
    # Chunks the size of the benchmark's 20-layer sweep and certify ones.  Fresh step states,
    # stacked with their factors and offsets, peaked at 4.2-4.7x; one in-place two-row state, with
    # the TM interface temporaries freed early, at 2.6-3.0x.
    rng = np.random.default_rng(5)
    layers = tuple(Layer(float(rng.uniform(50e-9, 400e-9)),
                         ConstantEps(complex(rng.uniform(1.0, 6.0), rng.uniform(0.0, 1.0))))
                   for _ in range(n_layers))
    omega = np.repeat(np.linspace(1e15, 3e15, 4), -(-modes // 4))[:modes]
    ctx = make_context(Stack(VACUUM, layers, ConstantEps(2 + 0.1j)), omega,
                       rng.uniform(0.0, 2.5, modes) * omega / C)
    for q in ("s", "p"):
        scatter_set(ctx, q)
        tracemalloc.start()
        try:
            ss = scatter_set(ctx, q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        returned = sum(getattr(ss, name).nbytes for name in _FIELDS)
        assert peak < 3.5 * returned, peak / returned
