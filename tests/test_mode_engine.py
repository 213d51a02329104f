"""The array-valued mode engine against the scalar per-mode oracle and exact arithmetic."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mode_oracles as oracle
from conftest import C
from qplanar.commutators import commutator_set, grazing
from qplanar.errors import RegimeError, SingularInterfaceError
from qplanar.iorel import io_matrix
from qplanar.modes import make_context, upper_sqrt
from qplanar.scatter import scatter_set
from qplanar.stack import ConstantEps, Layer, Stack
from qplanar.thermal import bose, emission_w

_LOSSLESS = st.builds(complex, st.floats(1.0, 6.0), st.just(0.0))
_LOSSY = st.builds(complex, st.floats(1.0, 6.0), st.floats(0.01, 1.0))
_CLADDING = st.one_of(st.builds(complex, st.floats(1.0, 3.0), st.just(0.0)),
                      st.builds(complex, st.floats(1.0, 3.0), st.floats(1e-3, 1.0)))
_LAYER = st.builds(Layer, st.floats(20e-9, 400e-9),
                   st.builds(ConstantEps, st.one_of(_LOSSLESS, _LOSSY)))


@st.composite
def engine_cases(draw):
    """A random passive stack, omega, and k holding 0, every k_j exactly and its neighbours."""
    stack = Stack(ConstantEps(draw(_CLADDING)), tuple(draw(st.lists(_LAYER, max_size=4))),
                  ConstantEps(draw(_CLADDING)))
    omega = draw(st.floats(1e15, 3e15))
    kj = [x.real for x in oracle.make_context(stack, omega, 0.0).kj]
    ks = [0.0]
    for x in kj:
        ks += [x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf), x * (1.0 - 1e-9)]
    ks += draw(st.lists(st.floats(0.0, 2.5 * max(kj)), max_size=6))
    return stack, omega, np.array(ks)


def _largest(*refs) -> float:
    return max(float(np.max(np.abs(r), initial=0.0)) for r in refs)


def _close(got, ref, scale, conditioning=0.0):
    """Equal shapes and finiteness, and within 1e-12 of `scale` (the largest reference
    magnitude of the record) plus 64 ulp of `conditioning`: what rounding alone leaves
    next to a guided-mode pole, where a multiple-reflection denominator D_j cancels."""
    got, ref = np.asarray(got), np.asarray(ref)
    assert got.shape == ref.shape
    assert np.array_equal(np.isfinite(got), np.isfinite(ref))
    err = np.abs(got - ref) - 64 * np.finfo(float).eps * conditioning
    assert np.all(err <= 1e-12 * scale), np.max(err) / scale


def _per_k(values) -> np.ndarray:
    """Per-k oracle records (k first) to the engine layout (region or layer first)."""
    arr = np.array(values)
    return np.moveaxis(arr, 0, 1) if arr.ndim > 1 else arr


SCATTER = ("r_left", "r_right", "t_to0", "t_toN", "t_from0", "t_fromN", "d_fp")
COMMUTATORS = ("c_in0", "c_inN", "c_out0", "c_outN", "cross")


@settings(max_examples=40, deadline=None)
@given(engine_cases())
def test_engine_matches_scalar_oracle(case):
    stack, omega, ks = case
    ctx = make_context(stack, omega, ks)
    modes = [oracle.make_context(stack, omega, float(k)) for k in ks]
    beta = _per_k([m.beta for m in modes])
    _close(ctx.beta, beta, _largest(beta))
    # At k = k_j of a lossless layer r = -1 exactly on both of its faces: an
    # exact multiple-reflection pole, where scatter_set raises (see
    # test_lossless_layer_branch_point_raises_for_the_batch).  Adjacent regions
    # with beta = 0 both are an exact interface pole (see
    # test_exact_poles_raise_for_the_batch).
    zero = ctx.beta == 0.0
    pole = np.any(zero[1:-1], axis=0) | np.any(zero[:-1] & zero[1:], axis=0)
    ctx = ctx.select(~pole)
    # Within ~1e-6 of a lossless layer's branch point its multiple-reflection
    # denominators cancel to 1e-4..1e-8, compounding over equal layers, so the
    # coefficients there are ill-conditioned: they stay in the batch and must
    # be finite, and the other k are compared with the oracle.
    keep = ~np.any(np.abs(ctx.beta[1:-1]) < 1e-3 * np.abs(ctx.kj[1:-1]), axis=0)
    modes = [m for m, p in zip(modes, pole) if not p]
    modes = [m for m, kept in zip(modes, keep) if kept]
    for q in ("s", "p"):
        refs = [oracle.scatter_set(m, q) for m in modes]
        ref = {name: _per_k([getattr(r, name) for r in refs]).reshape(ctx.n + 1, -1) for name in SCATTER}
        s_ref, phi_ref = zip(*(oracle.io_matrix(r) for r in refs)) if refs else ((), ())
        ref["s_matrix"] = np.array(s_ref).reshape(-1, 2, 2)
        ref["phi"] = np.moveaxis(np.array(phi_ref).reshape(len(modes), ctx.n - 1, 2, 2), 0, 1)
        ss = scatter_set(ctx, q)
        io = io_matrix(ss)
        assert all(np.isfinite(getattr(ss, name)).all() for name in SCATTER)
        assert np.isfinite(io.phi).all()
        scale = _largest(*ref.values())
        # Next to a guided-mode pole ulp-level differences grow by 1 / min_j |D_j|;
        # Phi = (...) / D_j grows them once more, so it is compared as Phi D_j.
        inv_d = 1.0 / np.min(np.abs(ref["d_fp"]), axis=0, initial=np.inf)
        for name in SCATTER:
            _close(getattr(ss, name)[:, keep], ref[name], scale, scale * inv_d)
        _close(io.s_matrix[keep], ref["s_matrix"], scale, scale * inv_d[:, None, None])
        _close((io.phi * ss.d_fp[1:-1, ..., None, None])[:, keep],
               ref["phi"] * ref["d_fp"][1:-1, ..., None, None], scale, scale * inv_d[:, None, None])

        # Grazing k (beta = 0 in an outer region) are exactly the ones the oracle rejects.
        cref, graze = [], []
        for m in modes:
            try:
                cref.append(oracle.commutators(m, q))
            except RegimeError:
                graze.append(True)
            else:
                graze.append(False)
        np.testing.assert_array_equal(grazing(ctx)[keep], graze)
        sub = ctx.select(~grazing(ctx))
        sub_keep = keep[~grazing(ctx)]
        cs = commutator_set(sub, q)
        ref = {name: np.array([c[name] for c in cref]) for name in COMMUTATORS}
        ref["cmat"] = np.moveaxis(np.array([c["cmat"] for c in cref]).reshape(
            len(cref), ctx.n - 1, 2, 2), 0, 1)
        scale = _largest(*ref.values(), 1.0 / np.abs(sub.beta[[0, -1]]))
        inv_d = inv_d[~np.array(graze, dtype=bool)]
        for name in COMMUTATORS:
            _close(getattr(cs, name)[sub_keep], ref[name], scale, scale * inv_d)
        _close(cs.cmat[:, sub_keep], ref["cmat"], scale)
        kept = [m for m, g in zip(modes, graze) if not g]
        for side in (0, ctx.n):
            w_ref = np.array([oracle.emission_w(m, q, 300.0, side) for m in kept])
            w_scale = max(bose(omega, 300.0) * scale, _largest(w_ref))
            _close(emission_w(sub, q, 300.0, side)[sub_keep], w_ref, w_scale, w_scale * inv_d)


def test_exact_poles_raise_for_the_batch():
    omega = 2e15
    glass = ConstantEps(2.25 + 0j)
    k1 = 1.5 * omega / C
    # equal adjacent lossless media at their common light line: beta_0 + beta_1 = 0
    equal = Stack(glass, (Layer(1e-7, glass),), ConstantEps(1.0 + 0j))
    k_eq = float(make_context(equal, omega, 0.0).kj[0].real)
    for q in ("s", "p"):
        with pytest.raises(SingularInterfaceError):
            scatter_set(make_context(equal, omega, np.array([0.0, k_eq, 0.3 * k1])), q)
        with pytest.raises(SingularInterfaceError):
            oracle.scatter_set(oracle.make_context(equal, omega, k_eq), q)
    assert k_eq == pytest.approx(k1, rel=1e-15)


def test_lossless_layer_branch_point_raises_for_the_batch():
    rng = np.random.default_rng(4)
    for _ in range(200):
        n_layers = int(rng.integers(1, 4))
        lossless = rng.random(n_layers) < 0.5
        lossless[rng.integers(n_layers)] = True
        layers = tuple(Layer(float(rng.uniform(20e-9, 400e-9)),
                             ConstantEps(complex(rng.uniform(1.0, 6.0), 0.0 if free else rng.uniform(0.01, 1.0))))
                       for free in lossless)
        clad = [ConstantEps(complex(rng.uniform(1.0, 3.0), rng.choice([0.0, rng.uniform(1e-3, 1.0)])))
                for _ in range(2)]
        stack = Stack(clad[0], layers, clad[1])
        omega = float(rng.uniform(1e15, 3e15))
        j = int(rng.choice(np.flatnonzero(lossless))) + 1
        k = float(make_context(stack, omega, 0.0).kj[j].real)
        for q in ("s", "p"):
            for ks in (k, np.array([0.0, 0.5 * k, k, 2.0 * k])):
                with pytest.raises(SingularInterfaceError, match=r"beta = 0 in layer \d+ at k = "):
                    scatter_set(make_context(stack, omega, ks), q)
            ss = scatter_set(make_context(stack, omega, np.nextafter(k, [-np.inf, np.inf])), q)
            assert all(np.isfinite(getattr(ss, name)).all() for name in SCATTER)


def test_scalar_k_is_a_zero_d_array():
    stack = Stack(ConstantEps(1.0 + 0j), (Layer(1e-7, ConstantEps(2 + 0.3j)),), ConstantEps(1.0 + 0j))
    ctx = make_context(stack, 2e15, 1e6)
    assert ctx.k.shape == () and ctx.beta.shape == (3,)
    ss = scatter_set(ctx, "p")
    assert ss.r_left.shape == (3,) and ss.d_floor.shape == (3,)
    io = io_matrix(ss)
    assert io.s_matrix.shape == (2, 2) and io.phi.shape == (1, 2, 2)
    grid = make_context(stack, 2e15, np.full((4, 5), 1e6))
    assert grid.beta.shape == (3, 4, 5)
    io = io_matrix(scatter_set(grid, "p"))
    assert io.s_matrix.shape == (4, 5, 2, 2) and io.phi.shape == (1, 4, 5, 2, 2)
    np.testing.assert_array_equal(io.s_matrix[2, 3], io_matrix(ss).s_matrix)


def test_upper_sqrt_real_axis_is_exact_with_signed_zeros():
    z = np.array([complex(-4.0, 0.0), complex(-4.0, -0.0), complex(4.0, -0.0),
                  complex(-0.0, 0.0), complex(-0.0, -0.0), complex(-3.0, 0.0)])
    got = upper_sqrt(z)
    np.testing.assert_array_equal(got.real, [0.0, 0.0, 2.0, 0.0, 0.0, 0.0])
    np.testing.assert_array_equal(got.imag, [2.0, 2.0, 0.0, 0.0, 0.0, math.sqrt(3.0)])
    assert not np.signbit(got.real).any() and not np.signbit(got.imag).any()
    for zz, g in zip(z, got):
        assert oracle.upper_sqrt(complex(zz)) == g


# Exact references in lossless regions: beta^2 = (k_j - k)(k_j + k) in rationals
# from the same floats k_j and k, and r, t from those roots.

def _sqrt_fraction(x: Fraction, bits: int = 200) -> Fraction:
    """sqrt(x) for x >= 0, to an absolute 2^-bits."""
    return Fraction(math.isqrt(x.numerator * 4 ** bits // x.denominator), 2 ** bits)


def _exact_beta(kj: float, k: float) -> tuple[Fraction, Fraction]:
    b2 = (Fraction(kj) - Fraction(k)) * (Fraction(kj) + Fraction(k))
    return (_sqrt_fraction(b2), Fraction(0)) if b2 >= 0 else (Fraction(0), _sqrt_fraction(-b2))


def _mul(a, b):
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _div(a, b):
    d = b[0] * b[0] + b[1] * b[1]
    return (a[0] * b[0] + a[1] * b[1]) / d, (a[1] * b[0] - a[0] * b[1]) / d


def _near(x: float) -> list[float]:
    """x, nextafter(x, +/-inf) and 2..16 ulp off on both sides."""
    out = [x]
    for direction in (-np.inf, np.inf):
        y = x
        for m in range(16):
            y = np.nextafter(y, direction)
            if m in (0, 1, 3, 7, 15):
                out.append(float(y))
    return out


LOSSLESS_STACK = Stack(ConstantEps(1.0 + 0j),
                       (Layer(1e-7, ConstantEps(2.25 + 0j)), Layer(2e-7, ConstantEps(4.0 + 0j))),
                       ConstantEps(1.5 + 0j))


def test_beta_next_to_light_lines_matches_rational_arithmetic():
    omega = 2.5e15
    kj = make_context(LOSSLESS_STACK, omega, 0.0).kj
    assert np.all(kj.imag == 0.0)
    ks = np.array([k for x in kj.real for k in _near(float(x))])
    beta = make_context(LOSSLESS_STACK, omega, ks).beta
    for j, x in enumerate(kj.real):
        for k, b in zip(ks, beta[j]):
            re, im = _exact_beta(float(x), float(k))
            assert (b.real == 0.0) == (re == 0) and (b.imag == 0.0) == (im == 0)
            exact = re + im
            assert abs(Fraction(abs(b)) - exact) <= Fraction(1, 2 ** 51) * exact


@pytest.mark.parametrize("eps1", [2.25, 0.64])
def test_interface_r_t_next_to_light_lines_match_rational_arithmetic(eps1):
    omega = 2.5e15
    stack = Stack(ConstantEps(1.0 + 0j), (), ConstantEps(complex(eps1)))
    ctx0 = make_context(stack, omega, 0.0)
    k0, k1 = (float(x) for x in ctx0.kj.real)
    ks = np.array(_near(k0) + _near(k1))
    ctx = make_context(stack, omega, ks)
    w_c2 = Fraction(omega / C) ** 2
    root = (Fraction(k0) * Fraction(k1) / w_c2, Fraction(0))
    e0, e1 = (Fraction(1), Fraction(0)), (Fraction(eps1), Fraction(0))
    for q in ("s", "p"):
        ss = scatter_set(ctx, q)
        for i, k in enumerate(ks):
            b0, b1 = _exact_beta(k0, float(k)), _exact_beta(k1, float(k))
            if q == "s":
                num_r, num_t, den = (b0[0] - b1[0], b0[1] - b1[1]), (2 * b0[0], 2 * b0[1]), \
                    (b0[0] + b1[0], b0[1] + b1[1])
            else:
                x, y = _mul(e1, b0), _mul(e0, b1)
                num_r, den = (x[0] - y[0], x[1] - y[1]), (x[0] + y[0], x[1] + y[1])
                num_t = _mul((2 * b0[0], 2 * b0[1]), root)
            for got, (re, im) in ((ss.r_0n[i], _div(num_r, den)), (ss.t_0n[i], _div(num_t, den))):
                assert abs(got - complex(float(re), float(im))) <= 1e-14 * max(1.0, abs(got))


def test_beta_in_lossy_regions_matches_mpmath():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    omega = 2.5e15
    stack = Stack(ConstantEps(1.0 + 1e-6j), (Layer(1e-7, ConstantEps(-3.0 + 0.2j)),),
                  ConstantEps(2.0 + 0.5j))
    kj = make_context(stack, omega, 0.0).kj
    ks = np.array([k for x in kj.real for k in _near(abs(float(x)))] + [0.0, 1e-3 * abs(kj[0])])
    beta = make_context(stack, omega, ks).beta
    for j, x in enumerate(kj):
        xm = mp.mpc(x.real, x.imag)
        for k, b in zip(ks, beta[j]):
            ref = mp.sqrt((xm - k) * (xm + k))
            if ref.real < 0:
                ref = -ref
            assert abs(mp.mpc(b.real, b.imag) - ref) <= 4e-16 * abs(ref)
