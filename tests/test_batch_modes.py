"""Modes batched across omega: one context over an (omega, k) grid against one context per omega."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import C
from qplanar.cli import main
from qplanar.commutators import (
    assembled_out, bosonic, bosonize, c_in, commutator_set, grazing, unitarity_residual,
)
from qplanar.constants import EPS0, HBAR, K_B, n0_scale
from qplanar.errors import SingularInterfaceError
from qplanar.greens import verify_green_identity
from qplanar.iorel import io_matrix
from qplanar.modes import make_context
from qplanar.scatter import scatter_set
from qplanar.stack import ConstantEps, DrudeLorentzEps, Layer, Stack, TabulatedEps, load_stack
from qplanar.thermal import bose, emission_w, kirchhoff_residual

_LOSSLESS = st.builds(complex, st.floats(1.0, 6.0), st.just(0.0))
_LOSSY = st.builds(complex, st.floats(1.0, 6.0), st.floats(0.01, 1.0))
_DRUDE = st.builds(DrudeLorentzEps, st.floats(1.0, 4.0),
                   st.tuples(st.tuples(st.floats(0.5, 3.0), st.floats(1.5e15, 3e15),
                                       st.floats(5e13, 3e14))))
_TABULATED = st.builds(
    lambda a, b: TabulatedEps((5e14, 2e15, 4e15), (a, b, a + b - 1.0)), _LOSSY, _LOSSY)
_MATERIAL = st.one_of(st.builds(ConstantEps, st.one_of(_LOSSLESS, _LOSSY)), _DRUDE, _TABULATED)
_CLADDING = st.one_of(st.just(ConstantEps(1.0 + 0j)),
                      st.builds(ConstantEps, st.builds(complex, st.floats(1.0, 3.0),
                                                       st.floats(1e-3, 1.0))),
                      _TABULATED)
_LAYER = st.builds(Layer, st.floats(20e-9, 400e-9), _MATERIAL)
_METAL = DrudeLorentzEps(2.0, ((3.0, 2.4e15, 1.5e14),))


@st.composite
def batch_cases(draw):
    """A random passive stack, 2-4 distinct omega, and k in omega/c units (k differs per omega)."""
    stack = Stack(draw(_CLADDING), tuple(draw(st.lists(_LAYER, max_size=4))), draw(_CLADDING))
    omegas = draw(st.lists(st.floats(1e15, 3e15), min_size=2, max_size=4, unique=True))
    fracs = draw(st.lists(st.floats(0.0, 2.5), min_size=1, max_size=6))
    return stack, omegas, fracs


def _close(got, ref, scale=None):
    """Equal shapes and finiteness, and within 1e-12 of the largest reference magnitude."""
    got, ref = np.asarray(got), np.asarray(ref)
    assert got.shape == ref.shape
    assert np.array_equal(np.isfinite(got), np.isfinite(ref))
    if scale is None:
        scale = float(np.max(np.abs(ref[np.isfinite(ref)]), initial=0.0))
    err = np.abs(np.where(np.isfinite(ref), got - ref, 0.0))
    assert np.all(err <= 1e-12 * scale), np.max(err) / scale


@settings(max_examples=30, deadline=None)
@given(batch_cases())
@example((Stack(ConstantEps(1.0 + 0j), (), ConstantEps(1.0 + 0j)), [1e15, 1e15 + 1.0], [1.0]))
@example((Stack(ConstantEps(2.0 + 0.5j), (Layer(1e-7, ConstantEps(1.0 + 0j)),), ConstantEps(1.5 + 0.1j)),
          [1e15, 2e15], [0.5, 1.0]))
def test_one_multi_omega_context_equals_per_omega_contexts(case):
    stack, omegas, fracs = case
    ks = [np.array(fracs) * om / C for om in omegas]
    batch = make_context(stack, np.repeat(omegas, len(fracs)), np.concatenate(ks))
    singles = [make_context(stack, om, k) for om, k in zip(omegas, ks)]

    def check(fn, axis=0, mask=None, exact=False):
        """fn on the batch (restricted to `mask`) against fn on each omega, joined along k."""
        sel = (lambda c, m: c) if mask is None else (lambda c, m: c.select(m))
        masks = [None] * len(singles) if mask is None else np.split(mask, len(singles))
        try:
            ref = np.concatenate([np.asarray(fn(sel(c, m))) for c, m in zip(singles, masks)], axis)
        except SingularInterfaceError:
            # an exact pole at one omega (k on a shared light line) is an exact pole of the batch
            with pytest.raises(SingularInterfaceError):
                fn(sel(batch, mask))
            return
        got = fn(sel(batch, mask))
        if exact:
            np.testing.assert_array_equal(got, ref)
        else:
            _close(got, ref)

    check(lambda c: c.omega, exact=True)
    for name in ("beta", "eps", "kj"):
        check(lambda c: getattr(c, name), axis=1)
    check(grazing, exact=True)
    for q in ("s", "p"):
        for name in ("r_left", "r_right", "t_to0", "t_toN", "t_from0", "t_fromN", "d_fp"):
            check(lambda c: getattr(scatter_set(c, q), name), axis=1)
        check(lambda c: io_matrix(scatter_set(c, q)).s_matrix)
        check(lambda c: io_matrix(scatter_set(c, q)).phi, axis=1)
        ok = ~grazing(batch)
        check(lambda c: c_in(c, q), mask=ok)
        check(lambda c: emission_w(c, q, 300.0, [0, c.n]), axis=1, mask=ok)

        def commutator_residual(c):
            cs = commutator_set(c, q)
            return np.max(np.abs(assembled_out(cs) - cs.c_out), axis=(-2, -1))

        check(commutator_residual, mask=ok)
        check(lambda c: bosonic(c, commutator_set(c, q)), mask=ok, exact=True)
        boson = ok.copy()
        boson[ok] = bosonic(batch.select(ok), commutator_set(batch.select(ok), q))
        check(lambda c: unitarity_residual(bosonize(c, commutator_set(c, q))), mask=boson)
        if np.all(batch.eps[[0, -1]] == 1.0):
            propagating = ok & (np.concatenate(ks) < batch.omega / C)
            check(lambda c: kirchhoff_residual(c, q, 300.0, [0, c.n]), axis=1, mask=propagating)
    if np.all(batch.eps[[0, -1]].imag > 0.0):
        for part in ("lhs", "rhs"):
            check(lambda c: getattr(verify_green_identity(c, nodes_per_layer=16), part))


def test_omega_broadcasts_against_k_and_an_empty_batch_keeps_its_region_axis():
    stack = Stack(ConstantEps(1.0 + 0j), (Layer(2e-7, _METAL),), ConstantEps(1.0 + 0j))
    k = np.linspace(0.0, 3e6, 3)
    grid = make_context(stack, np.array([[1e15], [2e15]]), k)
    assert grid.omega.shape == grid.k.shape == (2, 3) and grid.eps.shape == (3, 2, 3)
    for row, om in enumerate((1e15, 2e15)):
        one = make_context(stack, om, k)
        np.testing.assert_array_equal(grid.beta[:, row], one.beta)
        np.testing.assert_array_equal(emission_w(grid, "p")[row], emission_w(one, "p"))
    empty = make_context(stack, 2e15, np.array([]))
    assert empty.eps.shape == empty.kj.shape == empty.beta.shape == (3, 0)
    assert scatter_set(empty, "p").r_0n.shape == emission_w(empty, "s", 300.0, [0, 2]).shape[1:] == (0,)


def _scalar_bose(omega: float, temperature: float) -> float:
    if temperature == 0.0:
        return 0.0
    x = HBAR * omega / (K_B * temperature)
    return math.exp(-x) if x > 700.0 else 1.0 / math.expm1(x)


@pytest.mark.parametrize("temperature", [0.0, 1.0, 300.0, 1e4])
def test_array_bose_and_n0_scale_equal_the_scalar_math_forms(temperature):
    rng = np.random.default_rng(5)
    omega = rng.uniform(1e13, 1e16, (4, 50))
    omega[0, :3] = omega[1, :3]   # repeated values
    if temperature == 1.0:   # hbar omega / kB T = 700 at 9.17e13 rad/s: both branches
        assert np.any(HBAR * omega / (K_B * temperature) > 700.0)
        assert np.any(HBAR * omega / (K_B * temperature) <= 700.0)
    got_bose, got_n0 = bose(omega, temperature), n0_scale(omega)
    assert got_bose.shape == got_n0.shape == omega.shape
    for w, b, n0 in zip(omega.ravel().tolist(), got_bose.ravel().tolist(), got_n0.ravel().tolist()):
        assert b == _scalar_bose(w, temperature)
        assert n0 == math.pi * HBAR / EPS0 * (w / C) ** 2
    assert float(bose(2e15, temperature)) == _scalar_bose(2e15, temperature)


# Multi-omega grids where only the second omega fails: the error names that mode.

def _write(tmp_path, doc):
    path = tmp_path / "stack.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _const(re, im):
    return {"model": "constant", "eps_re": re, "eps_im": im}


def _slab(thickness, material):
    """A vacuum-clad single layer."""
    return {"medium0": _const(1.0, 0.0), "layers": [{"thickness_m": thickness, "material": material}],
            "mediumN": _const(1.0, 0.0)}


def test_lossless_branch_point_at_the_second_omega_names_it(tmp_path, capsys):
    doc = _slab(1.5e-7, _const(2.25, 0.0))
    k1 = float(make_context(load_stack(json.dumps(doc)), 2e15, 0.0).kj[1].real)
    rc = main(["coeffs", "--stack", _write(tmp_path, doc), "--omega", "1e15,2e15",
               "--k", f"0,{k1!r}"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: beta = 0 in layer 1 at k = {k1!r} ")
    assert f"omega = {2e15!r} rad/s" in captured.err


@pytest.mark.parametrize("argv", [["thermal"], ["verify", "--suite", "kirchhoff"]])
def test_overflowing_layer_at_the_second_omega_names_it(tmp_path, capsys, monkeypatch, argv):
    # The layer's Gram eigenvalues are made NaN at 2e15 rad/s only, as an overflow would leave
    # them; NaN passes the passivity check and propagates without a floating-point exception,
    # so no RuntimeWarning may reach pytest.
    import qplanar.commutators

    real = qplanar.commutators.gram_eigenvalues

    def nan_at_2e15(ctx, j):
        return tuple(np.where(ctx.omega == 2e15, np.nan, e) for e in real(ctx, j))

    monkeypatch.setattr(qplanar.commutators, "gram_eigenvalues", nan_at_2e15)
    doc = _slab(2e-7, _const(2.0, 0.5))
    rc = main([argv[0], "--stack", _write(tmp_path, doc), *argv[1:], "--omega", "5e14,2e15",
               "--k", "0.5w", "--pol", "p"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: emission is not finite at omega = 2.000000e+15 rad/s, "
                                   "k = 3.335641e+06 1/m: the noise coupling of layer 1 is not "
                                   "finite")


@pytest.mark.parametrize("command", ["coeffs", "thermal", "verify"])
def test_tabulated_out_of_range_at_the_second_omega_exits_2(tmp_path, capsys, command):
    doc = _slab(2e-7, {"model": "tabulated", "samples": [[1e15, 2.0, 0.5], [3e15, 2.2, 0.4]]})
    extra = ["--suite", "commutators"] if command == "verify" else []
    rc = main([command, "--stack", _write(tmp_path, doc), *extra, "--omega", "2e15,4e15",
               "--k", "0,0.5w"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: omega = 4000000000000000.0 outside table range")


def test_failing_verify_prints_the_worst_line_of_the_per_omega_run(tmp_path, capsys, monkeypatch):
    import qplanar.cli
    import qplanar.commutators

    real = qplanar.commutators.intraplate_eig

    def negated_at_2e15(ctx, q, j):   # breaks the commutator identity at 2e15 rad/s only
        eig = real(ctx, q, j)
        return np.where(ctx.omega == 2e15, -eig, eig)

    monkeypatch.setattr(qplanar.commutators, "intraplate_eig", negated_at_2e15)
    path = _write(tmp_path, _slab(2e-7, _const(2.0, 0.5)))

    def run(omega):
        rc = main(["verify", "--stack", path, "--suite", "commutators", "--omega", omega,
                   "--k", "0:1.4w:4"])
        assert rc == 1
        return capsys.readouterr().out.splitlines()

    batch = run("1e15,2e15")
    per_omega = run("2e15")
    monkeypatch.setattr(qplanar.cli, "_CHUNK_CELLS", 1)   # one mode per engine call
    one_mode = run("1e15,2e15")
    assert batch[0].startswith("suite=commutators points=16 skipped=0 ")
    assert batch[0].endswith("status=FAIL")
    assert batch[1].startswith("worst omega_rad_s=2.000000000000e+15 ")
    assert batch[1] == per_omega[1]
    assert one_mode == batch


def test_coeffs_reports_fabry_perot_floor_hits_on_stderr(tmp_path, capsys):
    # The lossless guided-mode pole of tests/test_scatter.py::test_guided_mode_pole_warns_not_fatal.
    omega, k = 2e15, 1.2 * 2e15 / C
    probe = make_context(load_stack(json.dumps(_slab(100e-9, _const(2.25, 0.0)))), omega, k)
    ss = scatter_set(probe, "s")
    d_star = float((2 * np.pi - np.angle(ss.r_left[1] * ss.r_right[1])) / (2.0 * probe.beta[1].real))
    path = _write(tmp_path, _slab(d_star, _const(2.25, 0.0)))
    rc = main(["coeffs", "--stack", path, "--omega", repr(omega), "--k", f"0,{k!r}"])
    assert rc == 0
    captured = capsys.readouterr()
    assert captured.err == "d_floor=1\n"   # (k, s) only
    rows = captured.out.splitlines()
    assert len(rows) == 2 + 4 and rows[-2].split(",")[2] == "s"
    rc = main(["coeffs", "--stack", path, "--omega", repr(omega), "--k", "0", "--pol", "s"])
    assert rc == 0
    assert capsys.readouterr().err == ""


def test_green_identity_of_a_mode_does_not_depend_on_its_batch():
    # The absorbing-clad 3-layer stack and 5 omega x 4 k grid of the benchmark's green-check.
    metal = Layer(4e-8, _METAL)
    clad = ConstantEps(1.5 + 0.3j)
    stack = Stack(clad, (metal, Layer(1.2e-7, ConstantEps(2.5 + 0.2j)), metal), clad)
    omega = np.repeat(np.linspace(1.2e15, 2.8e15, 5), 4)
    ctx = make_context(stack, omega, np.tile([0.1, 0.6, 1.1, 1.6], 5) * omega / C)
    batch = verify_green_identity(ctx, nodes_per_layer=200)
    for i in range(ctx.k.size):
        one = verify_green_identity(ctx.select(slice(i, i + 1)), nodes_per_layer=200)
        np.testing.assert_array_equal(one.lhs[0], batch.lhs[i])
        np.testing.assert_array_equal(one.residual[0], batch.residual[i])
