import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import qplanar
from qplanar.cli import main
from qplanar.modes import make_context
from qplanar.stack import load_stack

SLAB = {
    "medium0": {"model": "constant", "eps_re": 1.0, "eps_im": 0.0},
    "layers": [
        {"thickness_m": 2e-7, "material": {"model": "constant", "eps_re": 2.0, "eps_im": 0.5}}
    ],
    "mediumN": {"model": "constant", "eps_re": 1.0, "eps_im": 0.0},
}

LOSSLESS = {
    "medium0": {"model": "constant", "eps_re": 1.0, "eps_im": 0.0},
    "layers": [
        {"thickness_m": 1.5e-7, "material": {"model": "constant", "eps_re": 2.25, "eps_im": 0.0}}
    ],
    "mediumN": {"model": "constant", "eps_re": 1.0, "eps_im": 0.0},
}

GREEN = {
    "medium0": {"model": "constant", "eps_re": 1.0, "eps_im": 0.01},
    "layers": [
        {"thickness_m": 2e-7, "material": {"model": "constant", "eps_re": 2.0, "eps_im": 0.2}}
    ],
    "mediumN": {"model": "constant", "eps_re": 1.0, "eps_im": 0.01},
}


@pytest.fixture
def stack_file(tmp_path):
    def write(doc, name="stack.json"):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    return write


def test_coeffs_empty_stack_rows(stack_file, tmp_path, capsys):
    vac = {
        "medium0": {"model": "constant", "eps_re": 1.0, "eps_im": 0.0},
        "layers": [],
        "mediumN": {"model": "constant", "eps_re": 1.0, "eps_im": 0.0},
    }
    rc = main(["coeffs", "--stack", stack_file(vac), "--omega", "1e15,2e15",
               "--k", "0,0.5w", "--pol", "s"])
    assert rc == 0
    out = capsys.readouterr().out
    lines = [l for l in out.strip().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    for row in lines[1:]:
        vals = dict(zip(header, row.split(",")))
        assert float(vals["r_0n_re"]) == 0.0 and float(vals["r_0n_im"]) == 0.0
        assert float(vals["t_0n_re"]) == 1.0 and float(vals["t_0n_im"]) == 0.0


def test_coeffs_quarter_wave_row(stack_file, capsys):
    # quarter-wave point: eps = 4 slab with beta d = pi/2 at omega = 2e15
    c = 299792458.0
    omega = 2e15
    d = (np.pi / 2) / (2 * omega / c)
    qw = {
        "medium0": {"model": "constant", "eps_re": 1.0, "eps_im": 0.0},
        "layers": [{"thickness_m": d, "material": {"model": "constant", "eps_re": 4.0, "eps_im": 0.0}}],
        "mediumN": {"model": "constant", "eps_re": 1.0, "eps_im": 0.0},
    }
    rc = main(["coeffs", "--stack", stack_file(qw), "--omega", f"{omega}",
               "--k", "0", "--pol", "s"])
    assert rc == 0
    out = capsys.readouterr().out
    lines = [l for l in out.strip().splitlines() if not l.startswith("#")]
    vals = dict(zip(lines[0].split(","), lines[1].split(",")))
    r = complex(float(vals["r_0n_re"]), float(vals["r_0n_im"]))
    t = complex(float(vals["t_0n_re"]), float(vals["t_0n_im"]))
    assert abs(r) == pytest.approx(0.6, abs=1e-12)
    assert abs(t) ** 2 == pytest.approx(0.64, abs=1e-12)


def test_coeffs_deterministic_bytes(stack_file, tmp_path):
    path = stack_file(SLAB)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["coeffs", "--stack", path, "--omega", "1e15:3e15:4", "--k", "0:2w:5"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_row_order_is_omega_major(stack_file, capsys):
    rc = main(["coeffs", "--stack", stack_file(SLAB), "--omega", "1e15,2e15",
               "--k", "0,1e6", "--pol", "s,p"])
    assert rc == 0
    out = capsys.readouterr().out
    rows = [l.split(",")[:3] for l in out.strip().splitlines()[2:]]
    keys = [(float(r[0]), float(r[1]), r[2]) for r in rows]
    assert keys == sorted(keys, key=lambda t: (t[0], t[1], t[2] == "p"))


def test_json_format(stack_file, capsys):
    rc = main(["coeffs", "--stack", stack_file(SLAB), "--omega", "2e15",
               "--k", "0", "--pol", "s", "--format", "json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == "qplanar-coeffs-v1"
    assert len(doc["rows"]) == 1


def test_verify_unitarity_lossless(stack_file, capsys):
    rc = main(["verify", "--stack", stack_file(LOSSLESS), "--suite", "unitarity",
               "--omega", "1e15:3e15:5", "--k", "0:0.95w:5", "--tol", "1e-12"])
    assert rc == 0
    assert "status=PASS" in capsys.readouterr().out


def test_verify_commutators_absorbing(stack_file, capsys):
    rc = main(["verify", "--stack", stack_file(SLAB), "--suite", "commutators",
               "--omega", "1e15:3e15:5", "--k", "0:2.3w:7"])
    assert rc == 0
    assert "status=PASS" in capsys.readouterr().out


def test_verify_negative_control_fails(stack_file, capsys, flip_p_transmission):
    rc = main(["verify", "--stack", stack_file(SLAB), "--suite", "commutators",
               "--omega", "1e15:3e15:4", "--k", "1.1w:2.3w:4"])
    assert rc == 1
    out = capsys.readouterr().out
    assert "status=FAIL" in out
    assert "worst" in out


def test_verify_kirchhoff(stack_file, capsys):
    rc = main(["verify", "--stack", stack_file(SLAB), "--suite", "kirchhoff",
               "--omega", "1e15:3e15:4", "--k", "0:0.9w:4"])
    assert rc == 0
    assert "status=PASS" in capsys.readouterr().out


def test_verify_green_suite(stack_file, capsys):
    rc = main(["verify", "--stack", stack_file(GREEN), "--suite", "green",
               "--omega", "1e15,2e15", "--k", "0.5w"])
    assert rc == 0
    assert "status=PASS" in capsys.readouterr().out


def test_green_check_command(stack_file, capsys):
    rc = main(["green-check", "--stack", stack_file(GREEN),
               "--omega", "2e15", "--k", "0,0.8w,1.4w"])
    assert rc == 0
    assert "status=PASS" in capsys.readouterr().out


def test_green_check_requires_absorbing_outer(stack_file, capsys):
    rc = main(["green-check", "--stack", stack_file(SLAB), "--omega", "2e15", "--k", "0"])
    assert rc == 2


def test_thermal_zero_temperature_all_zero(stack_file, capsys):
    rc = main(["thermal", "--stack", stack_file(SLAB), "--omega", "1e15:2e15:3",
               "--k", "0:1.5w:3", "--temp", "0"])
    assert rc == 0
    out = capsys.readouterr().out
    lines = [l for l in out.strip().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    col = header.index("w_n0_normalized")
    assert all(float(r.split(",")[col]) == 0.0 for r in lines[1:])


def test_sample_deterministic_bytes(stack_file, tmp_path):
    path = stack_file(SLAB)
    a, b = tmp_path / "s1.csv", tmp_path / "s2.csv"
    args = ["sample", "--stack", path, "--omega", "2e15", "--k", "0.5w",
            "--pol", "s", "--realizations", "2000", "--seed", "42"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_kernels_empty_stack_zero_rows(stack_file, capsys):
    vac = {
        "medium0": {"model": "constant", "eps_re": 1.0, "eps_im": 0.0},
        "layers": [],
        "mediumN": {"model": "constant", "eps_re": 1.0, "eps_im": 0.0},
    }
    rc = main(["kernels", "--stack", stack_file(vac), "--omega", "2e15",
               "--kind", "R0n", "--kw", "1.5w", "--rho-points", "5"])
    assert rc == 0
    out = capsys.readouterr().out
    lines = [l for l in out.strip().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    re_col, im_col = header.index("re"), header.index("im")
    for row in lines[1:]:
        cells = row.split(",")
        assert float(cells[re_col]) == 0.0 and float(cells[im_col]) == 0.0


def test_malformed_unit_usage_error(stack_file, capsys):
    rc = main(["coeffs", "--stack", stack_file(SLAB), "--omega", "2e15", "--k", "1bad"])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_missing_stack_file_usage_error(capsys):
    rc = main(["coeffs", "--stack", "/nonexistent.json", "--omega", "2e15", "--k", "0"])
    assert rc == 2


@pytest.mark.parametrize("target", ["missing/out.txt", "."])
@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv", [
    ["coeffs", "--omega", "2e15", "--k", "0,0.5w"],
    ["kernels", "--omega", "2e15", "--kw", "1.5w", "--rho-points", "5"],
])
def test_unwritable_out_usage_error(stack_file, tmp_path, capsys, argv, fmt, target):
    out = tmp_path / target   # a missing directory, or a directory itself
    rc = main([*argv, "--stack", stack_file(SLAB), "--format", fmt, "--out", str(out)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write output file {out}: ")


def test_unit_conversions(stack_file, capsys):
    # 1 eV and the equivalent rad/s give identical rows
    ev_rads = 1.602176634e-19 / 1.054571817e-34
    rc = main(["coeffs", "--stack", stack_file(SLAB), "--omega", "1eV", "--k", "0", "--pol", "s"])
    out_ev = capsys.readouterr().out
    rc2 = main(["coeffs", "--stack", stack_file(SLAB), "--omega", f"{ev_rads}",
                "--k", "0", "--pol", "s"])
    out_rads = capsys.readouterr().out
    assert rc == rc2 == 0
    assert out_ev == out_rads
    # 30 degrees converts to k = sin(30) omega / c
    rc3 = main(["coeffs", "--stack", stack_file(SLAB), "--omega", "2e15",
                "--k", "30deg", "--pol", "s"])
    out_deg = capsys.readouterr().out
    assert rc3 == 0
    k_val = float(out_deg.strip().splitlines()[2].split(",")[1])
    assert k_val == pytest.approx(0.5 * 2e15 / 299792458.0, rel=1e-12)


THREE_LAYERS = {
    "medium0": {"model": "constant", "eps_re": 1.0, "eps_im": 0.0},
    "layers": [
        {"thickness_m": 1e-7, "material": {"model": "constant", "eps_re": 2.0, "eps_im": 0.5}},
        {"thickness_m": 1.5e-7, "material": {"model": "constant", "eps_re": 3.0, "eps_im": 0.2}},
        {"thickness_m": 8e-8, "material": {"model": "constant", "eps_re": 2.5, "eps_im": 0.1}},
    ],
    "mediumN": {"model": "constant", "eps_re": 1.0, "eps_im": 0.0},
}


def test_tabulated_omega_out_of_range_is_config_error(stack_file, capsys):
    tab = dict(SLAB, layers=[{"thickness_m": 2e-7, "material": {
        "model": "tabulated", "samples": [[1e15, 2.0, 0.5], [3e15, 2.2, 0.4]]}}])
    rc = main(["coeffs", "--stack", stack_file(tab), "--omega", "4e15", "--k", "0"])
    assert rc == 2
    assert "outside table range" in capsys.readouterr().err


def _negate_noise_at(monkeypatch, omega):
    """Make the layers' Gram eigenvalues, and so their noise eigenvalues, negative at one
    frequency, upstream of the passivity check."""
    import qplanar.commutators

    real = qplanar.commutators.gram_eigenvalues

    def patched(ctx, j):
        return tuple(np.where(ctx.omega == omega, -e, e) for e in real(ctx, j))

    monkeypatch.setattr(qplanar.commutators, "gram_eigenvalues", patched)


def test_negative_emission_exits_1_with_error(stack_file, capsys, monkeypatch):
    _negate_noise_at(monkeypatch, 2e15)
    rc = main(["thermal", "--stack", stack_file(SLAB), "--omega", "2e15", "--k", "0.5w"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: layer 1 is not passive (q=s): a + b = -")
    assert "< 0 at omega = 2.000000e+15 rad/s, k = 3.335641e+06 1/m" in captured.err


def test_kirchhoff_suite_accuracy_error_fails_run(stack_file, capsys, monkeypatch):
    # one bad point among four must fail the run, not shrink points=
    _negate_noise_at(monkeypatch, 2e15)
    rc = main(["verify", "--stack", stack_file(SLAB), "--suite", "kirchhoff",
               "--omega", "1e15,2e15", "--k", "0,0.5w"])
    assert rc == 1
    captured = capsys.readouterr()
    assert "status=" not in captured.out
    assert "error: layer 1 is not passive (q=s): a + b = -" in captured.err
    assert "< 0 at omega = 2.000000e+15 rad/s" in captured.err


def _poison_layer(monkeypatch, layer):
    """Make the Gram eigenvalues of one layer NaN, as an overflow would leave them, in the
    closed form and in the sampler alike.

    NaN passes the passivity check and propagates through the products without a
    floating-point exception, so a RuntimeWarning on the way to the guard's error line would
    still fail the test.
    """
    import qplanar.commutators
    import qplanar.sampler

    real = qplanar.commutators.gram_eigenvalues

    def gram(ctx, j):
        at_layer = ctx.per_region(np.arange(ctx.n + 1), j) == layer
        return tuple(np.where(at_layer, np.nan, e) for e in real(ctx, j))

    monkeypatch.setattr(qplanar.commutators, "gram_eigenvalues", gram)
    monkeypatch.setattr(qplanar.sampler, "gram_eigenvalues", gram)


@pytest.mark.parametrize("command,what", [("thermal", "emission is"),
                                          ("sample", "sampler weights are")])
@pytest.mark.parametrize("pol", ["s", "p"])
def test_overflowing_layer_exits_1_instead_of_nan(stack_file, capsys, monkeypatch, command, what,
                                                  pol):
    _poison_layer(monkeypatch, 2)
    rc = main([command, "--stack", stack_file(THREE_LAYERS), "--omega", "2e15", "--k", "0.5w",
               "--pol", pol])
    assert rc == 1
    captured = capsys.readouterr()
    assert "nan" not in captured.out
    assert captured.err.startswith(f"error: {what} not finite at omega = 2.000000e+15 rad/s, "
                                   "k = 3.335641e+06 1/m: ")
    assert "layer 2 is not finite" in captured.err


# No ignore filter: pytest turns a RuntimeWarning into an error, so this shows that none is
# raised on the way to the error line.
@pytest.mark.parametrize("pol", ["s", "p", "s,p"])
def test_overflowing_layer_sample_prints_only_the_error_line(stack_file, capsys, monkeypatch, pol):
    _poison_layer(monkeypatch, 2)
    rc = main(["sample", "--stack", stack_file(THREE_LAYERS), "--omega", "2e15", "--k", "0.5w",
               "--pol", pol])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: sampler weights are not finite at omega = 2.000000e+15 rad/s, "
                            "k = 3.335641e+06 1/m: the noise coupling of layer 2 is not finite\n")


def _thick_metal(thickness):
    """Vacuum | eps = -10 + 1i | vacuum: 2 beta'' d is about 1,700 at 40 um and 42,000 at 1 mm
    at 2e15 rad/s, far beyond the e^709 that an amplitude referenced at the wrong face overflows at."""
    return dict(SLAB, layers=[{"thickness_m": thickness, "material": {
        "model": "constant", "eps_re": -10.0, "eps_im": 1.0}}])


def _table(out):
    header, *rows = [line.split(",") for line in out.splitlines() if not line.startswith("#")]
    return [dict(zip(header, row)) for row in rows]


THICK_GRID = ["--omega", "2e15", "--k", "0.1w:0.9w:9", "--pol", "s,p"]


@pytest.mark.parametrize("thickness", [4e-5, 1e-3])
def test_thick_lossy_slab_is_finite_and_passes_every_suite(stack_file, capsys, thickness):
    """The intraplate amplitudes of the slab are bounded: thermal is finite and positive, and
    the kirchhoff, commutators and unitarity suites pass at their tolerances, printing nothing
    to stderr (no error line, and no RuntimeWarning, which pytest would raise)."""
    path = stack_file(_thick_metal(thickness))
    assert main(["thermal", "--stack", path, *THICK_GRID]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    w = np.array([float(r["w_n0_normalized"]) for r in _table(captured.out)])
    assert w.size == 36 and np.all(np.isfinite(w)) and np.all(w > 0.0)   # 18 modes, 2 sides
    for suite in ("kirchhoff", "commutators", "unitarity"):
        assert main(["verify", "--stack", path, "--suite", suite, *THICK_GRID]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        line = dict(f.split("=") for f in captured.out.split())
        assert (line["points"], line["skipped"], line["status"]) == ("18", "0", "PASS")
        assert float(line["max_residual"]) <= (1e-12 if suite == "kirchhoff" else float(line["tol"]))


@pytest.mark.parametrize("eps_re,eps_im", [(-0.0084, 1.2e-6), (-0.05, 1e-4)])
def test_near_zero_eps_cladding_passes_the_commutators_suite(stack_file, capsys, eps_re, eps_im):
    """A lossy cladding with eps near 0, where |k_j| is small: at every k from 0.1 to 5 omega/c
    the closed-form output commutators are within 1e-12 of the assembly."""
    doc = dict(SLAB, layers=[{"thickness_m": 1e-7, "material": {"model": "constant",
                                                                "eps_re": 2.0, "eps_im": 0.1}}],
               mediumN={"model": "constant", "eps_re": eps_re, "eps_im": eps_im})
    rc = main(["verify", "--stack", stack_file(doc), "--suite", "commutators", "--omega", "2e15",
               "--k", "0.1w:5w:50", "--pol", "p"])
    line = dict(f.split("=") for f in capsys.readouterr().out.split())
    assert rc == 0
    assert (line["points"], line["skipped"], line["status"]) == ("50", "0", "PASS")
    assert float(line["max_residual"]) <= 1e-12


def _aliasing_slab():
    """eps = 4 + 0.01i, 64 periods of e^{2i beta' z} thick at omega = 2e15, k = 0 (15.1 um): a
    midpoint rule on 64 cells aliases the off-diagonal entry of its layer covariance there."""
    doc = dict(SLAB, layers=[{"thickness_m": 1e-6, "material": {
        "model": "constant", "eps_re": 4.0, "eps_im": 0.01}}])
    beta = make_context(load_stack(json.dumps(doc)), 2e15, 0.0).beta[1].real
    doc["layers"][0]["thickness_m"] = 64 * math.pi / beta
    return doc


@pytest.mark.parametrize("case", ["aliasing", 4e-5, 1e-3])
def test_thick_and_aliasing_slab_samples_are_within_5_stderr_of_thermal(stack_file, capsys, case):
    """The layer covariance is exact at any thickness: the aliasing slab and the 40 um and 1 mm
    metal slabs (2 beta'' d about 1,700 and 42,000) sample within 5 standard errors of the
    closed-form emission, warning nothing and printing nothing to stderr."""
    if case == "aliasing":
        path = stack_file(_aliasing_slab())
        grid, plan = ["--omega", "2e15", "--k", "0", "--pol", "s"], ["--realizations", "40000",
                                                                      "--seed", "1"]
    else:
        path, grid, plan = stack_file(_thick_metal(case)), ["--omega", "2e15", "--k", "0.5w"], []
    assert main(["thermal", "--stack", path, *grid]) == 0
    w_ref = [float(r["w_n0_normalized"]) for r in _table(capsys.readouterr().out) if r["side"] == "0"]
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        assert main(["sample", "--stack", path, *grid, *plan]) == 0
    assert record == []
    captured = capsys.readouterr()
    assert captured.err == ""
    rows = _table(captured.out)
    assert len(rows) == len(w_ref) == (1 if case == "aliasing" else 2)
    for r, ref in zip(rows, w_ref):
        assert abs(float(r["w_est_n0"]) - ref) <= 5.0 * float(r["stderr_n0"])


@pytest.mark.parametrize("side", ["1", "5", "-1"])
def test_sample_side_must_be_an_outer_region(stack_file, capsys, side):
    rc = main(["sample", "--stack", stack_file(THREE_LAYERS), "--omega", "2e15",
               "--k", "0.5w", "--realizations", "100", "--side", side])
    assert rc == 2
    assert "side must be 0 or 4" in capsys.readouterr().err


def test_sample_side_n_row_matches_library(stack_file, capsys):
    from qplanar.cli import _fmt
    from qplanar.sampler import sample_emission
    from qplanar.stack import load_stack

    rc = main(["sample", "--stack", stack_file(THREE_LAYERS), "--omega", "2e15",
               "--k", "0.5w", "--pol", "p", "--realizations", "3000", "--seed", "9",
               "--side", "4"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    k = 0.5 * 2e15 / 299792458.0
    w, stderr = sample_emission(make_context(load_stack(json.dumps(THREE_LAYERS)), 2e15, k), q="p",
                                temperature=300.0, side=4, realizations=3000, seed=9)
    expected = [_fmt(2e15), _fmt(k), "p", "4", _fmt(300.0), _fmt(w), _fmt(stderr), "3000", "9"]
    assert lines[2].split(",") == expected


# Philox takes the seed as one 64-bit key word: out-of-range seeds used to alias.
@pytest.mark.parametrize("seed,rc_expected", [(-1, 2), (2**64, 2), (2**64 - 1, 0)])
def test_sample_seed_must_fit_one_key_word(stack_file, capsys, seed, rc_expected):
    rc = main(["sample", "--stack", stack_file(SLAB), "--omega", "2e15", "--k", "0.5w",
               "--pol", "s", "--realizations", "100", "--seed", str(seed)])
    assert rc == rc_expected
    captured = capsys.readouterr()
    if rc_expected:
        assert "seed must satisfy 0 <= seed < 2**64" in captured.err
    else:
        assert captured.out.strip().endswith(f",100,{seed}")


def test_green_suite_builds_one_scatter_pair_per_chunk(stack_file, capsys, monkeypatch):
    # 3 omega x 2 k fit one chunk: one ScatterSet pair, and one coefficient call
    # per panel for all six modes together.  The field points coincide, so each
    # call serves both factors (the two tails and the layer's panel), and one
    # green_kernel call, one coefficient call per branch, serves g and g_rev.
    import qplanar.greens

    calls, panels, kernels = [], [], []
    real_scatter, real_panel = qplanar.greens.scatter_set, qplanar.greens._panel
    real_kernel = qplanar.greens.green_kernel

    def counting_scatter(ctx, q="s"):
        calls.append((ctx.k.size, q))
        return real_scatter(ctx, q)

    def counting_panel(ctx, *args):
        panels.append(ctx.k.size)
        return real_panel(ctx, *args)

    def counting_kernel(ctx, *args, **kwargs):
        kernels.append(ctx.k.size)
        return real_kernel(ctx, *args, **kwargs)

    monkeypatch.setattr(qplanar.greens, "scatter_set", counting_scatter)
    monkeypatch.setattr(qplanar.greens, "_panel", counting_panel)
    monkeypatch.setattr(qplanar.greens, "green_kernel", counting_kernel)
    rc = main(["verify", "--suite", "green", "--stack", stack_file(GREEN),
               "--omega", "1e15:3e15:3", "--k", "0,0.8w"])
    assert rc == 0
    assert capsys.readouterr().out.startswith("suite=green points=6 skipped=0 ")
    assert calls == [(6, "s"), (6, "p")]
    assert panels == [6] * 5
    assert kernels == [6]


@pytest.mark.parametrize("doc,rc_expected", [(GREEN, 0), (SLAB, 2)])
def test_green_check_is_verify_green_alias(stack_file, capsys, doc, rc_expected):
    grid = ["--stack", stack_file(doc), "--omega", "1e15,2e15", "--k", "0,0.8w"]
    rc_alias = main(["green-check", *grid])
    alias = capsys.readouterr()
    rc_suite = main(["verify", "--suite", "green", *grid])
    suite = capsys.readouterr()
    assert rc_alias == rc_suite == rc_expected
    assert (alias.out, alias.err) == (suite.out, suite.err)
    if rc_expected == 0:
        assert alias.out.startswith("suite=green points=4 skipped=0 ")
        assert "tol=1.0e-10 status=PASS" in alias.out


def test_kernels_layer_out_of_range_exits_2(stack_file, capsys):
    rc = main(["kernels", "--stack", stack_file(THREE_LAYERS), "--omega", "2e15",
               "--kind", "Phi0-", "--layer", "4", "--kw", "1.5w", "--rho-points", "3"])
    assert rc == 2
    assert "layer index in 1..3" in capsys.readouterr().err


def test_thermal_skips_light_line_points(stack_file, capsys):
    # k = 0:2w:41 puts k = omega/c (beta_0 = 0) on the grid: both pols skip it
    rc = main(["thermal", "--stack", stack_file(SLAB), "--omega", "2e15", "--k", "0:2w:41"])
    assert rc == 0
    captured = capsys.readouterr()
    lines = captured.out.strip().splitlines()
    assert lines[0] == "# schema=qplanar-thermal-v1"
    assert len(lines) - 2 == 160
    assert captured.err.strip() == "skipped=2"


def test_thermal_all_points_skipped_exits_2(stack_file, capsys):
    rc = main(["thermal", "--stack", stack_file(SLAB), "--omega", "2e15", "--k", "1w"])
    assert rc == 2
    assert "no grid point" in capsys.readouterr().err


@pytest.mark.parametrize("extra,chunk_cells", [(["--format", "json"], None), ([], 100)])
def test_thermal_all_points_skipped_in_json_and_in_every_chunk_exits_2(
        stack_file, capsys, monkeypatch, extra, chunk_cells):
    # k = omega/c grazes at every omega.  The table is one empty text per chunk: one chunk
    # of three modes, or with 100 cells per chunk (40 per mode) chunks of two and one.
    import qplanar.cli

    if chunk_cells:
        monkeypatch.setattr(qplanar.cli, "_CHUNK_CELLS", chunk_cells)
    rc = main(["thermal", "--stack", stack_file(SLAB), "--omega", "1e15,2e15,3e15", "--k", "1w",
               *extra])
    assert rc == 2
    captured = capsys.readouterr()
    assert "no grid point" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("points", ["0", "-1"])
def test_kernels_rho_points_below_one_exits_2(stack_file, capsys, points):
    rc = main(["kernels", "--stack", stack_file(SLAB), "--omega", "2e15",
               "--kind", "R0n", "--kw", "1.5w", "--rho-points", points])
    assert rc == 2
    assert "--rho-points must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["coeffs", "--omega", "nan"],
    ["coeffs", "--omega", "inf"],
    ["coeffs", "--omega", "1e400"],
    ["coeffs", "--omega", "2e15", "--k", "nan"],
    ["thermal", "--omega", "2e15", "--k", "0.5w", "--temp", "nan"],
    ["thermal", "--omega", "2e15", "--k", "0.5w", "--temp", "inf"],
    ["kernels", "--omega", "2e15", "--kw", "nan"],
    ["kernels", "--omega", "2e15", "--kw", "1.5w", "--rho-max-over-kw", "nan"],
])
def test_non_finite_inputs_exit_2(stack_file, capsys, args):
    rc = main([args[0], "--stack", stack_file(SLAB), *args[1:]])
    assert rc == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("nodes", ["0", "-1", "-3"])
def test_green_check_node_count_below_two_exits_2(stack_file, capsys, nodes):
    rc = main(["green-check", "--stack", stack_file(GREEN), "--omega", "2e15", "--k", "0.5w",
               "--nodes", nodes])
    assert rc == 2
    assert "at least 2 quadrature nodes" in capsys.readouterr().err


def test_green_node_count_is_ignored(stack_file, capsys):
    # The identity is integrated in closed form: `--nodes` is parsed, checked and read by
    # nothing else.
    lines = []
    for nodes in ("2", "200"):
        for command in (["green-check"], ["verify", "--suite", "green"]):
            assert main([*command, "--stack", stack_file(GREEN), "--omega", "1e15:3e15:3",
                         "--k", "0,0.8w,1.4w", "--nodes", nodes]) == 0
            lines.append(capsys.readouterr())
    assert all(line == lines[0] for line in lines)
    assert lines[0].err == ""
    assert lines[0].out.startswith("suite=green points=9 skipped=0 ")


@pytest.mark.parametrize("command", [["verify", "--suite", "commutators"], ["green-check"]])
@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_tol_must_be_finite_and_nonnegative(stack_file, capsys, command, tol):
    rc = main([*command, "--stack", stack_file(GREEN), "--omega", "2e15", "--k", "0.5w",
               f"--tol={tol}"])
    assert rc == 2
    assert "--tol must be finite and >= 0" in capsys.readouterr().err


def loaded_after(code: str) -> str:
    """The last stdout line of `code` in a fresh interpreter, then the sorted scipy, mpmath and
    numpy.polynomial modules it loaded."""
    env = {**os.environ, "PYTHONPATH": str(Path(qplanar.__file__).resolve().parents[1])}
    code += ("\nimport sys; print(sorted(m for m in sys.modules"
             " if m.split('.')[0] in ('scipy', 'mpmath') or m.startswith('numpy.polynomial')))")
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True, timeout=60).stdout.splitlines()[-1]


def test_cli_import_does_not_load_scipy_special():
    assert loaded_after("import qplanar.cli") == "[]"


def test_kernels_run_loads_no_scipy(stack_file):
    argv = ["kernels", "--stack", stack_file(GREEN), "--omega", "2e15", "--kw", "1.5w", "--kind", "R0n",
            "--rho-points", "5"]
    assert loaded_after(f"import qplanar.cli; assert qplanar.cli.main({argv!r}) == 0") == "[]"


def test_non_finite_residual_fails_verify(stack_file, capsys, monkeypatch):
    import qplanar.cli

    real = qplanar.cli.unitarity_residual

    def nan_at_every_other_mode(bos):
        res = np.array(real(bos), dtype=float)
        res[..., 1::2] = np.nan
        return res

    monkeypatch.setattr(qplanar.cli, "unitarity_residual", nan_at_every_other_mode)
    rc = main(["verify", "--stack", stack_file(LOSSLESS), "--suite", "unitarity",
               "--omega", "1e15,2e15", "--k", "0,0.5w", "--pol", "s"])
    assert rc == 1
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("suite=unitarity points=4 skipped=0 max_residual=nan ")
    assert lines[0].endswith("status=FAIL")
    k = 0.5 * 1e15 / 299792458.0
    assert lines[1] == f"worst omega_rad_s={1e15:.12e} k_inv_m={k:.12e} pol=s"


def test_row_template_matches_fstring_formatting():
    from qplanar.cli import _FLOAT, _rows

    tiny = np.nextafter(0.0, 1.0)
    values = [-0.0, 0.0, np.nan, np.inf, -np.inf, tiny, -tiny, 2.2250738585072014e-308 / 3,
              1e300, -1e300, 1e-300, -1e-300, 1.0, 2.0 / 3.0, 123456.789e-20]
    table = np.array([values, values[::-1]])
    template = f"s,{_FLOAT},0," + ",".join([_FLOAT] * (len(values) - 1))
    expected = "".join(f"s,{row[0]:.12e},0," + ",".join(f"{x:.12e}" for x in row[1:]) + "\n"
                       for row in table.tolist())
    assert _rows(template, table) == expected


def _percent_rows(template, values):
    """The row writer's contract, one `%` per row."""
    rows = np.asarray(values, dtype=float).reshape(len(values), -1).tolist()
    return "".join(template % tuple(row) + "\n" for row in rows)


FIVE_LAYERS = dict(THREE_LAYERS, layers=THREE_LAYERS["layers"] + SLAB["layers"] + LOSSLESS["layers"])
_TABLE_GRID = ["--omega", "1e15:3e15:3", "--k", "0.05w:1.65w:9", "--pol", "s,p"]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv,doc,chunk_cells", [
    (["coeffs", *_TABLE_GRID], SLAB, None),
    (["coeffs", *_TABLE_GRID], SLAB, 100),
    (["coeffs", *_TABLE_GRID], FIVE_LAYERS, None),
    (["coeffs", *_TABLE_GRID], FIVE_LAYERS, 100),
    (["thermal", *_TABLE_GRID], SLAB, None),
    (["sample", *_TABLE_GRID, "--realizations", "200"], SLAB, None),
    (["kernels", "--omega", "2e15", "--kw", "1.5w", "--rho-points", "7"], THREE_LAYERS, None),
])
def test_tables_are_the_bytes_of_one_percent_per_row(stack_file, capsys, monkeypatch, argv, doc,
                                                     chunk_cells, fmt):
    import qplanar.cli

    if chunk_cells:
        monkeypatch.setattr(qplanar.cli, "_CHUNK_CELLS", chunk_cells)
    argv = [argv[0], "--stack", stack_file(doc), *argv[1:], "--format", fmt]
    assert main(argv) == 0
    written = capsys.readouterr().out
    monkeypatch.setattr(qplanar.cli, "_rows", _percent_rows)
    assert main(argv) == 0
    assert written == capsys.readouterr().out
    assert written.count("e+") > 20   # a table, not an empty one


_TABLES = [
    ["coeffs", *_TABLE_GRID],
    ["thermal", *_TABLE_GRID],
    ["sample", *_TABLE_GRID, "--realizations", "200"],
    ["kernels", "--omega", "1e15,2e15", "--kw", "1.5w", "--rho-points", "7"],
]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv", _TABLES, ids=lambda argv: argv[0])
def test_out_file_holds_the_bytes_of_stdout(stack_file, tmp_path, capsys, argv, fmt):
    argv = [argv[0], "--stack", stack_file(THREE_LAYERS), *argv[1:], "--format", fmt]
    assert main(argv) == 0
    written = capsys.readouterr()
    path = tmp_path / "table.out"
    assert main([*argv, "--out", str(path)]) == 0
    assert capsys.readouterr() == ("", written.err)
    assert path.read_bytes() == written.out.encode()
    assert written.out.count("e+") > 20


@pytest.mark.parametrize("argv,chunk_cells", [
    *((argv, None) for argv in _TABLES),
    (["coeffs", *_TABLE_GRID], 100),
    # one mode per chunk; every other chunk, the last one too, is the skipped k = omega/c
    (["thermal", "--omega", "1e15,2e15", "--k", "0.5w,1w"], 40),
], ids=lambda v: v[0] if isinstance(v, list) else str(v))
def test_json_is_the_indented_dump_of_the_csv_rows(stack_file, capsys, monkeypatch, argv, chunk_cells):
    import qplanar.cli

    if chunk_cells:
        monkeypatch.setattr(qplanar.cli, "_CHUNK_CELLS", chunk_cells)
    argv = [argv[0], "--stack", stack_file(THREE_LAYERS), *argv[1:]]
    assert main(argv) == 0
    schema, header, *lines = capsys.readouterr().out.splitlines()
    doc = {"schema": schema.removeprefix("# schema="),
           "rows": [dict(zip(header.split(","), line.split(","))) for line in lines]}
    assert main([*argv, "--format", "json"]) == 0
    assert capsys.readouterr().out == json.dumps(doc, indent=2) + "\n"


def test_json_peaks_within_three_times_the_csv_peak(stack_file, tmp_path):
    # A 20-layer coeffs grid of 7 chunks.  Built as one dict per row and one string per
    # cell, JSON peaked at 9x the CSV; written by the row writer, at about 2x.
    import tracemalloc

    doc = dict(THREE_LAYERS, layers=(THREE_LAYERS["layers"] + SLAB["layers"]) * 5)
    argv = ["coeffs", "--stack", stack_file(doc), "--omega", "1e15:3e15:10", "--k", "0.05w:2.5w:100",
            "--out", str(tmp_path / "table")]
    peaks = {}
    for fmt in ("csv", "json"):
        tracemalloc.start()
        try:
            assert main([*argv, "--format", fmt]) == 0
            peaks[fmt] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks["json"] < 3 * peaks["csv"], peaks


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv", [[argv[0], "--omega", ",", *argv[3:]] for argv in _TABLES],
                         ids=lambda argv: argv[0])
def test_empty_grid_exits_2_and_writes_no_table(stack_file, capsys, argv, fmt):
    rc = main([argv[0], "--stack", stack_file(SLAB), *argv[1:], "--format", fmt])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


TWENTY_LAYERS = dict(SLAB, layers=[
    {"thickness_m": 4e-8 if j % 2 else 1.2e-7,
     "material": {"model": "constant", "eps_re": 2.0 + 0.1 * j, "eps_im": 0.05 + 0.02 * j}}
    for j in range(20)])


@pytest.mark.parametrize("command", ["coeffs", "thermal"])
def test_tables_do_not_depend_on_the_chunk_size(stack_file, capsys, monkeypatch, command):
    """500 modes of a 20-layer stack in one engine call give the bytes of the default chunks:
    the engine's arrays round the same way at every size (NumPy may reuse a temporary of
    256 KiB or more in place, which swaps a product's operands)."""
    import qplanar.cli

    argv = [command, "--stack", stack_file(TWENTY_LAYERS), "--omega", "1e15:3e15:20",
            "--k", "0.05w:2.45w:25", "--pol", "s,p"]
    tables = []
    for chunk_cells in (qplanar.cli._CHUNK_CELLS, 1 << 20):
        monkeypatch.setattr(qplanar.cli, "_CHUNK_CELLS", chunk_cells)
        assert main(argv) == 0
        tables.append(capsys.readouterr().out)
    assert tables[0] == tables[1]
    assert tables[0].count("\n") > 1000


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "commutators", "--format", "json"],
    ["verify", "--suite", "kirchhoff", "--out", "v.json"],
    ["green-check", "--format", "csv"],
    ["green-check", "--out", "g.txt"],
    ["kernels", "--kw", "1.5w", "--temp", "300"],
    ["green-check", "--temp", "300"],
])
def test_flags_that_no_code_reads_are_usage_errors(stack_file, capsys, argv):
    # verify and green-check print a status line, not a table; kernels and the Green
    # identity have no temperature
    with pytest.raises(SystemExit) as exc:
        main([argv[0], "--stack", stack_file(SLAB), "--omega", "2e15", *argv[1:]])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: {argv[-2]} {argv[-1]}" in captured.err


def test_the_parser_is_built_once_and_survives_failed_calls(stack_file, capsys):
    import qplanar.cli

    path = stack_file(SLAB)
    good = ["verify", "--stack", path, "--suite", "commutators", "--omega", "1e15,2e15",
            "--k", "0,0.5w"]
    assert qplanar.cli.build_parser() is qplanar.cli.build_parser()
    with pytest.raises(SystemExit) as exc:   # argparse's usage error
        main(["green-check", "--stack", path, "--tol", "many"])
    assert exc.value.code == 2
    assert main(["coeffs", "--stack", path, "--omega", "1e15", "--k", "1xyz"]) == 2
    capsys.readouterr()
    assert main(good) == 0
    reused = capsys.readouterr().out
    qplanar.cli.build_parser.cache_clear()
    assert main(good) == 0
    assert capsys.readouterr().out == reused
    assert reused.startswith("suite=commutators points=8 ")


@pytest.mark.parametrize("argv", [
    ["coeffs"],
    ["thermal"],
    ["verify", "--suite", "unitarity"],
    ["sample", "--realizations", "100"],
])
def test_one_engine_call_per_chunk(stack_file, capsys, monkeypatch, argv):
    # 3 omega x 7 k in w units (so k differs per omega) fit one chunk.
    import qplanar.cli

    calls = []
    real = qplanar.cli.make_context

    def counting(stack, omega, k, *rest):
        calls.append((np.size(omega), np.size(k)))
        return real(stack, omega, k, *rest)

    monkeypatch.setattr(qplanar.cli, "make_context", counting)
    rc = main([argv[0], "--stack", stack_file(SLAB), *argv[1:],
               "--omega", "1e15:3e15:3", "--k", "0:0.9w:7"])
    assert rc == 0
    assert calls == [(21, 21)]


@pytest.mark.parametrize("cells,sizes", [(200, [2, 2, 2, 1]), (100, [1] * 7)])
def test_sample_chunks_like_coeffs(stack_file, capsys, monkeypatch, cells, sizes):
    # 10 cells per mode, region and polarization: 200 cells hold two modes of the 5-region
    # stack, 100 one.  Each chunk makes one context and one sampler call for both
    # polarizations, and the table does not depend on the chunks.
    import qplanar.cli

    grid = ["--stack", stack_file(THREE_LAYERS), "--omega", "2e15", "--k", "0:1.4w:7"]
    argv = ["sample", *grid, "--realizations", "300", "--side", "4"]
    assert main(argv) == 0
    unchunked = capsys.readouterr().out
    contexts, samples = [], []
    real_context, real_sample = qplanar.cli.make_context, qplanar.cli.sample_emission

    def counting_context(stack, omega, k, *rest):
        contexts.append(np.size(k))
        return real_context(stack, omega, k, *rest)

    def counting_sample(ctx, q, *args, **kwargs):
        samples.append((ctx.k.size, tuple(q)))
        return real_sample(ctx, q, *args, **kwargs)

    monkeypatch.setattr(qplanar.cli, "_CHUNK_CELLS", cells)
    monkeypatch.setattr(qplanar.cli, "make_context", counting_context)
    monkeypatch.setattr(qplanar.cli, "sample_emission", counting_sample)
    assert main(["coeffs", *grid]) == 0
    capsys.readouterr()
    coeffs_chunks, contexts[:] = contexts[:], []
    assert main(argv) == 0
    assert contexts == coeffs_chunks == sizes
    assert samples == [(size, ("s", "p")) for size in contexts]
    assert capsys.readouterr().out == unchunked


def test_sample_takes_no_nodes_option(stack_file):
    """The layer covariance is exact, so `sample` has no quadrature nodes: `--nodes` is a usage
    error of argparse."""
    with pytest.raises(SystemExit) as exc:
        main(["sample", "--stack", stack_file(SLAB), "--omega", "2e15", "--nodes", "64"])
    assert exc.value.code == 2


def test_contexts_split_consecutive_modes_by_cells(stack_file, monkeypatch):
    import argparse

    import qplanar.cli

    monkeypatch.setattr(qplanar.cli, "_CHUNK_CELLS", 100)
    args = argparse.Namespace(stack=stack_file(SLAB), omega="1e15,2e15", k="0:3e6:4", pol="s")
    omega, k = np.repeat([1e15, 2e15], 4)[:7], np.arange(7.0) * 1e6

    def contexts(cells):
        return list(qplanar.cli._sweep(args, lambda *grid: (omega, k, ["s"], cells))[2])

    chunks = contexts(30)
    assert [c.k.tolist() for c in chunks] == [k[:3].tolist(), k[3:6].tolist(), k[6:].tolist()]
    assert [c.omega.tolist() for c in chunks] == [omega[:3].tolist(), omega[3:6].tolist(),
                                                  omega[6:].tolist()]
    assert [c.k.size for c in contexts(1000)] == [1] * 7
    # By default, every mode of the grid at 10 cells per region and polarization: 30 here.
    _, pols, chunks = qplanar.cli._sweep(args)
    assert pols == ["s"] and [c.k.tolist() for c in chunks] == [[0.0, 1e6, 2e6], [3e6, 0.0, 1e6],
                                                                [2e6, 3e6]]


def test_kernel_radial_one_engine_call_per_rule_block(monkeypatch):
    import math

    import qplanar.rhokernels as rk

    stack = load_stack(json.dumps(THREE_LAYERS))
    window = rk.GaussianWindow(k_w=1.5 * 2e15 / 299792458.0)
    panels = len(rk._panel_edges(stack, 2e15, window)) - 1
    calls = []
    real = rk.make_context

    def counting(stack, omega, k, *rest):
        calls.append(np.size(k))
        return real(stack, omega, k, *rest)

    monkeypatch.setattr(rk, "make_context", counting)
    field = rk.kernel_radial(stack, 2e15, "R0n", window, np.linspace(0.0, 5e-6, 7))
    sizes = [24 * 2 ** i for i in range(round(math.log2(field.nodes_per_panel / 24)) + 1)]
    block = rk._NODE_BLOCK
    assert calls == [1] + [min(block, panels * n - s) for n in sizes for s in range(0, panels * n, block)]


def test_coeffs_at_a_lossless_layer_branch_point_exits_1(stack_file, capsys):
    k1 = float(make_context(load_stack(json.dumps(LOSSLESS)), 2e15, 0.0).kj[1].real)
    rc = main(["coeffs", "--stack", stack_file(LOSSLESS), "--omega", "2e15", "--k", f"0,{k1!r}"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: beta = 0 in layer 1 at k = {k1!r} ")


@pytest.mark.parametrize("argv", [["thermal"], ["verify", "--suite", "kirchhoff"]])
def test_thermal_paths_make_one_scatter_set_per_chunk_and_pol(stack_file, capsys, monkeypatch, argv):
    import qplanar.commutators
    import qplanar.thermal

    calls = []
    real = qplanar.thermal.scatter_set

    def counting(ctx, q="s"):
        calls.append((np.unique(ctx.omega).size, ctx.k.size, q))
        return real(ctx, q)

    for module in (qplanar.cli, qplanar.commutators, qplanar.thermal):
        monkeypatch.setattr(module, "scatter_set", counting)
    for module, name in [(qplanar.cli, "commutator_set"), (qplanar.commutators, "commutator_set")]:
        monkeypatch.setattr(module, name, lambda *args, name=name: calls.append(name))
    rc = main([argv[0], "--stack", stack_file(SLAB), *argv[1:],
               "--omega", "1e15:3e15:3", "--k", "0:0.9w:7"])
    assert rc == 0
    assert calls == [(3, 21, "s"), (3, 21, "p")]