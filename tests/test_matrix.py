"""Every command on every hard stack: one in-process CLI run per (stack, command).

The stacks are thick metal and dielectric slabs between vacuum or absorbing
claddings, a nearly lossless thin layer, a lossy layer on an epsilon-near-zero
cladding, the 150 nm waveguide at three losses (ROADMAP items 15 and 20) and,
lossless, between absorbing claddings (item 23), a
1 nm weakly lossy layer probed at its own light line (item 10), a surface-plasmon
pole behind two lossless layers, probed through the pole (item 10), and vacuum
against vacuum with no layer.  Each cell runs `qplanar.cli.main` with
warnings raised as errors and checks the exit code the README documents:

* `green-check` needs absorbing outer media, and `unitarity` and
  `kirchhoff` vacuum ones; elsewhere each exits 2 with nothing on stdout;
  so does `sample` without a layer;
* every other cell exits 0, and a suite prints `status=PASS`.

The grid commands run once more with k exactly on the light line of every
lossless region.  Each of these is a grazing mode, which the verification
suites, `thermal` and `sample` skip and count.  `coeffs` skips and counts only
the light lines where it has no row: a lossless layer's, an exact
multiple-reflection pole, and that of an interface between two equal lossless
media, a zero denominator.  Its other rows are the bytes of the same grid
without the skipped k.

The cells that fail today for a known reason are `xfail(strict=True)` and
name the ROADMAP item that owns them, so a fix shows as an XPASS.
"""

import contextlib
import io
import json
import warnings

import pytest

from qplanar.cli import main
from qplanar.modes import make_context
from qplanar.stack import load_stack


def _const(re, im):
    return {"model": "constant", "eps_re": re, "eps_im": im}


def _slab(d, eps, medium0, medium_n):
    return {"medium0": medium0, "layers": [{"thickness_m": d, "material": eps}],
            "mediumN": medium_n}


VACUUM, CLAD = _const(1.0, 0.0), _const(1.0, 0.01)
METAL = _const(-10.0, 1.0)

STACKS = {
    "metal-40um-vacuum": _slab(40e-6, METAL, VACUUM, VACUUM),
    "metal-40um-absorbing": _slab(40e-6, METAL, CLAD, CLAD),
    "metal-1mm-absorbing": _slab(1e-3, METAL, CLAD, CLAD),
    "dielectric-100um-absorbing": _slab(100e-6, _const(4.0, 0.01), CLAD, _const(2.0, 0.01)),
    "dielectric-1um-nearly-lossless": _slab(1e-6, _const(4.0, 1e-8), VACUUM, VACUUM),
    "lossy-200nm-on-enz": _slab(200e-9, _const(2.0, 0.5), VACUUM, _const(-0.0084, 1.2e-6)),
    "waveguide-150nm-lossless": _slab(150e-9, _const(2.25, 0.0), VACUUM, VACUUM),
    "waveguide-150nm-1e-6": _slab(150e-9, _const(2.25, 1e-6), VACUUM, VACUUM),
    "waveguide-150nm-1e-3": _slab(150e-9, _const(2.25, 1e-3), VACUUM, VACUUM),
    "waveguide-150nm-absorbing-clad": _slab(150e-9, _const(2.25, 0.0), CLAD, CLAD),
    "thin-1nm-light-line": _slab(1e-9, _const(2.0, 1e-10), VACUUM, VACUUM),
    "no-layers-vacuum": {"medium0": VACUUM, "layers": [], "mediumN": VACUUM},
    "plasmon-behind-lossless-layers": {
        "medium0": VACUUM,
        "layers": [{"thickness_m": 289.5e-9, "material": _const(1.172, 0.787)},
                   {"thickness_m": 394.1e-9, "material": _const(3.335, 0.0)},
                   {"thickness_m": 323.2e-9, "material": _const(5.810, 0.0)}],
        "mediumN": _const(-8.390, 4.27e-5)},
}

OMEGA = 2e15
K_GRID = "0.1w:1.9w:7"
DENSE_K_GRID = "1.01w:1.99w:50"   # item 10's dense grid through the guided-mode poles
# Where a stack's omega, k grid or dense k grid differs from the defaults.
GRIDS = {
    "thin-1nm-light-line": {"k": "0.5w,1.4142w,1.41421356w"},   # its light line is at sqrt(2) w
    # the plasmon pole at k = 4.3858 omega/c
    "plasmon-behind-lossless-layers": {"omega": 1.4478e15, "k": "4.30w:4.45w:31",
                                       "dense": "4.30w:4.45w:31"},
}
GRID = ["--omega", "{omega}", "--k", "{k}", "--pol", "s,p"]
COMMANDS = {
    "coeffs": ["coeffs", *GRID],
    "thermal": ["thermal", *GRID, "--temp", "1000"],
    "commutators": ["verify", "--suite", "commutators", "--omega", "{omega}", "--k", "{dense}",
                    "--pol", "s,p"],
    "unitarity": ["verify", "--suite", "unitarity", *GRID],
    "kirchhoff": ["verify", "--suite", "kirchhoff", *GRID, "--temp", "1000"],
    "green-check": ["green-check", "--omega", "{omega}", "--k", "0,0.5w,1.2w"],
    "sample": ["sample", *GRID, "--realizations", "2000", "--temp", "1000"],
    "kernels": ["kernels", "--omega", "{omega}", "--kind", "R0n", "--kw", "1.5w", "--rho-points", "11"],
}


def _grid(stack: str) -> dict:
    """Values of the {omega}, {k} and {dense} fields of a stack's command lines."""
    return {"omega": OMEGA, "k": K_GRID, "dense": DENSE_K_GRID, **GRIDS.get(stack, {})}


KNOWN_FAILURES = {
    ("dielectric-100um-absorbing", "kernels"):
        "ROADMAP items 4 and 15: the radial k-rule does not follow ~100 resonances in the window",
    ("dielectric-1um-nearly-lossless", "kernels"): "ROADMAP item 15: guided-mode pole in the window",
    ("dielectric-1um-nearly-lossless", "commutators"):
        "ROADMAP item 10: Im r0n next to a guided-mode pole loses digits",
    ("thin-1nm-light-line", "kernels"): "ROADMAP item 15: guided-mode pole in the window",
    **{(f"waveguide-150nm-{loss}", "kernels"): "ROADMAP item 15: guided-mode pole in the window"
       for loss in ("lossless", "1e-6", "1e-3")},
}


def _expected_exit(doc: dict, command: str) -> int:
    outer = (doc["medium0"], doc["mediumN"])
    if command == "green-check":
        return 0 if all(m["eps_im"] > 0.0 for m in outer) else 2
    if command in ("unitarity", "kirchhoff"):
        return 0 if all(m == VACUUM for m in outer) else 2
    if command == "sample" and not doc["layers"]:
        return 2
    return 0


def _cells():
    for stack in STACKS:
        for command in COMMANDS:
            reason = KNOWN_FAILURES.get((stack, command))
            marks = [pytest.mark.xfail(strict=True, reason=reason)] if reason else []
            yield pytest.param(stack, command, marks=marks, id=f"{stack}-{command}")


def _sampler_warnings(doc: dict) -> set[str]:
    """The sampler's documented warnings: one per lossless layer, and no noise at all if every
    layer is lossless."""
    lossless = [j for j, layer in enumerate(doc["layers"], 1) if layer["material"]["eps_im"] == 0.0]
    warns = {f"layer {j} is lossless; it contributes no thermal noise" for j in lossless}
    if lossless and len(lossless) == len(doc["layers"]):
        warns.add("no noise couples to the output; estimate is identically zero")
    return warns


def _run(tmp_path, doc: dict, argv: list[str], grid: dict, expected: int) -> tuple[str, str]:
    """Run one cell, check its exit code, stdout and warnings, and return its stdout and stderr."""
    path = tmp_path / "stack.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    sampler_warns = _sampler_warnings(doc) if argv[0] == "sample" else set()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("always" if sampler_warns else "error")
        rc = main([argv[0], "--stack", str(path), *(a.format(**grid) for a in argv[1:])])
    if sampler_warns and rc == 0:
        assert {str(w.message) for w in caught} == sampler_warns
    assert rc == expected, (out.getvalue(), err.getvalue())
    if rc != 0:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ")
    elif argv[0] in ("verify", "green-check"):
        assert out.getvalue().endswith(" status=PASS\n"), out.getvalue()
    else:
        assert out.getvalue().startswith("# schema=qplanar-")
    return out.getvalue(), err.getvalue()


@pytest.mark.parametrize("stack,command", _cells())
def test_every_command_on_every_hard_stack(tmp_path, stack, command):
    doc = STACKS[stack]
    _run(tmp_path, doc, COMMANDS[command], _grid(stack), _expected_exit(doc, command))


def _light_lines(stack: str) -> list[float]:
    """k of every distinct light line of a lossless region (beta = 0 there), at the stack's omega."""
    ctx = make_context(load_stack(json.dumps(STACKS[stack])), _grid(stack)["omega"], 0.0)
    return sorted({float(kj.real) for kj, eps in zip(ctx.kj, ctx.eps) if eps.imag == 0.0})


def _branch_lines(stack: str) -> list[float]:
    """The light lines of `_light_lines` where `coeffs` has no row: a lossless layer's, and,
    without layers, that of two equal lossless outer media."""
    ctx = make_context(load_stack(json.dumps(STACKS[stack])), _grid(stack)["omega"], 0.0)
    regions = range(1, ctx.n) if ctx.n > 1 else [0] if ctx.eps[0] == ctx.eps[1] else []
    return sorted({float(ctx.kj[j].real) for j in regions if ctx.eps[j].imag == 0.0})


SUITES = ("commutators", "unitarity", "kirchhoff")
LIGHT_LINE_ARGV = {**COMMANDS, **{suite: ["verify", "--suite", suite, *GRID] for suite in SUITES},
                   "green-check": ["green-check", *GRID]}
LIGHT_LINE_CELLS = [pytest.param(stack, command, id=f"{stack}-{command}")
                    for stack in STACKS if _light_lines(stack)
                    for command in ("coeffs", "thermal", *SUITES, "green-check", "sample")]


@pytest.mark.parametrize("stack,command", LIGHT_LINE_CELLS)
def test_grid_commands_with_k_on_every_light_line(tmp_path, stack, command):
    doc = STACKS[stack]
    lines = _light_lines(stack)
    k = ",".join(["0.5w", *map(repr, lines)])
    argv = LIGHT_LINE_ARGV[command]
    expected = _expected_exit(doc, command)
    out, err = _run(tmp_path, doc, argv, {**_grid(stack), "k": k}, expected)
    if command == "coeffs":
        # the rows of the k that have one, byte for byte; the others counted per polarization
        skipped = _branch_lines(stack)
        kept = ",".join(["0.5w", *(repr(x) for x in lines if x not in skipped)])
        assert out == _run(tmp_path, doc, argv, {**_grid(stack), "k": kept}, 0)[0]
        assert err == (f"skipped={2 * len(skipped)}\n" if skipped else "")
    elif command in ("thermal", "sample") and expected == 0:
        # every light line is a grazing mode, skipped per polarization
        assert err == f"skipped={2 * len(lines)}\n"
    elif command == "green-check" and expected == 0:
        assert out.startswith(f"suite=green points=1 skipped={len(lines)} "), out
