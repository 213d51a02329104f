"""Every command on every hard stack: one in-process CLI run per (stack, command).

The stacks are thick metal and dielectric slabs between vacuum or absorbing
claddings, a nearly lossless thin layer, a lossy layer on an epsilon-near-zero
cladding and the 150 nm waveguide at three losses (ROADMAP items 15 and 20).
Each cell runs `qplanar.cli.main` with warnings raised as errors and checks
the exit code the README documents:

* `green-check` needs absorbing outer media, and `unitarity` and
  `kirchhoff` vacuum ones; elsewhere each exits 2 with nothing on stdout;
* every other cell exits 0, and a suite prints `status=PASS`.

The cells that fail today for a known reason are `xfail(strict=True)` and
name the ROADMAP item that owns them, so a fix shows as an XPASS.
"""

import contextlib
import io
import json
import warnings

import pytest

from qplanar.cli import main


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
}

GRID = ["--omega", "2e15", "--k", "0.1w:1.9w:7", "--pol", "s,p"]
COMMANDS = {
    "coeffs": ["coeffs", *GRID],
    "thermal": ["thermal", *GRID, "--temp", "1000"],
    # item 10's dense grid through the guided-mode poles
    "commutators": ["verify", "--suite", "commutators", "--omega", "2e15", "--k", "1.01w:1.99w:50",
                    "--pol", "s,p"],
    "unitarity": ["verify", "--suite", "unitarity", *GRID],
    "kirchhoff": ["verify", "--suite", "kirchhoff", *GRID, "--temp", "1000"],
    "green-check": ["green-check", "--omega", "2e15", "--k", "0,0.5w,1.2w"],
    "sample": ["sample", *GRID, "--realizations", "2000", "--temp", "1000"],
    "kernels": ["kernels", "--omega", "2e15", "--kind", "R0n", "--kw", "1.5w", "--rho-points", "11"],
}

KNOWN_FAILURES = {
    ("dielectric-100um-absorbing", "kernels"):
        "ROADMAP items 4 and 15: the radial k-rule does not follow ~100 resonances in the window",
    ("dielectric-1um-nearly-lossless", "kernels"): "ROADMAP item 15: guided-mode pole in the window",
    ("dielectric-1um-nearly-lossless", "commutators"):
        "ROADMAP item 10: Im r0n next to a guided-mode pole loses digits",
    **{(f"waveguide-150nm-{loss}", "kernels"): "ROADMAP item 15: guided-mode pole in the window"
       for loss in ("lossless", "1e-6", "1e-3")},
}


def _expected_exit(doc: dict, command: str) -> int:
    outer = (doc["medium0"], doc["mediumN"])
    if command == "green-check":
        return 0 if all(m["eps_im"] > 0.0 for m in outer) else 2
    if command in ("unitarity", "kirchhoff"):
        return 0 if all(m == VACUUM for m in outer) else 2
    return 0


def _cells():
    for stack in STACKS:
        for command in COMMANDS:
            reason = KNOWN_FAILURES.get((stack, command))
            marks = [pytest.mark.xfail(strict=True, reason=reason)] if reason else []
            yield pytest.param(stack, command, marks=marks, id=f"{stack}-{command}")


@pytest.mark.parametrize("stack,command", _cells())
def test_every_command_on_every_hard_stack(tmp_path, stack, command):
    doc = STACKS[stack]
    path = tmp_path / "stack.json"
    path.write_text(json.dumps(doc))
    argv = COMMANDS[command]
    out, err = io.StringIO(), io.StringIO()
    # The sampler's documented warnings: a lossless layer, and so no noise at all here.
    sampler_warns = command == "sample" and all(layer["material"]["eps_im"] == 0.0
                                                for layer in doc["layers"])
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("always" if sampler_warns else "error")
        rc = main([argv[0], "--stack", str(path), *argv[1:]])
    if sampler_warns:
        assert {str(w.message) for w in caught} == {
            "layer 1 is lossless; it contributes no thermal noise",
            "no noise couples to the output; estimate is identically zero"}
    expected = _expected_exit(doc, command)
    assert rc == expected, (out.getvalue(), err.getvalue())
    if rc != 0:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ")
    elif argv[0] in ("verify", "green-check"):
        assert out.getvalue().endswith(" status=PASS\n"), out.getvalue()
    else:
        assert out.getvalue().startswith("# schema=qplanar-")
