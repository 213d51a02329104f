"""The sweep grid, parsed once as arrays over omega, against the per-omega scalar parse."""

import argparse
import json
import math

import numpy as np
import pytest

import qplanar.cli
from qplanar.cli import main
from qplanar.constants import C_LIGHT, EV, HBAR
from qplanar.errors import UsageError

SLAB = {
    "medium0": {"model": "constant", "eps_re": 1.0, "eps_im": 0.0},
    "layers": [
        {"thickness_m": 2e-7, "material": {"model": "constant", "eps_re": 2.0, "eps_im": 0.5}}
    ],
    "mediumN": {"model": "constant", "eps_re": 1.0, "eps_im": 0.0},
}


def _scalar(text: str, omega: float | None = None) -> float:
    """One token at one omega, as a Python float: the oracle of `cli._parse_scalar`."""
    t = text.strip()
    try:
        if t.endswith("eV"):
            return float(t[:-2]) * EV / HBAR
        if t.endswith("um"):
            lam = float(t[:-2]) * 1e-6
            if lam <= 0:
                raise UsageError(f"wavelength must be positive: {text!r}")
            return 2.0 * math.pi * C_LIGHT / lam
        if t.endswith("deg"):
            if omega is None:
                raise UsageError("angle units need a frequency context")
            ang = math.radians(float(t[:-3]))
            if not 0.0 <= ang < math.pi / 2:
                raise UsageError(f"angle must be in [0, 90): {text!r}")
            return math.sin(ang) * omega / C_LIGHT
        if t.endswith("w"):
            if omega is None:
                raise UsageError("omega/c units need a frequency context")
            return float(t[:-1]) * omega / C_LIGHT
        return float(t)
    except ValueError as exc:
        raise UsageError(f"malformed numeric token {text!r}") from exc


def _grid(spec: str, omega: float | None = None) -> list[float]:
    """A grid at one omega: the oracle of `cli._parse_grid`."""
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise UsageError(f"grid must be start:stop:num, got {spec!r}")
        a, b = _scalar(parts[0], omega), _scalar(parts[1], omega)
        try:
            num = int(parts[2])
        except ValueError as exc:
            raise UsageError(f"grid count must be an integer, got {parts[2]!r}") from exc
        if num < 1:
            raise UsageError("grid count must be >= 1")
        return list(np.linspace(a, b, num))
    return [_scalar(tok, omega) for tok in spec.split(",") if tok.strip()]


def _per_omega(omega_spec: str, k_spec: str):
    """The (omega, k) modes of the grid, with k parsed again at every omega."""
    grid = [(om, _grid(k_spec, omega=om)) for om in _grid(omega_spec)]
    return (np.array([om for om, ks in grid for _ in ks], dtype=float),
            np.array([kk for _, ks in grid for kk in ks], dtype=float))


@pytest.fixture
def slab_file(tmp_path):
    path = tmp_path / "slab.json"
    path.write_text(json.dumps(SLAB))
    return str(path)


OMEGAS = ["1e15:3e15:7", "1.1e15,2e15,2.9e15,2e15", "0.5eV:2eV:5", "1eV, 1.5eV",
          "0.6um:1.8um:4", "0.8um,1.2um", "2e15", "1.7e15:1.7e15:3"]
KS = ["0:3e6:5", "1e6,2.5e6,0", "0.05w:2.5w:9", "0.3w,1.7w,0w", "0deg:80deg:6",
      "30deg, 45deg,0deg", "0:1.2w:4", "10deg:0.9w:5", "1e6", "0.5w", "89.9deg", "0.2w:0.2w:1"]


@pytest.mark.parametrize("omega", OMEGAS)
def test_sweep_grid_equals_the_per_omega_parse_bit_for_bit(slab_file, omega):
    for k in KS:
        seen = []

        def modes(stack, om, kk, pols):
            seen.append((om, kk))
            return om, kk, pols, 1

        qplanar.cli._sweep(argparse.Namespace(stack=slab_file, omega=omega, k=k, pol="s"), modes)
        (got_omega, got_k), = seen
        ref_omega, ref_k = _per_omega(omega, k)
        assert got_omega.dtype == got_k.dtype == np.float64 and got_k.shape == ref_k.shape
        np.testing.assert_array_equal(got_omega.view(np.int64), ref_omega.view(np.int64))
        np.testing.assert_array_equal(got_k.view(np.int64), ref_k.view(np.int64))


@pytest.mark.parametrize("omega, k", [
    ("2e15", "90deg"),
    ("1e15,2e15", "0deg:95deg:3"),
    ("0um", "0"),
    ("1e15,-1um", "0"),
    ("2e15", "1bad"),
    ("2e15x", "0"),
    ("1e15:2e15:3", "0.1w,1.2x"),
    ("1w", "0"),
    ("1e15:2e15", "0"),
    ("1e15:2e15:two", "0"),
    ("2e15", "0:1w:0"),
])
def test_grid_usage_errors_exit_2_with_the_per_omega_message(slab_file, capsys, omega, k):
    with pytest.raises(UsageError) as exc:
        _per_omega(omega, k)
    assert main(["coeffs", "--stack", slab_file, "--omega", omega, "--k", k]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {exc.value}\n"


@pytest.mark.parametrize("omega, k", [(",", "0"), ("2e15", ","), ("1e15,2e15", " , ")])
def test_an_empty_grid_exits_2(slab_file, capsys, omega, k):
    assert main(["coeffs", "--stack", slab_file, "--omega", omega, "--k", k]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: empty sweep grid\n"


def test_kernels_parse_the_window_scale_once_for_every_omega(slab_file, capsys):
    assert main(["kernels", "--stack", slab_file, "--omega", "1e15:2e15:3", "--kw", "1.5w",
                 "--rho-points", "2"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[2:]]
    expected = [(om, _scalar("1.5w", om)) for om in _grid("1e15:2e15:3")]
    assert [(r[1], r[2]) for r in rows[::2 * 9]] == [(f"{om:.12e}", f"{kw:.12e}") for om, kw in expected]
    assert main(["kernels", "--stack", slab_file, "--omega", "1e15,2e15", "--kw", "1.5x"]) == 2
    assert capsys.readouterr().err == "error: malformed numeric token '1.5x'\n"
