"""Seeded inputs of the three benchmark workloads.

A workload is a fixed list of qplanar CLI commands plus the stack files they
read.  The seed jitters thicknesses, permittivities and grid offsets by a
few percent; it never changes the number of grid points, layers, radii or
realizations, so every seed asks for the same amount of work.

Inputs are made from ``seed % N_INPUT_SEEDS``: the output checks compare
against reference digests stored per input seed (``bench/digests``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

OUT_DIR = Path(__file__).resolve().parent / "out"   # generated inputs, results, spans
N_INPUT_SEEDS = 16
WORKLOADS = ("sweep", "kernels", "certify")

# 20 omega x 50 k x {s, p} = 2,000 points per sweep command.  k steps by
# 0.05 omega/c from a jittered offset inside the first step, so 20 k values
# are propagating, 30 evanescent, and none lands on the light line k = omega/c.
_N_OMEGA, _N_K, _K_STEP = 20, 50, 0.05
_SWEEP_LAYERS = (1, 5, 20)
_KERNEL_RADII = 121
_GREEN_OMEGAS, _GREEN_KS = 5, 4
_REALIZATIONS = 20_000
_TEMP_K = 1000.0


@dataclass
class Command:
    """One CLI call: its argv and the size of the work it was asked to do."""

    argv: list[str]
    points: int           # output points: (omega, k, q) rows, (kind, rho) samples or grid points
    n_layers: int         # layers of the stack it reads
    kind: str = ""        # "table", "suite" or "sample": how its output is checked


@dataclass
class Workload:
    name: str
    input_seed: int
    stacks: dict[str, dict] = field(default_factory=dict)   # file name -> stack document
    commands: list[Command] = field(default_factory=list)

    @property
    def tag(self) -> str:
        return f"{self.name}-{self.input_seed:02d}"

    @property
    def inputs_dir(self) -> Path:
        return OUT_DIR / "inputs" / self.tag

    def write_stacks(self, directory: Path) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        for fname, doc in self.stacks.items():
            (directory / fname).write_text(json.dumps(doc, indent=1), encoding="utf-8")


class _Jitter:
    """Uniform relative jitter drawn in a fixed order from one seed."""

    def __init__(self, seed: int, stream: str):
        self._rng = np.random.default_rng([seed, sum(map(ord, stream))])

    def __call__(self, x: float, rel: float) -> float:
        return float(x * (1.0 + rel * (2.0 * self._rng.random() - 1.0)))


def _constant(eps_re: float, eps_im: float) -> dict:
    return {"model": "constant", "eps_re": eps_re, "eps_im": eps_im}


def _drude_lorentz(j: _Jitter) -> dict:
    # Resonance inside the swept band: Re eps < 0 just above omega0 (plasmonic).
    return {
        "model": "drude-lorentz",
        "eps_inf": j(2.0, 0.05),
        "oscillators": [{"strength": j(3.0, 0.05), "omega0_rad_s": j(2.4e15, 0.02),
                         "gamma_rad_s": j(1.5e14, 0.05)}],
    }


def _stack(j: _Jitter, n_layers: int, outer: dict | None = None) -> dict:
    """Alternating Drude-Lorentz (40 nm) and lossy dielectric (120 nm) layers."""
    layers = []
    for i in range(n_layers):
        if i % 2 == 0:
            layers.append({"thickness_m": j(40e-9, 0.1), "material": _drude_lorentz(j)})
        else:
            layers.append({"thickness_m": j(120e-9, 0.1),
                           "material": _constant(j(2.5, 0.05), j(0.2, 0.1))})
    clad = outer if outer is not None else _constant(1.0, 0.0)
    return {"medium0": clad, "layers": layers, "mediumN": clad}


def _sweep_grid(j: _Jitter) -> list[str]:
    om0 = j(1.0e15, 0.02)
    om1 = j(3.0e15, 0.02)
    k0 = _K_STEP * j(0.5, 0.4)
    k1 = k0 + _K_STEP * (_N_K - 1)
    return ["--omega", f"{om0!r}:{om1!r}:{_N_OMEGA}",
            "--k", f"{k0!r}w:{k1!r}w:{_N_K}", "--pol", "s,p"]


def make_workload(name: str, seed: int) -> Workload:
    """The command list of workload `name` with inputs drawn from `seed`."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    input_seed = seed % N_INPUT_SEEDS
    j = _Jitter(input_seed, name)
    wl = Workload(name, input_seed)
    n_sweep = _N_OMEGA * _N_K * 2
    if name == "sweep":
        grid = _sweep_grid(j)
        for n in _SWEEP_LAYERS:
            fname = f"sweep_L{n}.json"
            wl.stacks[fname] = _stack(j, n)
            for cmd in ("coeffs", "thermal"):
                wl.commands.append(Command(
                    [cmd, "--stack", fname, *grid, "--temp", repr(_TEMP_K)],
                    n_sweep, n, "table"))
    elif name == "kernels":
        wl.stacks["kernels_L3.json"] = _stack(j, 3)
        omega = repr(j(2.0e15, 0.02))
        base = ["kernels", "--stack", "kernels_L3.json", "--omega", omega, "--kw", "1.5w",
                "--rho-points", str(_KERNEL_RADII)]
        wl.commands.append(Command([*base, "--kind", "R0n"], _KERNEL_RADII, 3, "table"))
        wl.commands.append(Command([*base, "--kind", "Phi0-", "--layer", "1"],
                                   _KERNEL_RADII, 3, "table"))
    else:
        wl.stacks["certify_L3.json"] = _stack(j, 3)
        grid = _sweep_grid(j)
        for suite in ("commutators", "unitarity", "kirchhoff"):
            wl.commands.append(Command(
                ["verify", "--stack", "certify_L3.json", "--suite", suite, *grid,
                 "--temp", repr(_TEMP_K)], n_sweep, 3, "suite"))
        outer = _constant(j(1.5, 0.05), j(0.3, 0.1))
        wl.stacks["certify_absorbing_L3.json"] = _stack(j, 3, outer)
        green_grid = ["--omega", f"{j(1.2e15, 0.02)!r}:{j(2.8e15, 0.02)!r}:{_GREEN_OMEGAS}",
                      "--k", f"{j(0.1, 0.2)!r}w:{j(1.6, 0.02)!r}w:{_GREEN_KS}", "--pol", "s"]
        wl.commands.append(Command(
            ["green-check", "--stack", "certify_absorbing_L3.json", *green_grid,
             "--nodes", "200"], _GREEN_OMEGAS * _GREEN_KS, 3, "suite"))
        mode = ["--omega", repr(j(2.0e15, 0.02)), "--k", f"{j(0.5, 0.1)!r}w", "--pol", "s,p"]
        wl.commands.append(Command(
            ["sample", "--stack", "certify_L3.json", *mode, "--temp", repr(_TEMP_K),
             "--realizations", str(_REALIZATIONS), "--seed", str(input_seed)], 2, 3, "sample"))
    return wl
