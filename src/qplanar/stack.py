"""Multilayer geometry and material dispersion models.

A stack is two half-spaces (region 0 on the left, region n on the right)
plus an ordered list of layers j = 1 .. n-1.  Every region carries its own
shifted z-coordinate: z < 0 in region 0, 0 < z < d_j inside layer j, and
z > 0 in region n.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, FrequencyRangeError, PassivityError

_PASSIVITY_TOL = 0.0  # Im eps must be >= 0 exactly; models guarantee it by construction


@dataclass(frozen=True)
class ConstantEps:
    """Frequency-independent complex permittivity."""

    eps: complex

    def __post_init__(self):
        if self.eps.imag < _PASSIVITY_TOL:
            raise PassivityError(f"constant model with Im eps = {self.eps.imag} < 0")

    def __call__(self, omega) -> np.ndarray:
        """eps at every entry of the array omega (0-d for one float)."""
        return np.full(np.shape(omega), self.eps, dtype=complex)


@dataclass(frozen=True)
class DrudeLorentzEps:
    """Sum of Lorentz oscillators on top of a real background eps_inf.

    eps(w) = eps_inf + sum_m s_m w0_m^2 / (w0_m^2 - w^2 - i g_m w)

    Passivity holds by construction for s_m >= 0, g_m > 0.  Evaluated per entry of an
    array of omega, term by term in the order of the oscillators.
    """

    eps_inf: float
    oscillators: tuple[tuple[float, float, float], ...]  # (strength, omega0, gamma)

    def __post_init__(self):
        if self.eps_inf <= 0.0:
            raise ConfigError(f"eps_inf must be positive, got {self.eps_inf}")
        for m, (s, w0, g) in enumerate(self.oscillators):
            if s < 0.0:
                raise PassivityError(f"oscillator {m}: strength {s} < 0 breaks passivity")
            if w0 <= 0.0 or g <= 0.0:
                raise ConfigError(f"oscillator {m}: omega0 and gamma must be positive")

    def __call__(self, omega) -> np.ndarray:
        omega = np.asarray(omega, dtype=float)
        eps = np.full(omega.shape, complex(self.eps_inf))
        for s, w0, g in self.oscillators:
            eps += s * w0 * w0 / (w0 * w0 - omega * omega - 1j * g * omega)
        return eps


@dataclass(frozen=True)
class TabulatedEps:
    """Linear interpolation between (omega, eps) samples, per entry of an array of omega; an
    omega outside the samples raises FrequencyRangeError (no extrapolation)."""

    omegas: tuple[float, ...]
    values: tuple[complex, ...]

    def __post_init__(self):
        if len(self.omegas) != len(self.values) or len(self.omegas) < 2:
            raise ConfigError("tabulated model needs >= 2 (omega, eps) samples of equal length")
        if any(b <= a for a, b in zip(self.omegas, self.omegas[1:])):
            raise ConfigError("tabulated omegas must be strictly increasing")
        for w, v in zip(self.omegas, self.values):
            if v.imag < _PASSIVITY_TOL:
                raise PassivityError(f"tabulated sample at omega = {w} has Im eps = {v.imag} < 0")

    def __call__(self, omega) -> np.ndarray:
        omega = np.asarray(omega, dtype=float)
        out = (omega < self.omegas[0]) | (omega > self.omegas[-1])
        if out.any():
            raise FrequencyRangeError(f"omega = {omega[out].flat[0]} outside table range "
                                      f"[{self.omegas[0]}, {self.omegas[-1]}]")
        w, v = np.array(self.omegas), np.array(self.values)
        i = np.minimum(np.searchsorted(w, omega, side="right"), len(w) - 1)   # w[i-1] <= omega
        f = (omega - w[i - 1]) / (w[i] - w[i - 1])
        return np.where(omega == w[-1], v[-1], v[i - 1] * (1.0 - f) + v[i] * f)


PermittivityModel = ConstantEps | DrudeLorentzEps | TabulatedEps

VACUUM = ConstantEps(1.0 + 0.0j)


@dataclass(frozen=True)
class Layer:
    thickness: float  # meters, finite, > 0
    material: PermittivityModel

    def __post_init__(self):
        if not (self.thickness > 0.0 and math.isfinite(self.thickness)):
            raise ConfigError(f"layer thickness must be positive and finite, got {self.thickness}")


@dataclass(frozen=True)
class Stack:
    """Immutable multilayer: region 0 | layers 1..n-1 | region n."""

    medium0: PermittivityModel
    layers: tuple[Layer, ...] = ()
    mediumN: PermittivityModel = VACUUM

    @property
    def n(self) -> int:
        """Index of the rightmost region (n = 1 for a bare interface)."""
        return len(self.layers) + 1

    def thickness(self, j: int) -> float:
        """Thickness of region j, with d_0 = d_n = 0 for the half-spaces."""
        self._check_region(j)
        if 1 <= j <= len(self.layers):
            return self.layers[j - 1].thickness
        return 0.0

    @property
    def materials(self) -> tuple[PermittivityModel, ...]:
        """Material of every region 0..n."""
        return (self.medium0, *(layer.material for layer in self.layers), self.mediumN)

    def _check_region(self, j: int):
        if not (0 <= j <= self.n):
            raise ConfigError(f"region index {j} outside 0..{self.n}")


def epsilon(stack: Stack, j: int, omega) -> np.ndarray:
    """Permittivity of region j at every entry of the array omega (rad/s; 0-d for one float)."""
    omega = np.asarray(omega, dtype=float)
    if np.any(omega <= 0.0):
        raise ConfigError(f"omega must be positive, got {omega[omega <= 0.0].flat[0]}")
    stack._check_region(j)
    return stack.materials[j](omega)


# ---------------------------------------------------------------------------
# Config serialization.  Structured-text format: JSON with the documented keys
#   medium0 / mediumN : material objects
#   layers            : ordered list of {"thickness_m": float, "material": {...}}
# and a material object is one of
#   {"model": "constant", "eps_re": 1.0, "eps_im": 0.0}
#   {"model": "drude-lorentz", "eps_inf": 1.0,
#    "oscillators": [{"strength": s, "omega0_rad_s": w0, "gamma_rad_s": g}, ...]}
#   {"model": "tabulated", "samples": [[omega_rad_s, eps_re, eps_im], ...]}
# ---------------------------------------------------------------------------


def _material_from_obj(obj, where: str) -> PermittivityModel:
    if not isinstance(obj, dict) or "model" not in obj:
        raise ConfigError(f"{where}: material must be an object with a 'model' key")
    model = obj["model"]
    try:
        if model == "constant":
            return ConstantEps(complex(float(obj["eps_re"]), float(obj.get("eps_im", 0.0))))
        if model == "drude-lorentz":
            osc = tuple(
                (float(o["strength"]), float(o["omega0_rad_s"]), float(o["gamma_rad_s"]))
                for o in obj.get("oscillators", [])
            )
            return DrudeLorentzEps(float(obj.get("eps_inf", 1.0)), osc)
        if model == "tabulated":
            samples = obj["samples"]
            omegas = tuple(float(s[0]) for s in samples)
            values = tuple(complex(float(s[1]), float(s[2])) for s in samples)
            return TabulatedEps(omegas, values)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: bad material fields ({exc})") from exc
    raise ConfigError(f"{where}: unknown material model {model!r}")


def _material_to_obj(m: PermittivityModel) -> dict:
    if isinstance(m, ConstantEps):
        return {"model": "constant", "eps_re": m.eps.real, "eps_im": m.eps.imag}
    if isinstance(m, DrudeLorentzEps):
        return {
            "model": "drude-lorentz",
            "eps_inf": m.eps_inf,
            "oscillators": [
                {"strength": s, "omega0_rad_s": w0, "gamma_rad_s": g} for s, w0, g in m.oscillators
            ],
        }
    if isinstance(m, TabulatedEps):
        return {
            "model": "tabulated",
            "samples": [[w, v.real, v.imag] for w, v in zip(m.omegas, m.values)],
        }
    raise ConfigError(f"cannot serialize material of type {type(m).__name__}")


def load_stack(config_text: str) -> Stack:
    """Parse and validate a stack from its config text.

    Raises ConfigError with line information on parse errors, PassivityError
    on any Im eps < 0, ConfigError on non-positive thickness.
    """
    try:
        doc = json.loads(config_text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("top level must be an object with keys medium0, mediumN, layers")
    for key in ("medium0", "mediumN"):
        if key not in doc:
            raise ConfigError(f"missing required key {key!r}")
    medium0 = _material_from_obj(doc["medium0"], "medium0")
    mediumN = _material_from_obj(doc["mediumN"], "mediumN")
    layers = []
    for i, entry in enumerate(doc.get("layers", [])):
        if not isinstance(entry, dict) or "thickness_m" not in entry or "material" not in entry:
            raise ConfigError(f"layers[{i}]: need 'thickness_m' and 'material'")
        try:
            d = float(entry["thickness_m"])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"layers[{i}]: bad thickness ({exc})") from exc
        layers.append(Layer(d, _material_from_obj(entry["material"], f"layers[{i}].material")))
    return Stack(medium0, tuple(layers), mediumN)


def dump_stack(stack: Stack) -> str:
    """Serialize a stack to config text; load_stack(dump_stack(s)) == s."""
    doc = {
        "medium0": _material_to_obj(stack.medium0),
        "layers": [
            {"thickness_m": lay.thickness, "material": _material_to_obj(lay.material)}
            for lay in stack.layers
        ],
        "mediumN": _material_to_obj(stack.mediumN),
    }
    return json.dumps(doc, indent=2)
