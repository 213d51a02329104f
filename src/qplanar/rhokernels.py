"""Windowed coordinate-space scattering kernels on a radial grid.

The exact in-plane Fourier inversion of the reflection/transmission/noise
coefficients contains distributional large-k parts for lossless outer
media, so this module only ever computes window-convolved kernels: the
k-integrand is multiplied by an explicit apodization W(k) (Gaussian by
default) and the result is the kernel convolved with the window's
transform.  That is the documented semantics, not an approximation knob.

The angular integral is done exactly: for fixed |k| every tensor entry of
sum_q e_q c_q(k) e_q is a trigonometric polynomial of degree <= 2 in the
k-direction angle, so an 8-point DFT recovers its Fourier modes exactly
and each mode integrates against e^{i k.rho} to a Bessel function J_n.
Only the radial k-integral is numerical (adaptive panel-doubling
Gauss-Legendre).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import jv

from .errors import AccuracyError, ConfigError
from .iorel import io_matrix
from .modes import make_context
from .scatter import scatter_set
from .stack import Stack

_N_THETA = 8
_MODES = (-2, -1, 0, 1, 2)

KERNEL_KINDS = ("R0n", "Rn0", "T0n", "Tn0", "Phi0+", "Phi0-", "Phin+", "Phin-")


@dataclass(frozen=True)
class GaussianWindow:
    """k-space apodization exp(-k^2 / 2 k_w^2)."""

    k_w: float

    def __post_init__(self):
        if self.k_w <= 0.0:
            raise ConfigError(f"window scale must be positive, got {self.k_w}")

    def __call__(self, k):
        return np.exp(-np.asarray(k) ** 2 / (2.0 * self.k_w ** 2))

    @property
    def k_max(self) -> float:
        # W < 1e-16 beyond this; integrand support for double precision.
        return 8.6 * self.k_w


def _vec_theta(kind: str, which: str, ctx, q: str, cos_t, sin_t, layer: int):
    """Polarization vector family as a function of the k-direction angle."""
    n = ctx.n
    region = {"0": 0, "n": n, "j": layer}[which[0]]
    sign = +1 if which[1] == "+" else -1
    if q == "s":
        ex, ey, ez = sin_t, -cos_t, np.zeros_like(cos_t)
    else:
        b = -ctx.beta[region] if sign > 0 else ctx.beta[region]
        kj = ctx.kj[region]
        ex, ey, ez = b * cos_t / kj, b * sin_t / kj, np.full_like(cos_t, ctx.k / kj, dtype=complex)
    return np.stack([ex, ey, ez]).astype(complex)


def _kind_spec(kind: str, layer: int):
    """(left vector tag, right vector tag, coefficient getter) per kernel kind."""
    def coeff_r0n(ss, io):
        return ss.r_0n

    def coeff_rn0(ss, io):
        return ss.r_n0

    def coeff_t0n(ss, io):
        return ss.t_0n

    def coeff_tn0(ss, io):
        return ss.t_n0

    def coeff_phi(idx):
        def get(ss, io):
            return io.phi[layer - 1][idx]
        return get

    table = {
        "R0n": ("0-", "0+", coeff_r0n),
        "Rn0": ("n+", "n-", coeff_rn0),
        "T0n": ("n+", "0+", coeff_t0n),
        "Tn0": ("0-", "n-", coeff_tn0),
        "Phi0+": ("0-", "j+", coeff_phi(0)),
        "Phi0-": ("0-", "j-", coeff_phi(1)),
        "Phin+": ("n+", "j+", coeff_phi(2)),
        "Phin-": ("n+", "j-", coeff_phi(3)),
    }
    if kind not in table:
        raise ConfigError(f"kernel kind must be one of {KERNEL_KINDS}, got {kind!r}")
    if kind.startswith("Phi") and layer < 1:
        raise ConfigError("Phi kernels need a layer index >= 1")
    return table[kind]


def _tensor_modes(stack: Stack, omega: float, kind: str, layer: int, k: float) -> np.ndarray:
    """Exact angular Fourier modes T_hat[q][n] (2, 5, 3, 3) of the k-space tensor."""
    ctx = make_context(stack, omega, k)
    left_tag, right_tag, coeff = _kind_spec(kind, layer)
    theta = 2.0 * math.pi * np.arange(_N_THETA) / _N_THETA
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    modes = np.zeros((2, len(_MODES), 3, 3), dtype=complex)
    for iq, q in enumerate(("s", "p")):
        ss = scatter_set(ctx, q=q)
        io = io_matrix(ctx, q=q, _scatter=ss) if kind.startswith("Phi") else None
        c = coeff(ss, io)
        lv = _vec_theta(kind, left_tag, ctx, q, cos_t, sin_t, layer)
        rv = _vec_theta(kind, right_tag, ctx, q, cos_t, sin_t, layer)
        tens = c * np.einsum("it,jt->tij", lv, rv)
        for i, n_mode in enumerate(_MODES):
            phase = np.exp(-1j * n_mode * theta)
            modes[iq, i] = (tens * phase[:, None, None]).mean(axis=0)
    return modes


def _branch_points(stack: Stack, omega: float) -> list[float]:
    """k values where a lossless region's beta changes character."""
    ctx = make_context(stack, omega, 0.0)
    pts = []
    for j in range(ctx.n + 1):
        kj = ctx.kj[j]
        if kj.imag == 0.0 and kj.real > 0.0:
            pts.append(kj.real)
    return sorted(set(pts))


@dataclass(frozen=True)
class KernelField:
    """Windowed kernel on a radial grid, plus its exact angular-mode profiles."""

    kind: str
    layer: int
    omega: float
    window: GaussianWindow
    rho: np.ndarray                 # (nr,)
    phi_dir: float                  # in-plane direction of rho - rho'
    tensor: np.ndarray              # (nr, 3, 3)
    mode_profiles_q: np.ndarray     # (2, 5, nr, 3, 3): per-polarization S_n(rho)

    @property
    def mode_profiles(self) -> np.ndarray:
        """Polarization-summed radial mode profiles (5, nr, 3, 3)."""
        return self.mode_profiles_q.sum(axis=0)

    def tensor_at(self, phi: float) -> np.ndarray:
        """Re-assemble the kernel tensors for another in-plane direction."""
        out = np.zeros_like(self.tensor)
        profiles = self.mode_profiles
        for i, n_mode in enumerate(_MODES):
            out += profiles[i] * np.exp(1j * n_mode * phi)
        return out


def _gauss_nodes(a: float, b: float, n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w


def kernel_radial(stack: Stack, omega: float, kind: str, window: GaussianWindow,
                  rho: np.ndarray, layer: int = 0, phi_dir: float = 0.0,
                  rel_tol: float = 1e-7, max_doublings: int = 9) -> KernelField:
    """Windowed kernel W * kernel on the radial grid `rho`.

    The radial k-integral runs over panels split at the window support edge
    and at lossless branch points; each panel is Gauss-Legendre refined by
    node doubling until the whole-grid result changes by less than rel_tol
    (relative to the largest profile value).  Failure to converge raises
    AccuracyError with the achieved change.
    """
    rho = np.asarray(rho, dtype=float)
    if np.any(rho < 0.0):
        raise ConfigError("rho grid must be nonnegative")
    k_max = window.k_max
    edges = [0.0] + [b for b in _branch_points(stack, omega) if 0.0 < b < k_max] + [k_max]

    def accumulate(n_nodes: int) -> np.ndarray:
        total = np.zeros((2, len(_MODES), rho.size, 3, 3), dtype=complex)
        for a, b in zip(edges, edges[1:]):
            ks, ws = _gauss_nodes(a, b, n_nodes)
            for kk, wk in zip(ks, ws):
                modes = _tensor_modes(stack, omega, kind, layer, float(kk))
                wg = float(window(kk)) * wk * kk / (2.0 * math.pi)
                for i, n_mode in enumerate(_MODES):
                    bess = jv(abs(n_mode), kk * rho)
                    if n_mode < 0 and n_mode % 2 != 0:
                        bess = -bess
                    total[:, i] += (
                        wg * (1j ** n_mode) * bess[None, :, None, None] * modes[:, i][:, None, :, :]
                    )
        return total

    n_nodes = 24
    prev = accumulate(n_nodes)
    for _ in range(max_doublings):
        n_nodes *= 2
        cur = accumulate(n_nodes)
        scale = max(float(np.max(np.abs(cur))), 1e-300)
        change = float(np.max(np.abs(cur - prev))) / scale
        prev = cur
        if change < rel_tol:
            break
    else:
        raise AccuracyError(
            f"radial k-integral did not converge: last change {change:.2e} > {rel_tol:.2e} "
            f"with {n_nodes} nodes/panel; narrow the window or raise max_doublings"
        )
    summed = prev.sum(axis=0)
    tensor = np.zeros((rho.size, 3, 3), dtype=complex)
    for i, n_mode in enumerate(_MODES):
        tensor += summed[i] * np.exp(1j * n_mode * phi_dir)
    return KernelField(kind, layer, omega, window, rho, phi_dir, tensor, prev)

