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
Gauss-Legendre), evaluated in blocks of k-nodes: one mode-engine call, one
Bessel table and one matrix product per angular mode and block.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyError, ConfigError
from .iorel import io_matrix
from .modes import make_context
from .scatter import scatter_set
from .stack import Stack

_N_THETA = 8
_MODES = (-2, -1, 0, 1, 2)
_THETA = 2.0 * math.pi * np.arange(_N_THETA) / _N_THETA
_KHAT = (np.cos(_THETA), np.sin(_THETA))
_DFT = np.exp(-1j * np.outer(_MODES, _THETA)) / _N_THETA   # (5, 8): mean of f e^{-in theta}
# Mode n integrates to i^n J_n(k rho), and J_{-n} = (-1)^n J_n: the factor on J_|n|.
_BESSEL_PHASE = (-1.0, 1j, 1.0, 1j, -1.0)
_NODE_BLOCK = 64   # k-nodes per block; bounds the mode and Bessel tables whatever the rule

# kind -> (left vector, right vector, (row, col) into S, or into phi[layer - 1]
# for the Phi kinds); vectors are tagged (region 0 / n / layer j, direction).
_KINDS = {
    "R0n": ("0-", "0+", (0, 0)),
    "Rn0": ("n+", "n-", (1, 1)),
    "T0n": ("n+", "0+", (1, 0)),
    "Tn0": ("0-", "n-", (0, 1)),
    "Phi0+": ("0-", "j+", (0, 0)),
    "Phi0-": ("0-", "j-", (0, 1)),
    "Phin+": ("n+", "j+", (1, 0)),
    "Phin-": ("n+", "j-", (1, 1)),
}
KERNEL_KINDS = tuple(_KINDS)


@dataclass(frozen=True)
class GaussianWindow:
    """k-space apodization exp(-k^2 / 2 k_w^2)."""

    k_w: float

    def __post_init__(self):
        if not (math.isfinite(self.k_w) and self.k_w > 0.0):
            raise ConfigError(f"window scale must be positive and finite, got {self.k_w}")

    def __call__(self, k):
        return np.exp(-np.asarray(k) ** 2 / (2.0 * self.k_w ** 2))

    @property
    def k_max(self) -> float:
        # W < 1e-16 beyond this; integrand support for double precision.
        return 8.6 * self.k_w


def _tensor_modes(stack: Stack, omega: float, kind: str, layer: int, k) -> np.ndarray:
    """Exact angular Fourier modes T_hat[q][n], shape k.shape + (2, 5, 3, 3), of the k-space tensor."""
    ctx = make_context(stack, omega, k)
    left_tag, right_tag, entry = _KINDS[kind]
    region = {"0": 0, "n": ctx.n, "j": layer}
    modes = np.empty(ctx.k.shape + (2, len(_MODES), 3, 3), dtype=complex)
    for iq, q in enumerate(("s", "p")):
        io = io_matrix(scatter_set(ctx, q))
        c = (io.phi[layer - 1] if kind.startswith("Phi") else io.s_matrix)[(..., *entry)]
        lv, rv = (ctx.pol_vector(q, region[tag[0]], 1 if tag[1] == "+" else -1, _KHAT)
                  for tag in (left_tag, right_tag))
        tens = c[..., None, None, None] * (lv[..., :, None] * rv[..., None, :])
        modes[..., iq, :, :, :] = (_DFT @ tens.reshape(ctx.k.shape + (_N_THETA, 9))).reshape(
            ctx.k.shape + (len(_MODES), 3, 3))
    return modes


def _panel_edges(stack: Stack, omega: float, window: GaussianWindow) -> list[float]:
    """0, the k values below k_max where a lossless region's beta changes character, k_max."""
    ctx = make_context(stack, omega, 0.0)
    pts = {kj.real for kj in ctx.kj if kj.imag == 0.0 and 0.0 < kj.real < window.k_max}
    return [0.0, *sorted(pts), window.k_max]


@dataclass(frozen=True)
class KernelField:
    """Windowed kernel on a radial grid, plus its exact angular-mode profiles."""

    kind: str
    layer: int
    omega: float
    window: GaussianWindow
    rho: np.ndarray                 # (nr,)
    mode_profiles_q: np.ndarray     # (2, 5, nr, 3, 3): per-polarization S_n(rho)
    nodes_per_panel: int            # Gauss-Legendre nodes per panel of the final rule
    last_change: float              # relative change that ended the node doubling

    @property
    def mode_profiles(self) -> np.ndarray:
        """Polarization-summed radial mode profiles (5, nr, 3, 3)."""
        return self.mode_profiles_q.sum(axis=0)

    @property
    def tensor(self) -> np.ndarray:
        """Kernel tensors (nr, 3, 3) for rho - rho' along x (in-plane direction 0)."""
        return self.tensor_at(0.0)

    def tensor_at(self, phi: float) -> np.ndarray:
        """Kernel tensors (nr, 3, 3) for rho - rho' at in-plane angle phi."""
        return np.einsum("n,nrij->rij", np.exp(1j * np.multiply(_MODES, phi)), self.mode_profiles)


@functools.lru_cache(maxsize=16)
def _legendre_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre nodes and weights on [-1, 1] (read-only, cached)."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _bessel_j012(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """J_0, J_1, J_2 on x >= 0, with J_2 = 2 J_1 / x - J_0 from x = 1e-3 up.

    Below, the recurrence cancels (and J_1 / x loses bits at subnormal x), so J_2
    is its series x^2/8 (1 - x^2/12), 0 at x = 0, to within 3e-15 of J_2.
    """
    from scipy.special import j0, j1   # deferred: only the kernels need scipy

    b0, b1 = j0(x), j1(x)
    xs = np.minimum(x, 1e-3)
    b2 = np.where(x < 1e-3, xs * xs / 8.0 * (1.0 - xs * xs / 12.0),
                  2.0 * b1 / np.maximum(x, 1e-3) - b0)
    return b0, b1, b2


def _accumulate(stack: Stack, omega: float, kind: str, layer: int, window: GaussianWindow,
                rho: np.ndarray, edges: list[float], n_nodes: int) -> np.ndarray:
    """Mode profiles (2, 5, nr, 3, 3) of the n_nodes-per-panel Gauss-Legendre rule on `edges`."""
    x, w = _legendre_rule(n_nodes)
    total = np.zeros((len(_MODES), rho.size, 18), dtype=complex)   # (mode, rho, (q, i, j))
    for a, b in zip(edges, edges[1:]):
        ks = 0.5 * (b - a) * x + 0.5 * (a + b)
        wgs = window(ks) * (0.5 * (b - a) * w) * ks / (2.0 * math.pi)
        for start in range(0, n_nodes, _NODE_BLOCK):
            kb = ks[start:start + _NODE_BLOCK]
            block = _tensor_modes(stack, omega, kind, layer, kb)
            block *= wgs[start:start + _NODE_BLOCK, None, None, None, None]
            bess = _bessel_j012(np.outer(rho, kb))
            for i, n in enumerate(_MODES):
                total[i] += _BESSEL_PHASE[i] * (bess[abs(n)] @ block[:, :, i].reshape(-1, 18))
    return total.reshape(len(_MODES), rho.size, 2, 3, 3).transpose(2, 0, 1, 3, 4)


def kernel_radial(stack: Stack, omega: float, kind: str, window: GaussianWindow,
                  rho: np.ndarray, layer: int = 0, rel_tol: float = 1e-7,
                  max_doublings: int = 9) -> KernelField:
    """Windowed kernel W * kernel on the radial grid `rho`.

    The radial k-integral runs over panels split at the window support edge
    and at lossless branch points; each panel is Gauss-Legendre refined by
    node doubling until the whole-grid result changes by less than rel_tol
    (relative to the largest profile value).  Failure to converge raises
    AccuracyError with the achieved change.
    """
    if kind not in _KINDS:
        raise ConfigError(f"kernel kind must be one of {KERNEL_KINDS}, got {kind!r}")
    if kind.startswith("Phi") and not 1 <= layer <= stack.n - 1:
        raise ConfigError(f"Phi kernels need a layer index in 1..{stack.n - 1}, got {layer}")
    rho = np.asarray(rho, dtype=float)
    if rho.size == 0:
        raise ConfigError("rho grid is empty")
    if not np.all(np.isfinite(rho) & (rho >= 0.0)):
        raise ConfigError("rho grid must be nonnegative and finite")
    if not (math.isfinite(rel_tol) and rel_tol > 0.0):
        raise ConfigError(f"rel_tol must be positive and finite, got {rel_tol}")
    if max_doublings < 1:
        raise ConfigError(f"max_doublings must be >= 1, got {max_doublings}")
    accumulate = functools.partial(_accumulate, stack, omega, kind, layer, window, rho,
                                   _panel_edges(stack, omega, window))
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
    return KernelField(kind, layer, omega, window, rho, prev, n_nodes, change)

