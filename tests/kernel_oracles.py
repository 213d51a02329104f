"""Oracles for the windowed coordinate-space kernels.

`forward_modes` Hankel-transforms a computed radial kernel back to k-space;
`tensor_modes_dft` takes the angular modes of the k-space tensor by an 8-point
DFT of its dyads, which the closed-form modes of `rhokernels` must match;
`kspace_reference` evaluates the windowed k-space tensor it should return;
`accumulate_per_node` is the one-node-at-a-time radial quadrature that the
block-wise `rhokernels._accumulate` must reproduce.
"""

import math

import numpy as np
from scipy.integrate import simpson
from scipy.special import jv

from qplanar.iorel import io_matrix, phi_at_front
from qplanar.modes import make_context
from qplanar.rhokernels import _KINDS, _MODES, GaussianWindow, KernelField, _legendre_rule
from qplanar.scatter import scatter_set
from qplanar.stack import Stack

_N_THETA = 8
_THETA = 2.0 * math.pi * np.arange(_N_THETA) / _N_THETA
_DFT = np.exp(-1j * np.outer(_MODES, _THETA)) / _N_THETA   # (5, 8): mean of f e^{-in theta}


def tensor_modes_dft(stack: Stack, omega: float, kind: str, layer: int, k) -> np.ndarray:
    """Angular Fourier modes T_hat[q][n], shape k.shape + (2, 5, 3, 3), of the k-space tensor.

    Builds c_q L R from `ModeContext.pol_vector` on 8 directions theta and takes
    its modes |n| <= 2 (the tensor's only ones) by an 8-point DFT, which is exact
    for a trigonometric polynomial of degree 2.
    """
    ctx = make_context(stack, omega, k)
    left_tag, right_tag, entry = _KINDS[kind]
    region = {"0": 0, "n": ctx.n, "j": layer}
    modes = np.empty(ctx.k.shape + (2, len(_MODES), 3, 3), dtype=complex)
    for iq, q in enumerate(("s", "p")):
        ss = scatter_set(ctx, q)
        c = (phi_at_front(ss)[layer - 1] if kind.startswith("Phi") else io_matrix(ss).s_matrix)[
            (..., *entry)]
        lv, rv = (ctx.pol_vector(q, region[tag[0]], 1 if tag[1] == "+" else -1,
                                 (np.cos(_THETA), np.sin(_THETA)))
                  for tag in (left_tag, right_tag))
        tens = c[..., None, None, None] * (lv[..., :, None] * rv[..., None, :])
        modes[..., iq, :, :, :] = (_DFT @ tens.reshape(ctx.k.shape + (_N_THETA, 9))).reshape(
            ctx.k.shape + (len(_MODES), 3, 3))
    return modes


def forward_modes(field: KernelField, k_samples: np.ndarray) -> np.ndarray:
    """Inverse-transform oracle: Hankel-transform the radial mode profiles back.

    Returns (len(k_samples), 3, 3) tensors that should reproduce
    W(k) * sum_q e c e at theta_k = 0, the direction of `field.tensor`, when
    the radial grid resolves and contains the kernel.  Uses Simpson
    quadrature on the field's own grid.
    """
    rho = field.rho
    profiles = field.mode_profiles
    out = np.zeros((len(k_samples), 3, 3), dtype=complex)
    for m, k in enumerate(k_samples):
        acc = np.zeros((3, 3), dtype=complex)
        for i, n_mode in enumerate(_MODES):
            bess = jv(abs(n_mode), k * rho)
            if n_mode < 0 and n_mode % 2 != 0:
                bess = -bess
            integrand = rho[:, None, None] * bess[:, None, None] * profiles[i]
            radial = simpson(integrand, x=rho, axis=0)
            acc += 2.0 * math.pi * (-1j) ** n_mode * radial
        out[m] = acc
    return out


def kspace_reference(stack: Stack, omega: float, kind: str, window: GaussianWindow,
                     k_samples: np.ndarray, layer: int = 0) -> np.ndarray:
    """Windowed k-space tensors W(k) sum_q e c e at theta_k = 0."""
    out = np.zeros((len(k_samples), 3, 3), dtype=complex)
    for m, k in enumerate(k_samples):
        modes = tensor_modes_dft(stack, omega, kind, layer, float(k)).sum(axis=0)
        out[m] = float(window(k)) * modes.sum(axis=0)
    return out


def accumulate_per_node(stack: Stack, omega: float, kind: str, layer: int, window: GaussianWindow,
                        rho: np.ndarray, edges: list[float], n_nodes: int) -> np.ndarray:
    """Per-node reference for `rhokernels._accumulate`: mode profiles (2, 5, nr, 3, 3).

    The same n_nodes-per-panel Gauss-Legendre nodes on `edges` (the rule itself
    is checked against an mpmath reference in `test_rhokernels`), one node at a
    time, with `jv` for every angular mode.
    """
    x, w = _legendre_rule(n_nodes)
    total = np.zeros((2, len(_MODES), rho.size, 3, 3), dtype=complex)
    for a, b in zip(edges, edges[1:]):
        ks, ws = 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w
        for kk, wk in zip(ks, ws):
            modes = tensor_modes_dft(stack, omega, kind, layer, float(kk))
            wg = float(window(kk)) * wk * kk / (2.0 * math.pi)
            for i, n_mode in enumerate(_MODES):
                bess = jv(abs(n_mode), kk * rho)
                if n_mode < 0 and n_mode % 2 != 0:
                    bess = -bess
                total[:, i] += (
                    wg * (1j ** n_mode) * bess[None, :, None, None] * modes[:, i][:, None, :, :]
                )
    return total

