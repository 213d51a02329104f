"""Oracles for the windowed coordinate-space kernels.

`forward_modes` Hankel-transforms a computed radial kernel back to k-space;
`kspace_reference` evaluates the windowed k-space tensor it should return;
`accumulate_per_node` is the one-node-at-a-time radial quadrature that the
block-wise `rhokernels._accumulate` must reproduce.
"""

import math

import numpy as np
from scipy.integrate import simpson
from scipy.special import jv

from qplanar.rhokernels import _MODES, GaussianWindow, KernelField, _tensor_modes
from qplanar.stack import Stack


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
        modes = _tensor_modes(stack, omega, kind, layer, float(k)).sum(axis=0)
        out[m] = float(window(k)) * modes.sum(axis=0)
    return out


def accumulate_per_node(stack: Stack, omega: float, kind: str, layer: int, window: GaussianWindow,
                        rho: np.ndarray, edges: list[float], n_nodes: int) -> np.ndarray:
    """Per-node reference for `rhokernels._accumulate`: mode profiles (2, 5, nr, 3, 3).

    The same n_nodes-per-panel Gauss-Legendre nodes on `edges`, one node at a
    time, with `jv` for every angular mode.
    """
    x, w = np.polynomial.legendre.leggauss(n_nodes)
    total = np.zeros((2, len(_MODES), rho.size, 3, 3), dtype=complex)
    for a, b in zip(edges, edges[1:]):
        ks, ws = 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w
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
