"""Round-trip oracles for the windowed coordinate-space kernels.

`forward_modes` Hankel-transforms a computed radial kernel back to k-space;
`kspace_reference` evaluates the windowed k-space tensor it should return.
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
    W(k) * sum_q e c e at theta_k = phi_dir when the radial grid resolves
    and contains the kernel.  Uses Simpson quadrature on the field's own
    grid.
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
            acc += 2.0 * math.pi * (-1j) ** n_mode * radial * np.exp(1j * n_mode * field.phi_dir)
        out[m] = acc
    return out


def kspace_reference(stack: Stack, omega: float, kind: str, window: GaussianWindow,
                     k_samples: np.ndarray, layer: int = 0, phi_dir: float = 0.0) -> np.ndarray:
    """Windowed k-space tensors W(k) sum_q e c e at theta_k = phi_dir."""
    out = np.zeros((len(k_samples), 3, 3), dtype=complex)
    for m, k in enumerate(k_samples):
        modes = _tensor_modes(stack, omega, kind, layer, float(k)).sum(axis=0)
        acc = np.zeros((3, 3), dtype=complex)
        for i, n_mode in enumerate(_MODES):
            acc += modes[i] * np.exp(1j * n_mode * phi_dir)
        out[m] = float(window(k)) * acc
    return out
