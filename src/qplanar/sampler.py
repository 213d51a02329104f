"""Monte Carlo oracle for the thermal emission spectra.

Samples the intraplate Langevin noise on a z-grid as complex circular
Gaussians, quadratures the layer amplitudes with the midpoint rule, pushes
them through the noise-coupling rows of the IO relation, and estimates the
output spectral intensity.  Everything is done in the same N0-normalized
units as the closed forms, where the per-layer amplitude reduces to

    u_(+/-) = -(omega/c) sqrt(eps''_j) / beta_j * int_0^d e^{-/+ i beta z} f(z).e_(+/-) dz

with <f_mu*(z) f_nu(z')> = n(omega,T) delta_mu,nu delta(z - z').

Reproducibility contract: streams are Philox counter-based, keyed by
(seed, realization-block), with a fixed block size, and the blocks are
reduced in order.  Estimates are bit-identical for a given seed and plan.
"""

from __future__ import annotations

import math
import warnings as _warnings
from dataclasses import dataclass

import numpy as np

from .constants import C_LIGHT
from .errors import ConfigError
from .iorel import io_matrix
from .modes import make_context
from .scatter import scatter_set
from .stack import Stack
from .thermal import bose

BLOCK = 2048  # realizations per RNG block; part of the determinism contract


@dataclass(frozen=True)
class SamplePlan:
    omega: float
    k: float
    q: str = "s"
    temperature: float = 300.0
    nodes_per_layer: int = 64
    realizations: int = 10_000
    seed: int = 12345
    side: int = 0  # outer region the emission leaves through: 0 or n


@dataclass(frozen=True)
class EmissionEstimate:
    w: float
    stderr: float
    realizations: int


def _block_samples(seed: int, block_index: int, count: int, shape_tail: tuple[int, ...]) -> np.ndarray:
    """Standard-normal draws for one realization block, independent of chunking."""
    bitgen = np.random.Philox(key=[np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(block_index)])
    rng = np.random.Generator(bitgen)
    return rng.standard_normal(size=(count, *shape_tail))


def _block_moments(seed: int, block_index: int, count: int, w_flat: np.ndarray) -> tuple[float, float]:
    """Sums of |u_out|^2 and |u_out|^4 over one realization block."""
    draws = _block_samples(seed, block_index, count, (w_flat.size, 2))
    f = (draws[..., 0] + 1j * draws[..., 1]) / math.sqrt(2.0)
    w_vals = np.abs(f @ w_flat) ** 2
    return w_vals.sum(), (w_vals * w_vals).sum()


def sample_emission(plan: SamplePlan, stack: Stack) -> EmissionEstimate:
    """Estimate the outgoing thermal intensity (N0-normalized) and its standard error.

    The estimator is the sample mean of |u_out|^2 over realizations; the
    standard error is the usual sqrt(var / N).  With T = 0 every variance is
    zero and the estimate is exactly zero.
    """
    if plan.realizations < 1:
        raise ConfigError("need at least one realization")
    ctx = make_context(stack, plan.omega, plan.k)
    row = ctx.side_row(plan.side)
    if ctx.n < 2:
        raise ConfigError("sampling needs at least one interior layer")
    m = plan.nodes_per_layer
    if m < 2:
        raise ConfigError("at least 2 nodes per layer")
    io = io_matrix(scatter_set(ctx, plan.q))
    occ = bose(plan.omega, plan.temperature)
    if occ == 0.0:
        return EmissionEstimate(0.0, 0.0, plan.realizations)

    # Per-cell weights: u_lambda = sum_cells w_cell(lambda) (f_cell . e_lambda),
    # folded with the phi row of the requested side so the output is a single
    # weighted sum over all cells and Cartesian components.  The cell variance
    # n/dz is folded in as well, scaling each layer's weights by sqrt(n/dz),
    # so the draws stay unit normals.
    weights = []  # (cells, 3) complex, concatenated over layers
    any_lossy = False
    for j in range(1, ctx.n):
        d = ctx.d[j]
        dz = d / m
        z_cells = (np.arange(m) + 0.5) * dz
        beta = ctx.beta[j]
        epp = ctx.eps[j].imag
        if epp <= 0.0:
            _warnings.warn(f"layer {j} is lossless; it contributes no thermal noise", stacklevel=2)
        else:
            any_lossy = True
        pref = -(ctx.omega / C_LIGHT) * math.sqrt(max(epp, 0.0)) / beta * dz
        e_plus = ctx.pol_vector(plan.q, j, +1)
        e_minus = ctx.pol_vector(plan.q, j, -1)
        phi_plus, phi_minus = io.phi[j - 1][row]
        w_plus = phi_plus * pref * np.exp(-1j * beta * z_cells)[:, None] * e_plus[None, :]
        w_minus = phi_minus * pref * np.exp(1j * beta * z_cells)[:, None] * e_minus[None, :]
        weights.append((w_plus + w_minus) * math.sqrt(occ / dz))
    if not any_lossy:
        _warnings.warn("no lossy layer in the plan; estimate is identically zero", stacklevel=2)
    w_flat = np.concatenate(weights, axis=0).reshape(-1)  # (cells*3,)

    n_blocks = (plan.realizations + BLOCK - 1) // BLOCK
    s1 = 0.0
    s2 = 0.0
    for idx in range(n_blocks):
        a, b = _block_moments(plan.seed, idx, min(BLOCK, plan.realizations - idx * BLOCK), w_flat)
        s1 += a
        s2 += b
    n_real = plan.realizations
    mean = s1 / n_real
    if n_real > 1:
        var = max(s2 / n_real - mean * mean, 0.0) * n_real / (n_real - 1)
        stderr = math.sqrt(var / n_real)
    else:
        stderr = math.inf
    return EmissionEstimate(mean, stderr, n_real)
