"""Monte Carlo oracle for the thermal emission spectra.

Draws the intraplate Langevin noise as the two layer amplitudes of each
lossy layer and coupled Cartesian component, with the covariance the
midpoint rule gives them on a z-grid, pushes them through the
noise-coupling rows of the IO relation, and estimates the output spectral
intensity.  Everything is done in the same N0-normalized units as the
closed forms, where the per-layer amplitude reduces to

    u_(+/-) = -(omega/c) sqrt(eps''_j) / beta_j * int_0^d e^{-/+ i beta z} f(z).e_(+/-) dz

with <f_mu*(z) f_nu(z')> = n(omega,T) delta_mu,nu delta(z - z').

The grid's nodes set the midpoint-rule quadrature of each layer's 2 x 2
amplitude covariance, not the number of draws: a realization draws two
unit circular Gaussians per (lossy layer, coupled component), whatever the
node count.  The estimator has the law of one draw per (z-cell,
component), but a seed gives other estimates than that earlier sampler.

Reproducibility contract: streams are Philox counter-based, keyed by
(seed, realization-block) with 0 <= seed < 2**64 and a fixed block size,
and the blocks are reduced in order.  Estimates are bit-identical for a
given seed and plan.
"""

from __future__ import annotations

import math
import warnings as _warnings
from dataclasses import dataclass

import numpy as np

from .constants import C_LIGHT
from .errors import AccuracyError, ConfigError
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


def _moments(seed: int, realizations: int, w_flat: np.ndarray) -> tuple[float, float]:
    """Sums of |u_out|^2 and |u_out|^4 over the realizations, block by block in order."""
    buf = np.empty((min(BLOCK, realizations), w_flat.size, 2))
    s1 = s2 = 0.0
    for idx in range((realizations + BLOCK - 1) // BLOCK):
        draws = buf[:min(BLOCK, realizations - idx * BLOCK)]
        rng = np.random.Generator(np.random.Philox(key=[np.uint64(seed), np.uint64(idx)]))
        rng.standard_normal(out=draws)
        f = draws.view(np.complex128)[..., 0]   # in place: unit circular Gaussians
        f /= math.sqrt(2.0)
        w_vals = np.abs(f @ w_flat) ** 2
        s1 += w_vals.sum()
        s2 += (w_vals * w_vals).sum()
    return s1, s2


def sample_emission(plan: SamplePlan, stack: Stack) -> EmissionEstimate:
    """Estimate the outgoing thermal intensity (N0-normalized) and its standard error.

    The estimator is the sample mean of |u_out|^2 over realizations; the
    standard error is the usual sqrt(var / N).  With T = 0 every variance is
    zero and the estimate is exactly zero.  A layer whose mode amplitudes
    overflow (too thick or too lossy) raises AccuracyError.
    """
    if plan.realizations < 1:
        raise ConfigError("need at least one realization")
    if not 0 <= plan.seed < 2**64:
        raise ConfigError(f"seed must satisfy 0 <= seed < 2**64, got {plan.seed}")
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

    # Layer amplitudes.  Over the cell midpoints z_c of layer j, every column of
    # the per-cell weights is W_j = [a b] C_j with the mode vectors
    # a = e^{-i beta z_c}, b = e^{+i beta z_c} and C_j the 2 x 3 coefficients of
    # the two modes (phi row of the requested side, polarization vector, the
    # prefactor and the cell variance n/dz).  With the thin QR [a b] = Q R,
    # W_j^T f = (Q^H W_j)^T (Q^T f) = (R C_j)^T g, and g = Q^T f is again iid
    # unit circular Gaussian: two draws per coupled component give u the law
    # of one draw per (cell, component), and the nodes only set the
    # midpoint-rule quadrature of the 2 x 2 amplitude covariance, the Gram
    # matrix [a b]^H [a b] = R^H R.
    weights = []   # (2, 3) complex per lossy layer
    for j in range(1, ctx.n):
        epp = ctx.eps[j].imag
        if epp <= 0.0:
            _warnings.warn(f"layer {j} is lossless; it contributes no thermal noise", stacklevel=2)
            continue
        dz = ctx.d[j] / m
        z_cells = (np.arange(m) + 0.5) * dz
        beta = ctx.beta[j]
        pref = -(ctx.omega / C_LIGHT) * math.sqrt(epp) / beta * dz * math.sqrt(occ / dz)
        phi_plus, phi_minus = io.phi[j - 1][row]
        coeffs = pref * np.stack([phi_plus * ctx.pol_vector(plan.q, j, +1),
                                  phi_minus * ctx.pol_vector(plan.q, j, -1)])
        modes = np.exp(np.multiply.outer(z_cells, [-1j * beta, 1j * beta]))
        v = np.linalg.qr(modes, mode="r") @ coeffs
        if not np.isfinite(v).all():
            raise AccuracyError(f"sampler weights are not finite at omega = {plan.omega:.6e} "
                                f"rad/s, k = {plan.k:.6e} 1/m: the mode amplitudes of layer {j} "
                                "overflow")
        weights.append(v)
    # Isotropic noise: a component of zero weight adds nothing and is not drawn.
    w_flat = np.array(weights, dtype=complex).reshape(-1)
    w_flat = w_flat[w_flat != 0]
    if not w_flat.size:
        _warnings.warn("no noise couples to the output; estimate is identically zero", stacklevel=2)

    s1, s2 = _moments(plan.seed, plan.realizations, w_flat)
    n_real = plan.realizations
    mean = s1 / n_real
    if n_real > 1:
        var = max(s2 / n_real - mean * mean, 0.0) * n_real / (n_real - 1)
        stderr = math.sqrt(var / n_real)
    else:
        stderr = math.inf
    return EmissionEstimate(mean, stderr, n_real)
