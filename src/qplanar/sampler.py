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
and the blocks are reduced in order.  Every mode and polarization reads the
same streams.  A call draws each block once, as wide as its widest coupled
weight vector; the normal stream of a key is sequential, so a vector of
width w reads, as a prefix of that draw, exactly the block a draw of width
w alone would give.  An estimate is therefore bit-identical for a given
seed and set of arguments, whatever batch of modes and polarizations it is
in.
"""

from __future__ import annotations

import math
import warnings as _warnings

import numpy as np

from .constants import C_LIGHT
from .errors import AccuracyError, ConfigError
from .iorel import io_matrix
from .modes import ModeContext
from .scatter import scatter_set
from .thermal import bose

BLOCK = 2048  # realizations per RNG block; part of the determinism contract


def _moments(seed: int, realizations: int, vectors: list[np.ndarray]) -> np.ndarray:
    """Sums of |u_out|^2 and |u_out|^4 over the realizations, shape (len(vectors), 2).

    Each (seed, block) is drawn once, as wide as the widest weight vector; a
    vector of width w reads the first nb * w unit circular Gaussians of the
    block's nb realizations as an (nb, w) array.  Blocks are reduced in order.
    """
    width = max((v.size for v in vectors), default=0)
    buf = np.empty(min(BLOCK, realizations) * width * 2)
    sums = np.zeros((len(vectors), 2))
    for idx in range((realizations + BLOCK - 1) // BLOCK):
        nb = min(BLOCK, realizations - idx * BLOCK)
        draws = buf[:nb * width * 2]
        rng = np.random.Generator(np.random.Philox(key=[np.uint64(seed), np.uint64(idx)]))
        rng.standard_normal(out=draws)
        f = draws.view(np.complex128)   # in place: unit circular Gaussians
        f /= math.sqrt(2.0)
        for i, v in enumerate(vectors):
            w_vals = np.abs(f[:nb * v.size].reshape(nb, v.size) @ v) ** 2
            sums[i, 0] += w_vals.sum()
            sums[i, 1] += (w_vals * w_vals).sum()
    return sums


def sample_emission(ctx: ModeContext, q="s", temperature: float = 300.0, side: int = 0, *,
                    nodes_per_layer: int = 64, realizations: int = 10_000, seed: int = 12345):
    """Estimate the outgoing thermal intensity (N0-normalized) and its standard error, per k.

    Returns the arrays (w, stderr), each of shape ctx.k.shape.  `q` is "s",
    "p" or a sequence of them; a sequence puts the polarization axis first,
    shape (len(q), *ctx.k.shape).  The estimate of a mode is the sample mean
    of |u_out|^2 over its realizations; the standard error is the usual
    sqrt(var / N).  `side` is the outer region the emission leaves through,
    0 or ctx.n.  Where n(omega, T) = 0 (T = 0) every variance is zero and
    the estimate is exactly zero.  A layer whose mode amplitudes overflow
    (too thick or too lossy) raises AccuracyError.
    """
    if realizations < 1:
        raise ConfigError("need at least one realization")
    if not 0 <= seed < 2**64:
        raise ConfigError(f"seed must satisfy 0 <= seed < 2**64, got {seed}")
    row = ctx.side_row(side)
    if ctx.n < 2:
        raise ConfigError("sampling needs at least one interior layer")
    if nodes_per_layer < 2:
        raise ConfigError("at least 2 nodes per layer")
    pols = (q,) if isinstance(q, str) else tuple(q)
    phis = [io_matrix(scatter_set(ctx, p)).phi for p in pols]
    occ = bose(ctx.omega, temperature)
    w = np.zeros(ctx.k.shape if isinstance(q, str) else (len(pols),) + ctx.k.shape)
    stderr = np.zeros(w.shape)
    live = occ != 0.0
    if not live.any():
        return w, stderr
    sub, occ = ctx.select(live), occ[live]

    # Layer amplitudes.  Over the cell midpoints z_c of layer j, every column of
    # the per-cell weights is W_j = [a b] C_j with the mode vectors
    # a = e^{-i beta z_c}, b = e^{+i beta z_c} and C_j the 2 x 3 coefficients of
    # the two modes (phi row of the requested side, polarization vector, the
    # prefactor and the cell variance n/dz).  With the thin QR [a b] = Q R,
    # W_j^T f = (Q^H W_j)^T (Q^T f) = (R C_j)^T g, and g = Q^T f is again iid
    # unit circular Gaussian: two draws per coupled component give u the law
    # of one draw per (cell, component), and the nodes only set the
    # midpoint-rule quadrature of the 2 x 2 amplitude covariance, the Gram
    # matrix [a b]^H [a b] = R^H R.  R does not depend on the polarization.
    # A lossless layer keeps zero weights.
    weights = np.zeros((len(pols), sub.k.size, ctx.n - 1, 2, 3), dtype=complex)
    for j in range(1, ctx.n):
        epp = sub.eps[j].imag
        lossy = epp > 0.0
        if not lossy.all():
            _warnings.warn(f"layer {j} is lossless; it contributes no thermal noise", stacklevel=2)
        if not lossy.any():
            continue
        dz = ctx.d[j] / nodes_per_layer
        z_cells = (np.arange(nodes_per_layer) + 0.5) * dz
        beta = sub.beta[j][lossy]
        pref = (-(sub.omega[lossy] / C_LIGHT) * np.sqrt(epp[lossy]) / beta * dz
                * np.sqrt(occ[lossy] / dz))
        # An overflowing layer leaves inf or NaN in its weights; the check below raises on them.
        with np.errstate(over="ignore", invalid="ignore"):
            modes = np.exp(z_cells[:, None] * np.multiply.outer(beta, [-1j, 1j])[:, None, :])
            r = np.linalg.qr(modes, mode="r")
        for iq, (p, phi) in enumerate(zip(pols, phis)):
            pol = np.stack([sub.pol_vector(p, j, +1)[lossy], sub.pol_vector(p, j, -1)[lossy]], 1)
            # pref * (phi * pol), in this order: (pref * phi) * pol moves some p estimates by
            # 1 ulp, and a seed's estimates are part of the reproducibility contract.
            coeffs = pref[:, None, None] * (phi[j - 1, live, row][lossy][..., None] * pol)
            with np.errstate(invalid="ignore"):
                weights[iq, lossy, j - 1] = r @ coeffs
    bad = ~np.isfinite(weights).all(axis=(-2, -1))
    if bad.any():
        _, i, j = np.unravel_index(np.argmax(bad), bad.shape)
        raise AccuracyError(f"sampler weights are not finite at {sub.mode(i)}: the mode "
                            f"amplitudes of layer {j + 1} overflow")

    # Isotropic noise: a component of zero weight adds nothing and is not drawn.
    vectors = [v[v != 0] for v in weights.reshape(len(pols) * sub.k.size, -1)]
    moments = _moments(seed, realizations, vectors).reshape(len(pols), sub.k.size, 2)
    if np.all(weights == 0, axis=(2, 3, 4)).any():
        _warnings.warn("no noise couples to the output; estimate is identically zero", stacklevel=2)
    n = realizations
    mean = moments[..., 0] / n
    by_pol = (len(pols),) + ctx.k.shape   # views of w and stderr with the polarization axis
    w.reshape(by_pol)[:, live] = mean
    if n > 1:
        var = np.maximum(moments[..., 1] / n - mean * mean, 0.0) * n / (n - 1)
        stderr.reshape(by_pol)[:, live] = np.sqrt(var / n)
    else:
        stderr.reshape(by_pol)[:, live] = math.inf
    return w, stderr
