"""Monte Carlo oracle for the thermal emission spectra.

Draws the intraplate Langevin noise as the two layer amplitudes of each
lossy layer and coupled Cartesian component, pushes them through the
noise-coupling rows of the IO relation, and estimates the output spectral
intensity.  Everything is done in the same N0-normalized units as the
closed forms, where the per-layer amplitude reduces to

    u_+ = -(omega/c) sqrt(eps''_j) / beta_j * int_0^d e^{i beta (d - z)} f(z).e_+ dz,
    u_- = -(omega/c) sqrt(eps''_j) / beta_j * int_0^d e^{i beta z} f(z).e_- dz,

with <f_mu*(z) f_nu(z')> = n(omega,T) delta_mu,nu delta(z - z'), and E+ at z = d as in Phi.

Each realization draws two unit circular Gaussians per (lossy layer,
coupled component): the two layer amplitudes, with the exact 2 x 2
covariance of the mode functions e^{i beta (d - z)} and e^{i beta z}.

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

from .commutators import gram_eigenvalues
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
                    realizations: int = 10_000, seed: int = 12345):
    """Estimate the outgoing thermal intensity (N0-normalized) and its standard error, per k.

    Returns the arrays (w, stderr), each of shape ctx.k.shape.  `q` is "s",
    "p" or a sequence of them; a sequence puts the polarization axis first,
    shape (len(q), *ctx.k.shape).  The estimate of a mode is the sample mean
    of |u_out|^2 over its realizations; the standard error is the usual
    sqrt(var / N).  `side` is the outer region the emission leaves through,
    0 or ctx.n.  Where n(omega, T) = 0 (T = 0) every variance is zero and
    the estimate is exactly zero.  A non-finite weight raises AccuracyError.
    """
    if realizations < 1:
        raise ConfigError("need at least one realization")
    if not 0 <= seed < 2**64:
        raise ConfigError(f"seed must satisfy 0 <= seed < 2**64, got {seed}")
    row = ctx.side_row(side)
    if ctx.n < 2:
        raise ConfigError("sampling needs at least one interior layer")
    pols = (q,) if isinstance(q, str) else tuple(q)
    phis = [io_matrix(scatter_set(ctx, p)).phi for p in pols]
    occ = bose(ctx.omega, temperature)
    w = np.zeros(ctx.k.shape if isinstance(q, str) else (len(pols),) + ctx.k.shape)
    stderr = np.zeros(w.shape)
    live = occ != 0.0
    if not live.any():
        return w, stderr
    sub, occ = ctx.select(live), occ[live]

    # Layer amplitudes.  Per lossy layer j, u = int (a C_+ + b C_-) . f dz, with C_j the 2 x 3
    # coefficients of a = e^{i beta (d - z)}, b = e^{i beta z} (phi row, pol vector, prefactor;
    # n(omega, T) scales the estimates at the end, so |u|^4 cannot underflow), has the law of
    # (R C_j)^T xi, xi two unit circular Gaussians per component, for any R^H R = G, the Gram
    # matrix of a and b: R = diag(sqrt(g + h), sqrt(g - h)) [[1, 1], [1, -1]] / sqrt(2).
    # A lossless layer keeps zero weights.
    weights = np.zeros((len(pols), sub.k.size, ctx.n - 1, 2, 3), dtype=complex)
    for j in range(1, ctx.n):
        epp = sub.eps[j].imag
        lossy = epp > 0.0
        if not lossy.all():
            _warnings.warn(f"layer {j} is lossless; it contributes no thermal noise", stacklevel=2)
        if not lossy.any():
            continue
        pref = -(sub.omega[lossy] / C_LIGHT) * np.sqrt(epp[lossy]) / sub.beta[j][lossy]
        eig = np.stack(gram_eigenvalues(sub, j), -1)[lossy]
        r = np.sqrt(eig / 2.0)[..., None] * [[1.0, 1.0], [1.0, -1.0]]
        for iq, (p, phi) in enumerate(zip(pols, phis)):
            pol = np.stack([sub.pol_vector(p, j, +1)[lossy], sub.pol_vector(p, j, -1)[lossy]], 1)
            # pref * (phi * pol), in this order: (pref * phi) * pol moves some p estimates by
            # 1 ulp, and a seed's estimates are part of the reproducibility contract.
            coeffs = pref[:, None, None] * (phi[j - 1, live, row][lossy][..., None] * pol)
            weights[iq, lossy, j - 1] = r @ coeffs
    bad = ~np.isfinite(weights).all(axis=(-2, -1))
    if bad.any():
        _, i, j = np.unravel_index(np.argmax(bad), bad.shape)
        raise AccuracyError(f"sampler weights are not finite at {sub.mode(i)}: the noise "
                            f"coupling of layer {j + 1} is not finite")

    # Isotropic noise: a component of zero weight adds nothing and is not drawn.
    vectors = [v[v != 0] for v in weights.reshape(len(pols) * sub.k.size, -1)]
    moments = _moments(seed, realizations, vectors).reshape(len(pols), sub.k.size, 2)
    if np.all(weights == 0, axis=(2, 3, 4)).any():
        _warnings.warn("no noise couples to the output; estimate is identically zero", stacklevel=2)
    n = realizations
    mean = moments[..., 0] / n
    by_pol = (len(pols),) + ctx.k.shape   # views of w and stderr with the polarization axis
    w.reshape(by_pol)[:, live] = occ * mean
    if n > 1:
        var = np.maximum(moments[..., 1] / n - mean * mean, 0.0) * n / (n - 1)
        stderr.reshape(by_pol)[:, live] = occ * np.sqrt(var / n)
    else:
        stderr.reshape(by_pol)[:, live] = math.inf
    return w, stderr
