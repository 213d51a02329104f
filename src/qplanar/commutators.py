"""Commutator coefficients of the boundary amplitude operators, and bosonization.

Every coefficient below is stored divided by the normalization
N0 = (pi hbar / eps0) (omega/c)^2, so it carries units of length and the
operator identities become dimensionless-tame.  SI values are recovered by
multiplying with :func:`qplanar.constants.n0_scale`.

Scalar shorthands per region (q = p; both equal 1 for q = s):

    P   = e_p . e_p*          = (|beta|^2 + k^2) / |kj|^2      (real)
    Q   = e_p+ . e_p-*        = (k^2 - |beta|^2) / |kj|^2      (real)

The output commutators of both outer sides are one Hermitian 2x2 matrix per
mode, rows and columns (side 0, side n) as in the IO relation:

    C_out = diag(c_in) + S U + (S U)^+,   U = diag(u_0, u_n),
    c_in_j = P_j beta'_j / |beta_j|^2,    u_j = -i Q_j beta''_j / |beta_j|^2,

with the output self-commutators on the diagonal and [out(0), out(n)^+] at
[0, 1].  It follows from the Green-identity route with the symmetric
Theta(0) = 1/2 convention at coincident coordinates, reduces to the textbook
vacuum limits (c_out = c_in when propagating, 2 Im r / |beta| when
evanescent) and is validated against the brute-force assembly from input
and intraplate pieces, the convention-independent oracle.
Everything is elementwise over the k array of the context (k axes first).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, PassivityError, RegimeError
from .iorel import IOMatrix, _block2, _matmul2, io_matrix
from .modes import ModeContext
from .scatter import scatter_set

# Below this fraction of the propagating scale, c_in is treated as zero for
# bosonization purposes ("effectively evanescent").
DEGENERATE_C_FRACTION = 1e-14


def _dagger(m: np.ndarray) -> np.ndarray:   # conjugate transpose of 2x2 blocks
    return np.conj(m).swapaxes(-1, -2)


def _pq(ctx: ModeContext, j, q: str):
    """(P, Q) polarization overlaps for region j (or an array of regions)."""
    if q == "s":
        return 1.0, 1.0
    k2, ab2, akj2 = ctx.k * ctx.k, abs(ctx.beta[j]) ** 2, abs(ctx.kj[j]) ** 2
    return (ab2 + k2) / akj2, (k2 - ab2) / akj2


def _outer(ctx: ModeContext, q: str):
    """(c_in, u) of the outer regions, each of shape k.shape + (2,) with side 0, then side n,
    on the last axis; a grazing mode raises RegimeError."""
    _require_off_grazing(ctx)
    outer = np.array([0, ctx.n])
    b = ctx.beta[outer]
    ab2 = abs(b) ** 2
    p, qq = _pq(ctx, outer, q)
    return np.moveaxis(b.real / ab2 * p, 0, -1), np.moveaxis(-1j * (qq * b.imag / ab2), 0, -1)


def _c_out(c_in, u, s) -> np.ndarray:
    """diag(c_in) + S U + (S U)^+ per mode, exactly Hermitian."""
    su = s * u[..., None, :]
    return su + _dagger(su) + c_in[..., None] * np.eye(2)


def c_in(ctx: ModeContext, q: str) -> np.ndarray:
    """Input commutator coefficients (N0-normalized), shape k.shape + (2,): side 0, then side n."""
    return _outer(ctx, q)[0]


def c_out(ctx: ModeContext, io: IOMatrix) -> np.ndarray:
    """Output commutator matrices (N0-normalized) of the IO relation `io` of `ctx`, shape
    k.shape + (2, 2): self-commutators on the diagonal, [out(0), out(n)^+] at [0, 1]."""
    return _c_out(*_outer(ctx, io.q), io.s_matrix)


def gram_eigenvalues(ctx: ModeContext, j):
    """Eigenvalues (g + h, g - h) of [[g, h], [h, g]], the Gram matrix of the mode functions
    e^{i beta (d - z)} and e^{i beta z} of layer(s) j on 0 <= z <= d, shape j.shape + k.shape:
    g = d e^{-x} sinh(x)/x and h = d e^{-x} sin(y)/y with x = beta'' d, y = beta' d.  Both are
    sums of nonnegative terms, g - h = d e^{-x} ((sinh(x)/x - 1) + (1 - sin(y)/y)) among them,
    and finite at x = 0 or y = 0: the closed forms are evaluated at max(x, 1) and max(y, 1)."""
    d = ctx.per_region(ctx.d, j)
    x, y = ctx.beta[j].imag * d, ctx.beta[j].real * d
    xc, yc, decay = np.maximum(x, 1.0), np.maximum(y, 1.0), np.exp(-x)
    u = np.stack([np.minimum(x, 1.0) ** 2, -np.minimum(y, 1.0) ** 2])
    tail = np.zeros_like(u)   # sum_{n >= 1} u^n / (2n + 1)!: sinh(x)/x - 1, then sin(y)/y - 1
    for n in range(9, 0, -1):   # one Horner pass, to the last bit for |u| <= 1
        tail += 1.0 / math.factorial(2 * n + 1)
        tail *= u
    sinh_excess = np.where(x < 1.0, decay * tail[0], -np.expm1(-2.0 * xc) / (2.0 * xc) - decay)
    sin_deficit = np.where(y < 1.0, -tail[1], 1.0 - np.sin(yc) / yc)
    return d * (decay * (2.0 - sin_deficit) + sinh_excess), d * (sinh_excess + decay * sin_deficit)


def intraplate_eig(ctx: ModeContext, q: str, j) -> np.ndarray:
    """Eigenvalues (a + b, a - b) of the commutator matrix [[a, b], [b, a]] of the intraplate
    amplitudes of layer(s) j, E+ at z = d_j and E- at z = 0, shape (2, *j.shape, *k.shape):
    kappa (s (g +/- h) + t (g -/+ h)) with kappa = 2 beta' beta'' / |beta|^2, the
    :func:`gram_eigenvalues` g +/- h and (s, t) = (1, 0) for s, (k^2, |beta|^2) / |kj|^2 for p.
    Every term is nonnegative and kappa is exactly 0 on a lossless layer; a negative eigenvalue
    (a layer that is not passive) raises PassivityError."""
    if not np.all((1 <= np.asarray(j)) & (np.asarray(j) <= ctx.n - 1)):
        raise ConfigError(f"intraplate layer index must be 1..{ctx.n - 1}, got {j}")
    b = ctx.beta[j]
    plus, minus = gram_eigenvalues(ctx, j)
    if q == "p":   # t formed directly: (P - Q) / 2 cancels
        akj2 = abs(ctx.kj[j]) ** 2
        s, t = ctx.k * ctx.k / akj2, abs(b) ** 2 / akj2
        plus, minus = s * plus + t * minus, s * minus + t * plus
    eig = np.stack([plus, minus])
    eig *= 2.0 * b.real * b.imag / abs(b) ** 2
    bad = eig < 0.0
    if np.any(bad):
        at = np.unravel_index(np.argmax(bad), bad.shape)
        nj = 1 + np.ndim(j)
        raise PassivityError(f"layer {np.asarray(j)[at[1:nj]]} is not passive (q={q}): "
                             f"a {'+-'[at[0]]} b = {eig[at]} < 0 at {ctx.mode(at[nj:])}")
    return eig


def intraplate_c(ctx: ModeContext, q: str, j) -> np.ndarray:
    """2x2 commutator matrices [[a, b], [b, a]] of the intraplate amplitudes (+, -) of layer(s) j,
    shape j.shape + k.shape + (2, 2), rebuilt from the :func:`intraplate_eig` pair; exactly zero
    for lossless layers, where beta' or beta'' is 0."""
    return _cmat(*intraplate_eig(ctx, q, j))


def _cmat(plus, minus) -> np.ndarray:   # [[a, b], [b, a]] from the pair (a + b, a - b)
    a, b = 0.5 * (plus + minus), 0.5 * (plus - minus)
    return _block2(a, b, b, a)


def intraplate_xi(ctx: ModeContext, q: str, j):
    """Normalization pair (xi_+, xi_-) = sqrt(2 (a +/- b)) of the intraplate bosonic
    combinations of layer(s) j, from :func:`intraplate_eig` (a layer that is not passive raises)."""
    return tuple(np.sqrt(2.0 * intraplate_eig(ctx, q, j)))


def intraplate_tau(xi) -> np.ndarray:
    """2x2 transforms from the intraplate bosonic operators, given their :func:`intraplate_xi`
    pair, to the amplitude operators (E+, E-): tau tau^+ is the commutator matrix."""
    xi_p, xi_m = xi
    return 0.5 * _block2(xi_p, xi_m, xi_p, -xi_m)


def grazing(ctx: ModeContext) -> np.ndarray:
    """Modes with beta = 0 in some region (k exactly on a branch point), per k."""
    return np.any(ctx.beta == 0.0, axis=0)


def _require_off_grazing(ctx: ModeContext) -> None:
    """Raise RegimeError at the first grazing mode: the noise couplings divide 0/0 there."""
    at_branch = grazing(ctx)
    if at_branch.any():
        at = np.unravel_index(np.argmax(at_branch), at_branch.shape)
        raise RegimeError(f"beta = 0 in some region at {ctx.mode(at)} (grazing mode, k exactly "
                          "at a branch point); the commutator coefficients are singular there")


@dataclass(frozen=True)
class CommutatorSet:
    """Commutator data of one polarization for every k, N0-normalized; sides 0, n as in iorel."""

    c_in: np.ndarray     # k.shape + (2,)
    c_out: np.ndarray    # k.shape + (2, 2), Hermitian: diag(c_out0, c_outN), cross at [0, 1]
    cmat: np.ndarray     # (n-1, *k.shape, 2, 2), layer j at [j-1], Hermitian
    eig: np.ndarray      # (2, n-1, *k.shape): the intraplate_eig pair cmat is built from
    io: IOMatrix


def commutator_set(ctx: ModeContext, q: str = "s") -> CommutatorSet:
    """Evaluate every commutator coefficient of every mode from the closed forms."""
    cin, u = _outer(ctx, q)
    io = io_matrix(scatter_set(ctx, q))
    eig = intraplate_eig(ctx, q, np.arange(1, ctx.n))
    return CommutatorSet(cin, _c_out(cin, u, io.s_matrix), _cmat(*eig), eig, io)


def assembled_out(cs: CommutatorSet) -> np.ndarray:
    """Brute-force output commutator matrices S diag(c_in) S^+ + sum_j Phi^(j) C^(j) Phi^(j)+.

    Rows and columns are (out0, outN): the diagonal holds the output
    self-commutators of sides 0 and n, entry [0, 1] the cross-side
    commutator [out(0), out(n)^+].  This convention-independent assembly
    from input and intraplate pieces is what the closed forms must match.
    """
    s, phi = cs.io.s_matrix, cs.io.phi
    inputs = _matmul2(s * cs.c_in[..., None, :], _dagger(s))
    return sum(_matmul2(_matmul2(phi, cs.cmat), _dagger(phi)), inputs)


@dataclass(frozen=True)
class BosonizedIO:
    """Input-output relation rewritten for canonical bosonic operators."""

    s_matrix: np.ndarray   # k.shape + (2, 2), rows (out0, outN), cols (in0, inN)
    phi: np.ndarray        # (n-1, *k.shape, 2, 2): rows (out0, outN), cols (a+, a-)


def bosonic(ctx: ModeContext, cs: CommutatorSet) -> np.ndarray:
    """Modes where :func:`bosonize` is defined: c_in above its floor and c_out > 0 on both sides."""
    floor = DEGENERATE_C_FRACTION / abs(np.moveaxis(ctx.beta[[0, ctx.n]], 0, -1))
    return np.all((cs.c_in > floor) & (np.diagonal(cs.c_out, 0, -2, -1).real > 0.0), axis=-1)


def bosonize(ctx: ModeContext, cs: CommutatorSet) -> BosonizedIO:
    """Rescale the IO relation so all operators are canonical bosons.

    Requires positive input and output commutator coefficients on both
    sides, i.e. propagating or lossy outer media.  In the evanescent-vacuum
    regime c_in vanishes identically and no bosonic input operators exist;
    that is reported as a RegimeError rather than a numerical blowup.  The
    intraplate transforms tau come from the layers' xi pairs sqrt(2 cs.eig).
    """
    c_self = np.diagonal(cs.c_out, 0, -2, -1).real
    bad = ~bosonic(ctx, cs)
    if bad.any():
        at = np.unravel_index(np.argmax(bad), bad.shape)
        c = (*cs.c_in[at], *c_self[at])
        raise RegimeError(
            "no bosonic input operators exist for evanescent input components, or an output "
            "commutator is not positive (c_in0, c_inN, c_out0, c_outN = {:.3e}, {:.3e}, {:.3e}, "
            "{:.3e}) at {}".format(*c, ctx.mode(at))
        )
    out_scale = (1.0 / np.sqrt(c_self))[..., :, None]
    in_scale = np.sqrt(cs.c_in)[..., None, :]
    tau = intraplate_tau(np.sqrt(2.0 * cs.eig))
    return BosonizedIO(out_scale * cs.io.s_matrix * in_scale, out_scale * _matmul2(cs.io.phi, tau))


def unitarity_residual(bos: BosonizedIO):
    """max |S~ S~^+ + sum_j Phi~ Phi~^+ - I| per mode for the bosonized relation."""
    gram = sum(_matmul2(bos.phi, _dagger(bos.phi)), _matmul2(bos.s_matrix, _dagger(bos.s_matrix)))
    return np.max(np.abs(gram - np.eye(2)), axis=(-2, -1))
