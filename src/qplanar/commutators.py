"""Commutator coefficients of the boundary amplitude operators, and bosonization.

Every coefficient below is stored divided by the normalization
N0 = (pi hbar / eps0) (omega/c)^2, so it carries units of length and the
operator identities become dimensionless-tame.  SI values are recovered by
multiplying with :func:`qplanar.constants.n0_scale`.

Scalar shorthands per region (q = p; all equal 1 for q = s):

    P   = e_p . e_p*          = (|beta|^2 + k^2) / |kj|^2      (real)
    Q   = e_p+ . e_p-*        = (k^2 - |beta|^2) / |kj|^2      (real)
    Qb  = e_p+ . e_p-         = (k^2 - beta^2) / kj^2          (bilinear)

The closed forms for the output self-commutators and the cross-side
commutator are obtained from the Green-identity route with the symmetric
Theta(0) = 1/2 convention at coincident coordinates; they reduce to the
textbook vacuum limits (c_out = c_in when propagating, 2 Im r / |beta| when
evanescent) and are validated against the brute-force assembly from input
and intraplate pieces, which is the convention-independent oracle.
Everything is elementwise over the k array of the context (k axes first).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, PassivityError, RegimeError
from .iorel import IOMatrix, _block2, _matmul2, io_matrix
from .modes import ModeContext
from .scatter import ScatterSet, scatter_set

# Below this fraction of the propagating scale, c_in is treated as zero for
# bosonization purposes ("effectively evanescent").
DEGENERATE_C_FRACTION = 1e-14


def _dagger(m: np.ndarray) -> np.ndarray:   # conjugate transpose of 2x2 blocks
    return np.conj(m).swapaxes(-1, -2)


def _pqq(ctx: ModeContext, j, q: str):
    """(P, Q, Qb) polarization overlaps for region j (or an array of regions)."""
    if q == "s":
        return 1.0, 1.0, 1.0 + 0.0j
    b = ctx.beta[j]
    kj = ctx.kj[j]
    k2 = ctx.k * ctx.k
    ab2 = abs(b) ** 2
    akj2 = abs(kj) ** 2
    return (ab2 + k2) / akj2, (k2 - ab2) / akj2, (k2 - b * b) / (kj * kj)


def c_in_side(ctx: ModeContext, q: str, side):
    """Input commutator coefficient (N0-normalized) for side 0 or n (or an array of them)."""
    ctx.side_row(side)  # rejects any side but 0 and n
    _require_off_grazing(ctx)
    b = ctx.beta[side]
    return b.real / abs(b) ** 2 * _pqq(ctx, side, q)[0]


def _c_out_closed(ctx: ModeContext, q: str, j, r):
    """Closed-form output self-commutator of outer region(s) j given the whole-stack r."""
    b = ctx.beta[j]
    ab2 = abs(b) ** 2
    if q == "s":
        return (b.real + 2.0 * b.imag * r.imag) / ab2
    kj = ctx.kj[j]
    k2 = ctx.k * ctx.k
    akj2 = abs(kj) ** 2
    p, qq, qb = _pqq(ctx, j, q)
    kk = kj * kj
    ratio = kk / kk.conjugate()
    term_r = 2.0 * (r * (k2 * ratio - ab2) / (b * akj2)).real
    term_0 = ((p + qq * qb) / b).real + k2 / akj2 * ((ratio - 1.0) * (1.0 + qb) / b).real
    term_sq = b.real * p / ab2 * (abs(r) ** 2 - abs(qb + r) ** 2)
    return term_r + term_0 + term_sq


def c_out_side(ctx: ModeContext, ss: ScatterSet, side):
    """Closed-form output self-commutator for side 0 or n (or an array of them)."""
    rows = ctx.side_row(side)
    _require_off_grazing(ctx)
    return _c_out_closed(ctx, ss.q, side, np.stack([ss.r_0n, ss.r_n0])[rows])


def cross_closed(ctx: ModeContext, ss: ScatterSet):
    """Closed-form commutator between the two output sides, [out(0), out(n)^+]."""
    _require_off_grazing(ctx)
    b0, bn = ctx.beta[0], ctx.beta[ctx.n]
    ab0, abn = abs(b0) ** 2, abs(bn) ** 2
    t0n, tn0 = ss.t_0n, ss.t_n0
    if ss.q == "s":
        return 1j * b0.imag * t0n.conjugate() / ab0 - 1j * bn.imag * tn0 / abn
    k2 = ctx.k * ctx.k
    k0, kn = ctx.kj[0], ctx.kj[ctx.n]
    ak02, akn2 = abs(k0) ** 2, abs(kn) ** 2
    (p0, pn), _, (qb0, qbn) = _pqq(ctx, np.array([0, ctx.n]), "p")
    out = tn0 * (k2 * (kn * kn) / (kn * kn).conjugate() - abn) / (bn * akn2)
    out += t0n.conjugate() * (k2 * (k0 * k0).conjugate() / (k0 * k0) - ab0) / (b0.conjugate() * ak02)
    out -= bn.real / abn * tn0 * pn * qbn.conjugate()
    out -= b0.real / ab0 * t0n.conjugate() * p0 * qb0
    return out


def _intraplate_ab(ctx: ModeContext, q: str, j):
    """(a, b) of the commutator matrix [[a, b], [b, a]] of layer(s) j, E+ at z = d_j and E- at
    z = 0: a = [E+, E+^+] = [E-, E-^+], b = [E+, E-^+], bounded since every exponential decays."""
    if not np.all((1 <= np.asarray(j)) & (np.asarray(j) <= ctx.n - 1)):
        raise ConfigError(f"intraplate layer index must be 1..{ctx.n - 1}, got {j}")
    b = ctx.beta[j]
    d = ctx.per_region(ctx.d, j)
    ab2 = abs(b) ** 2
    p, qq, _ = _pqq(ctx, j, q)
    bp, bpp = b.real, b.imag
    a = -bp / ab2 * np.expm1(-2.0 * bpp * d) * p
    return a, 2.0 * bpp * np.sin(bp * d) * np.exp(-bpp * d) * qq / ab2


def intraplate_c(ctx: ModeContext, q: str, j) -> np.ndarray:
    """2x2 commutator matrices [[a, b], [b, a]] of the intraplate amplitudes (+, -) of layer(s) j,
    shape j.shape + k.shape + (2, 2); zero for lossless layers, where beta' or beta'' is 0."""
    a, b = _intraplate_ab(ctx, q, j)
    return _block2(a, b, b, a)


def intraplate_xi(ctx: ModeContext, q: str, j):
    """Normalization pair (xi_+, xi_-) = sqrt(2 (a +/- b)) of the intraplate bosonic
    combinations of layer(s) j; a negative a +/- b beyond rounding is not passive and raises."""
    a, b = _intraplate_ab(ctx, q, j)
    half = np.stack([a + b, a - b])   # the eigenvalues of [[a, b], [b, a]]
    bad = half < -1e-15 * abs(a)
    if np.any(bad):
        at = np.unravel_index(np.argmax(bad), bad.shape)
        nj = 1 + np.ndim(j)
        raise PassivityError(f"xi^2 = {2.0 * half[at]} < 0 in layer {np.asarray(j)[at[1:nj]]} "
                             f"(q={q}) at {ctx.mode(at[nj:])}")
    return tuple(np.sqrt(2.0 * np.maximum(half, 0.0)))


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
    """Commutator data of one polarization for every k, N0-normalized."""

    c_in0: np.ndarray    # k.shape
    c_inN: np.ndarray
    c_out0: np.ndarray
    c_outN: np.ndarray
    cross: np.ndarray    # k.shape, complex
    cmat: np.ndarray     # (n-1, *k.shape, 2, 2), layer j at [j-1], Hermitian
    io: IOMatrix


def commutator_set(ctx: ModeContext, q: str = "s") -> CommutatorSet:
    """Evaluate every commutator coefficient of every mode from the closed forms."""
    _require_off_grazing(ctx)
    ss = scatter_set(ctx, q)
    outer = np.array([0, ctx.n])
    (c_in0, c_inN), (c_out0, c_outN) = c_in_side(ctx, q, outer), c_out_side(ctx, ss, outer)
    return CommutatorSet(c_in0, c_inN, c_out0, c_outN, cross_closed(ctx, ss),
                         intraplate_c(ctx, q, np.arange(1, ctx.n)), io_matrix(ss))


def assembled_out(cs: CommutatorSet) -> np.ndarray:
    """Brute-force output commutator matrices S diag(c_in) S^+ + sum_j Phi^(j) C^(j) Phi^(j)+.

    Rows and columns are (out0, outN): the diagonal holds the output
    self-commutators of sides 0 and n, entry [0, 1] the cross-side
    commutator [out(0), out(n)^+].  This convention-independent assembly
    from input and intraplate pieces is what the closed forms must match.
    """
    s, phi = cs.io.s_matrix, cs.io.phi
    inputs = _matmul2(s * np.stack([cs.c_in0, cs.c_inN], -1)[..., None, :], _dagger(s))
    return sum(_matmul2(_matmul2(phi, cs.cmat), _dagger(phi)), inputs)


@dataclass(frozen=True)
class BosonizedIO:
    """Input-output relation rewritten for canonical bosonic operators."""

    s_matrix: np.ndarray   # k.shape + (2, 2), rows (out0, outN), cols (in0, inN)
    phi: np.ndarray        # (n-1, *k.shape, 2, 2): rows (out0, outN), cols (a+, a-)


def bosonic(ctx: ModeContext, cs: CommutatorSet) -> np.ndarray:
    """Modes where :func:`bosonize` is defined: c_in above its floor and c_out > 0 on both sides."""
    floor0, floorN = (DEGENERATE_C_FRACTION / abs(ctx.beta[j]) for j in (0, ctx.n))
    return (cs.c_in0 > floor0) & (cs.c_inN > floorN) & (cs.c_out0 > 0.0) & (cs.c_outN > 0.0)


def bosonize(ctx: ModeContext, cs: CommutatorSet) -> BosonizedIO:
    """Rescale the IO relation so all operators are canonical bosons.

    Requires positive input and output commutator coefficients on both
    sides, i.e. propagating or lossy outer media.  In the evanescent-vacuum
    regime c_in vanishes identically and no bosonic input operators exist;
    that is reported as a RegimeError rather than a numerical blowup.  The
    intraplate transforms tau come from the layers' xi pairs, computed here.
    """
    bad = ~bosonic(ctx, cs)
    if bad.any():
        at = np.unravel_index(np.argmax(bad), bad.shape)
        c = (cs.c_in0[at], cs.c_inN[at], cs.c_out0[at], cs.c_outN[at])
        raise RegimeError(
            "no bosonic input operators exist for evanescent input components, or an output "
            "commutator is not positive (c_in0, c_inN, c_out0, c_outN = {:.3e}, {:.3e}, {:.3e}, "
            "{:.3e}) at {}".format(*c, ctx.mode(at))
        )
    out_scale = (1.0 / np.sqrt(np.stack([cs.c_out0, cs.c_outN], -1)))[..., :, None]
    in_scale = np.sqrt(np.stack([cs.c_in0, cs.c_inN], -1))[..., None, :]
    layers = np.arange(1, ctx.n)
    tau = intraplate_tau(intraplate_xi(ctx, cs.io.q, layers))
    return BosonizedIO(out_scale * cs.io.s_matrix * in_scale, out_scale * _matmul2(cs.io.phi, tau))


def unitarity_residual(bos: BosonizedIO):
    """max |S~ S~^+ + sum_j Phi~ Phi~^+ - I| per mode for the bosonized relation."""
    gram = sum(_matmul2(bos.phi, _dagger(bos.phi)), _matmul2(bos.s_matrix, _dagger(bos.s_matrix)))
    return np.max(np.abs(gram - np.eye(2)), axis=(-2, -1))
