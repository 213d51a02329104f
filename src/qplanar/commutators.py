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
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, PassivityError, RegimeError
from .iorel import IOMatrix, io_matrix
from .modes import ModeContext
from .scatter import ScatterSet, scatter_set

# Below this fraction of the propagating scale, c_in is treated as zero for
# bosonization purposes ("effectively evanescent").
DEGENERATE_C_FRACTION = 1e-14


def _pqq(ctx: ModeContext, j: int, q: str) -> tuple[float, float, complex]:
    """(P, Q, Qb) polarization overlaps for region j."""
    if q == "s":
        return 1.0, 1.0, 1.0 + 0.0j
    b = ctx.beta[j]
    kj = ctx.kj[j]
    k2 = ctx.k * ctx.k
    ab2 = abs(b) ** 2
    akj2 = abs(kj) ** 2
    return (ab2 + k2) / akj2, (k2 - ab2) / akj2, (k2 - b * b) / (kj * kj)


def c_in_side(ctx: ModeContext, q: str, side: int) -> float:
    """Input commutator coefficient (N0-normalized) for side 0 or n."""
    ctx.side_row(side)  # rejects any side but 0 and n
    b = ctx.beta[side]
    p, _, _ = _pqq(ctx, side, q)
    return b.real / abs(b) ** 2 * p


def _c_out_closed(ctx: ModeContext, q: str, j: int, r: complex) -> float:
    """Closed-form output self-commutator of outer region j given the whole-stack r."""
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


def c_out_side(ctx: ModeContext, ss: ScatterSet, side: int) -> float:
    """Closed-form output self-commutator for side 0 or n."""
    r = ss.r_n0 if ctx.side_row(side) else ss.r_0n
    return _c_out_closed(ctx, ss.q, side, r)


def cross_closed(ctx: ModeContext, ss: ScatterSet) -> complex:
    """Closed-form commutator between the two output sides, [out(0), out(n)^+]."""
    b0, bn = ctx.beta[0], ctx.beta[ctx.n]
    ab0, abn = abs(b0) ** 2, abs(bn) ** 2
    t0n, tn0 = ss.t_0n, ss.t_n0
    if ss.q == "s":
        return 1j * b0.imag * t0n.conjugate() / ab0 - 1j * bn.imag * tn0 / abn
    k2 = ctx.k * ctx.k
    k0, kn = ctx.kj[0], ctx.kj[ctx.n]
    ak02, akn2 = abs(k0) ** 2, abs(kn) ** 2
    p0, _, qb0 = _pqq(ctx, 0, "p")
    pn, _, qbn = _pqq(ctx, ctx.n, "p")
    out = tn0 * (k2 * (kn * kn) / (kn * kn).conjugate() - abn) / (bn * akn2)
    out += t0n.conjugate() * (k2 * (k0 * k0).conjugate() / (k0 * k0) - ab0) / (b0.conjugate() * ak02)
    out -= bn.real / abn * tn0 * pn * qbn.conjugate()
    out -= b0.real / ab0 * t0n.conjugate() * p0 * qb0
    return out


def intraplate_c(ctx: ModeContext, q: str, j: int) -> np.ndarray:
    """2x2 Hermitian commutator matrix of the layer-j intraplate amplitudes.

    Rows/columns are ordered (+, -).  Lossless layers (beta'' = 0) and
    purely evanescent lossless layers give the zero matrix: every entry
    carries a factor beta'' or sin/sinh that vanishes there.
    """
    if not (1 <= j <= ctx.n - 1):
        raise ConfigError(f"intraplate layer index must be 1..{ctx.n - 1}, got {j}")
    b = ctx.beta[j]
    d = ctx.stack.thickness(j)
    ab2 = abs(b) ** 2
    p, qq, _ = _pqq(ctx, j, q)
    bp, bpp = b.real, b.imag
    cpp = bp / ab2 * math.expm1(2.0 * bpp * d) * p
    cmm = -bp / ab2 * math.expm1(-2.0 * bpp * d) * p
    cpm = 1j * bpp / ab2 * (cmath.exp(-2j * bp * d) - 1.0) * qq
    return np.array([[cpp, cpm], [cpm.conjugate(), cmm]], dtype=complex)


def intraplate_xi(ctx: ModeContext, q: str, j: int) -> tuple[float, float]:
    """Normalization pair (xi_+, xi_-) of the intraplate bosonic combinations.

    xi^2 must be >= 0 for a passive layer; a negative value signals a
    passivity violation and is raised as such.
    """
    b = ctx.beta[j]
    d = ctx.stack.thickness(j)
    p, qq, _ = _pqq(ctx, j, q)
    bp, bpp = b.real, b.imag
    core_sym = bp * math.sinh(bpp * d) * p
    core_asym = bpp * math.sin(bp * d) * qq
    out = []
    for sgn in (+1.0, -1.0):
        val = 4.0 / abs(b) ** 2 * math.exp(-bpp * d) * (core_sym + sgn * core_asym)
        if val < 0.0:
            if val > -1e-15 * max(abs(core_sym), 1e-300) / abs(b) ** 2:
                val = 0.0
            else:
                raise PassivityError(f"xi^2 = {val} < 0 in layer {j} (q={q})")
        out.append(math.sqrt(val))
    return out[0], out[1]


def intraplate_tau(ctx: ModeContext, j: int, xi: tuple[float, float]) -> np.ndarray:
    """2x2 transform from intraplate bosonic operators to amplitude operators.

    `xi` is the layer's :func:`intraplate_xi` pair.  Columns correspond to
    the bosonic (+, -) combinations; tau tau^+ reconstructs the intraplate
    commutator matrix.
    """
    xi_p, xi_m = xi
    ph = cmath.exp(-1j * ctx.beta[j] * ctx.stack.thickness(j))
    return 0.5 * np.array([[xi_p * ph, xi_m * ph], [xi_p, -xi_m]], dtype=complex)


@dataclass(frozen=True)
class CommutatorSet:
    """All commutator data of one (omega, k, q) mode, N0-normalized."""

    q: str
    omega: float
    k: float
    c_in0: float
    c_inN: float
    c_out0: float
    c_outN: float
    cross: complex
    cmat: tuple[np.ndarray, ...]      # per layer, 2x2 Hermitian
    xi: tuple[tuple[float, float], ...]
    tau: tuple[np.ndarray, ...]
    scatter: ScatterSet
    io: IOMatrix


def commutator_set(ctx: ModeContext, q: str = "s") -> CommutatorSet:
    """Evaluate every commutator coefficient of one mode from the closed forms."""
    for j in range(ctx.n + 1):
        if ctx.beta[j] == 0.0:
            raise RegimeError(
                f"beta = 0 in region {j} (grazing mode, k exactly at a branch point); "
                "commutator coefficients are singular there"
            )
    ss = scatter_set(ctx, q)
    layers = range(1, ctx.n)
    xi = tuple(intraplate_xi(ctx, q, j) for j in layers)
    return CommutatorSet(
        q=q,
        omega=ctx.omega,
        k=ctx.k,
        c_in0=c_in_side(ctx, q, 0),
        c_inN=c_in_side(ctx, q, ctx.n),
        c_out0=c_out_side(ctx, ss, 0),
        c_outN=c_out_side(ctx, ss, ctx.n),
        cross=cross_closed(ctx, ss),
        cmat=tuple(intraplate_c(ctx, q, j) for j in layers),
        xi=xi,
        tau=tuple(intraplate_tau(ctx, j, x) for j, x in zip(layers, xi)),
        scatter=ss,
        io=io_matrix(ss),
    )


def assembled_out(cs: CommutatorSet) -> np.ndarray:
    """Brute-force output commutator matrix S diag(c_in) S^+ + sum_j Phi^(j) C^(j) Phi^(j)+.

    Rows and columns are (out0, outN): the diagonal holds the output
    self-commutators of sides 0 and n, entry [0, 1] the cross-side
    commutator [out(0), out(n)^+].  This convention-independent assembly
    from input and intraplate pieces is what the closed forms must match.
    """
    s = cs.io.s_matrix
    total = (s * (cs.c_in0, cs.c_inN)) @ s.conjugate().T
    for phi, cmat in zip(cs.io.phi, cs.cmat):
        total += phi @ cmat @ phi.conjugate().T
    return total


@dataclass(frozen=True)
class BosonizedIO:
    """Input-output relation rewritten for canonical bosonic operators."""

    s_matrix: np.ndarray                 # 2x2, rows (out0, outN), cols (in0, inN)
    phi: tuple[np.ndarray, ...]          # per layer, 2x2: rows (out0, outN), cols (a+, a-)

    @property
    def r_0n(self) -> complex:
        return self.s_matrix[0, 0]

    @property
    def t_0n(self) -> complex:
        return self.s_matrix[1, 0]

    @property
    def t_n0(self) -> complex:
        return self.s_matrix[0, 1]

    @property
    def r_n0(self) -> complex:
        return self.s_matrix[1, 1]


def bosonize(cs: CommutatorSet) -> BosonizedIO:
    """Rescale the IO relation so all operators are canonical bosons.

    Requires positive input and output commutator coefficients on both
    sides, i.e. propagating or lossy outer media.  In the evanescent-vacuum
    regime c_in vanishes identically and no bosonic input operators exist;
    that is reported as a RegimeError rather than a numerical blowup.
    """
    floors = (DEGENERATE_C_FRACTION / abs(b) for b in (cs.scatter.beta[0], cs.scatter.beta[-1]))
    f0, fn = floors
    if cs.c_in0 <= f0 or cs.c_inN <= fn:
        raise RegimeError(
            "no bosonic input operators exist for evanescent input components "
            f"(c_in0 = {cs.c_in0:.3e}, c_inN = {cs.c_inN:.3e})"
        )
    if cs.c_out0 <= 0.0 or cs.c_outN <= 0.0:
        raise RegimeError(
            f"output commutator not positive (c_out0 = {cs.c_out0:.3e}, c_outN = {cs.c_outN:.3e})"
        )
    out_scale = np.array([1.0 / math.sqrt(cs.c_out0), 1.0 / math.sqrt(cs.c_outN)])[:, None]
    in_scale = np.array([math.sqrt(cs.c_in0), math.sqrt(cs.c_inN)])
    phi_tilde = tuple(out_scale * (phi @ tau) for phi, tau in zip(cs.io.phi, cs.tau))
    return BosonizedIO(out_scale * cs.io.s_matrix * in_scale, phi_tilde)


def unitarity_residual(cs: CommutatorSet, bos: BosonizedIO | None = None) -> float:
    """max |S~ S~^+ + sum_j Phi~ Phi~^+ - I| for the bosonized relation."""
    if bos is None:
        bos = bosonize(cs)
    gram = bos.s_matrix @ bos.s_matrix.conjugate().T
    for ph in bos.phi:
        gram = gram + ph @ ph.conjugate().T
    return float(np.max(np.abs(gram - np.eye(2))))
