"""Single-interface Fresnel coefficients and generalized multilayer scattering.

All multilayer coefficients are assembled by Redheffer star-product
composition of interface scattering matrices and layer phase factors
e^{i beta d}.  Only bounded factors enter (|e^{i beta d}| <= 1 for passive
media), so thick lossy or evanescent layers attenuate gracefully instead of
overflowing the way transfer matrices do.

Conventions (reference planes):
  * r[j->0], t[j->0] are referenced at the left interface of region j
    (local z = 0) and at the 0|1 interface for the region-0 side.
  * r[j->n], t[j->n] are referenced at the right interface of region j
    (local z = d_j) and at the (n-1)|n interface.
  * Fabry-Perot denominator D_j = 1 - r[j->0] r[j->n] e^{2 i beta_j d_j}.
  * TM sign convention: fixed by the polarization basis (z-component of
    e_p positive); tables built on the opposite e_p orientation differ by
    an overall sign of r_p, e.g. r_p(k=0) = -r_s(k=0) here.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import NamedTuple

from .constants import C_LIGHT
from .errors import ConfigError, SingularInterfaceError
from .modes import ModeContext, POLS

D_CONDITION_FLOOR = 1e-14


class SMatrix(NamedTuple):
    """2x2 scattering block mapping (in_left, in_right) -> (out_left, out_right)."""

    r_l: complex   # reflection for left-side incidence
    t_rl: complex  # transmission right -> left
    t_lr: complex  # transmission left -> right
    r_r: complex   # reflection for right-side incidence


S_IDENTITY = SMatrix(0.0 + 0.0j, 1.0 + 0.0j, 1.0 + 0.0j, 0.0 + 0.0j)


def star(a: SMatrix, b: SMatrix) -> SMatrix:
    """Redheffer star product: composite of sub-stack `a` followed by `b`."""
    denom = 1.0 - a.r_r * b.r_l
    if denom == 0.0:
        raise SingularInterfaceError("star product hit an exact multiple-reflection pole")
    inv = 1.0 / denom
    return SMatrix(
        a.r_l + a.t_rl * b.r_l * a.t_lr * inv,
        a.t_rl * b.t_rl * inv,
        b.t_lr * a.t_lr * inv,
        b.r_r + b.t_lr * a.r_r * b.t_rl * inv,
    )


def propagation(phase: complex) -> SMatrix:
    """Free flight across a layer; `phase` = e^{i beta d}."""
    return SMatrix(0.0 + 0.0j, phase, phase, 0.0 + 0.0j)


class InterfaceCoeffs(NamedTuple):
    r: complex
    t: complex


def interface_rt(ctx: ModeContext, i: int, j: int, q: str) -> InterfaceCoeffs:
    """Fresnel coefficients for a wave in region i crossing into adjacent region j.

    s:  r = (beta_i - beta_j) / (beta_i + beta_j),     t = 2 beta_i / (beta_i + beta_j)
    p:  r = (eps_j beta_i - eps_i beta_j) / (eps_j beta_i + eps_i beta_j),
        t = 2 beta_i sqrt(eps_i eps_j) / (eps_j beta_i + eps_i beta_j)

    sqrt(eps_i eps_j) is the product of the individual principal roots
    (k_i k_j c^2 / omega^2), never the root of the product, to stay
    continuous in each eps separately.
    """
    if abs(i - j) != 1:
        raise ConfigError(f"interface_rt needs adjacent regions, got {i}, {j}")
    bi, bj = ctx.beta[i], ctx.beta[j]
    if q == "s":
        den = bi + bj
        if den == 0.0:
            raise SingularInterfaceError(f"beta_{i} + beta_{j} = 0")
        return InterfaceCoeffs((bi - bj) / den, 2.0 * bi / den)
    if q == "p":
        ei, ej = ctx.eps[i], ctx.eps[j]
        den = ej * bi + ei * bj
        if den == 0.0:
            raise SingularInterfaceError(f"eps-weighted denominator vanishes at interface {i}|{j}")
        w_c2 = (ctx.omega / C_LIGHT) ** 2
        root = ctx.kj[i] * ctx.kj[j] / w_c2
        return InterfaceCoeffs((ej * bi - ei * bj) / den, 2.0 * bi * root / den)
    raise ConfigError(f"polarization must be 's' or 'p', got {q!r}")


@dataclass(frozen=True)
class ScatterSet:
    """Generalized coefficients of one (omega, k, q) mode for every region.

    Arrays are indexed by region j = 0..n, with the half-space entries
    degenerating to r_left[0] = r_right[n] = 0, t identities, D = 1.
    """

    q: str
    r_left: tuple[complex, ...]    # r[j -> 0 side]
    r_right: tuple[complex, ...]   # r[j -> n side]
    t_to0: tuple[complex, ...]     # t[j -> region 0]
    t_toN: tuple[complex, ...]     # t[j -> region n]
    t_from0: tuple[complex, ...]   # t[region 0 -> j]
    t_fromN: tuple[complex, ...]   # t[region n -> j]
    phase: tuple[complex, ...]     # e^{i beta_j d_j}
    d_fp: tuple[complex, ...]      # Fabry-Perot denominator D_j
    beta: tuple[complex, ...]
    warnings: tuple[str, ...] = ()

    @property
    def n(self) -> int:
        return len(self.beta) - 1

    # Whole-stack coefficients (region-0 / region-n view).
    @property
    def r_0n(self) -> complex:
        return self.r_right[0]

    @property
    def r_n0(self) -> complex:
        return self.r_left[self.n]

    @property
    def t_0n(self) -> complex:
        return self.t_toN[0]

    @property
    def t_n0(self) -> complex:
        return self.t_to0[self.n]

    def xi(self, j: int, jp: int) -> complex:
        """Green-kernel weight pairing field region j with source region jp."""
        n = self.n
        return (
            (self.t_from0[j] * self.phase[j] / self.d_fp[j])
            * (self.t_fromN[jp] * self.phase[jp] / self.d_fp[jp])
            / (self.beta[n] * self.t_0n)
        )


def scatter_set(ctx: ModeContext, q: str = "s") -> ScatterSet:
    """Compose all generalized r/t coefficients for one mode and polarization."""
    stack = ctx.stack
    if q not in POLS:
        raise ConfigError(f"polarization must be one of {POLS}, got {q!r}")
    n = stack.n
    warns: list[str] = []

    # Interface S-matrices between consecutive regions and layer phases.
    interfaces = []
    for i in range(n):
        rc = interface_rt(ctx, i, i + 1, q)
        rc_back = interface_rt(ctx, i + 1, i, q)
        interfaces.append(SMatrix(rc.r, rc_back.t, rc.t, rc_back.r))

    phase = [1.0 + 0.0j]
    for j in range(1, n):
        phase.append(cmath.exp(1j * ctx.beta[j] * stack.thickness(j)))
    phase.append(1.0 + 0.0j)

    # Left partials L[j] = S(0..j); right partials R[j] = S(j..n).
    left = [S_IDENTITY] * (n + 1)
    for j in range(1, n + 1):
        block = interfaces[j - 1] if j == 1 else star(propagation(phase[j - 1]), interfaces[j - 1])
        left[j] = star(left[j - 1], block)
    right = [S_IDENTITY] * (n + 1)
    for j in range(n - 1, -1, -1):
        block = interfaces[j] if j == n - 1 else star(interfaces[j], propagation(phase[j + 1]))
        right[j] = star(block, right[j + 1])

    r_left = tuple(left[j].r_r for j in range(n + 1))
    r_right = tuple(right[j].r_l for j in range(n + 1))
    t_to0 = tuple(left[j].t_rl for j in range(n + 1))
    t_from0 = tuple(left[j].t_lr for j in range(n + 1))
    t_toN = tuple(right[j].t_lr for j in range(n + 1))
    t_fromN = tuple(right[j].t_rl for j in range(n + 1))

    d_fp = []
    for j in range(n + 1):
        d = 1.0 - r_left[j] * r_right[j] * phase[j] * phase[j]
        if abs(d) < D_CONDITION_FLOOR:
            warns.append(f"|D_{q}{j}| = {abs(d):.3e} below conditioning floor")
        d_fp.append(d)

    return ScatterSet(
        q=q,
        r_left=r_left,
        r_right=r_right,
        t_to0=t_to0,
        t_toN=t_toN,
        t_from0=t_from0,
        t_fromN=t_fromN,
        phase=tuple(phase),
        d_fp=tuple(d_fp),
        beta=ctx.beta,
        warnings=tuple(warns),
    )
