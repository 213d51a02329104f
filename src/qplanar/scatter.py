"""Single-interface Fresnel coefficients and generalized multilayer scattering.

All multilayer coefficients are assembled by Redheffer star-product
composition of interface scattering matrices and layer phase factors
e^{i beta d}.  Only bounded factors enter (|e^{i beta d}| <= 1 for passive
media), so thick lossy or evanescent layers attenuate gracefully instead of
overflowing the way transfer matrices do.  Star products compose element
by element, so every coefficient is an array over the k of the context.

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

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .constants import C_LIGHT
from .errors import ConfigError, SingularInterfaceError
from .modes import ModeContext, POLS

D_CONDITION_FLOOR = 1e-14


class InterfaceCoeffs(NamedTuple):
    r: complex
    t: complex


def interface_rt(ctx: ModeContext, i, j, q: str) -> InterfaceCoeffs:
    """Fresnel coefficients for a wave in region i crossing into adjacent region j.

    `i` and `j` may be equal-length index arrays: one interface per entry,
    on the leading axis of r and t.

    s:  r = (beta_i - beta_j) / (beta_i + beta_j),     t = 2 beta_i / (beta_i + beta_j)
    p:  r = (eps_j beta_i - eps_i beta_j) / (eps_j beta_i + eps_i beta_j),
        t = 2 beta_i sqrt(eps_i eps_j) / (eps_j beta_i + eps_i beta_j)

    sqrt(eps_i eps_j) is the product of the individual principal roots
    (k_i k_j c^2 / omega^2), never the root of the product, to stay
    continuous in each eps separately.
    """
    i, j = np.asarray(i), np.asarray(j)
    if np.any(abs(i - j) != 1):
        raise ConfigError(f"interface_rt needs adjacent regions, got {i}, {j}")
    bi, bj = ctx.beta[i], ctx.beta[j]
    if q == "s":
        den = bi + bj
        what = "beta_{} + beta_{} = 0"
        num_r, num_t = bi - bj, 2.0 * bi
    elif q == "p":
        ei, ej = ctx.eps[i], ctx.eps[j]
        den = ej * bi + ei * bj
        what = "eps-weighted denominator vanishes at interface {}|{}"
        # sqrt(eps_i eps_j), one value per interface and mode, divided by the real w_c2 exactly
        w_c2 = (ctx.omega / C_LIGHT) ** 2
        kk = ctx.kj[i] * ctx.kj[j]
        num_r, num_t = ej * bi - ei * bj, 2.0 * bi * (kk.real / w_c2 + 1j * (kk.imag / w_c2))
    else:
        raise ConfigError(f"polarization must be 's' or 'p', got {q!r}")
    zero = den == 0.0
    if zero.any():
        at = np.unravel_index(np.argmax(zero), zero.shape)
        raise SingularInterfaceError(what.format(i[at[:i.ndim]], j[at[:i.ndim]])
                                     + f" at {ctx.mode(at[i.ndim:])}")
    # Equal media transmit exactly: t = 1 where the numerator is the denominator.
    return InterfaceCoeffs(num_r / den, np.where(num_t == den, 1.0, num_t / den))


@dataclass(frozen=True)
class ScatterSet:
    """Generalized coefficients of one polarization for every region and k.

    Arrays are (n+1, *k.shape), indexed by region j = 0..n first, with the
    half-space entries degenerating to r_left[0] = r_right[n] = 0, t
    identities, D = 1.  `d_floor` marks the modes whose |D_j| is below the
    conditioning floor (a guided-mode pole within rounding).
    """

    q: str
    r_left: np.ndarray    # r[j -> 0 side]
    r_right: np.ndarray   # r[j -> n side]
    t_to0: np.ndarray     # t[j -> region 0]
    t_toN: np.ndarray     # t[j -> region n]
    t_from0: np.ndarray   # t[region 0 -> j]
    t_fromN: np.ndarray   # t[region n -> j]
    phase: np.ndarray     # e^{i beta_j d_j}
    d_fp: np.ndarray      # Fabry-Perot denominator D_j
    beta: np.ndarray
    d_floor: np.ndarray   # bool, |D_j| < D_CONDITION_FLOOR

    @property
    def n(self) -> int:
        return len(self.beta) - 1

    # Whole-stack coefficients (region-0 / region-n view).
    @property
    def r_0n(self):
        return self.r_right[0]

    @property
    def r_n0(self):
        return self.r_left[self.n]

    @property
    def t_0n(self):
        return self.t_toN[0]

    @property
    def t_n0(self):
        return self.t_to0[self.n]

    def xi(self, j: int, jp: int):
        """Green-kernel weight pairing field region j with source region jp."""
        n = self.n
        return (
            (self.t_from0[j] * self.phase[j] / self.d_fp[j])
            * (self.t_fromN[jp] * self.phase[jp] / self.d_fp[jp])
            / (self.beta[n] * self.t_0n)
        )


@functools.lru_cache(maxsize=64)
def _recursion_rows(n: int) -> tuple[np.ndarray, ...]:
    """Regions (from, to) of the crossings i -> i+1, then i+1 -> i, and per step x (L, R)
    the region on S's side and the rows of the crossings away from and back to S (read-only)."""
    i, step = np.arange(n), np.arange(n)[:, None]
    rows = (np.concatenate([i, i + 1]), np.concatenate([i + 1, i]), np.hstack([step, n - step]),
            np.hstack([step, 2 * n - 1 - step]), np.hstack([n + step, n - 1 - step]))
    for r in rows:
        r.flags.writeable = False
    return rows


def scatter_set(ctx: ModeContext, q: str = "s") -> ScatterSet:
    """Compose all generalized r/t coefficients of one polarization for every k."""
    if q not in POLS:
        raise ConfigError(f"polarization must be one of {POLS}, got {q!r}")
    n = ctx.n
    # beta_j = 0 in a layer puts r = -1 on both its faces: an exact pole that rounding may miss.
    branch = ctx.beta[1:n] == 0.0
    if branch.any():
        j, *at = np.unravel_index(np.argmax(branch), branch.shape)
        at = tuple(at)
        raise SingularInterfaceError(f"beta = 0 in layer {j + 1} at k = {float(ctx.k[at])!r} 1/m, "
                                     f"omega = {float(ctx.omega[at])!r} rad/s (branch point of a "
                                     "lossless layer): multiple-reflection pole")

    phase = np.exp(1j * ctx.beta * ctx.per_region(ctx.d, np.arange(n + 1)))
    phase[0] = phase[n] = 1.0

    # Redheffer star products over k.  Step t extends the left partial L[t] =
    # S(0..t) and the mirrored (left-right swapped) right partial R[n-t] =
    # S(n-t..n) by one block B: the interface crossed away from S (a) and back
    # (b) after the flight across the region on S's side (phase ph, 1 outside).
    # With R the reflection of S from its growing side and D = 1 - R r_in,
    #   (R, t_rl, t_lr)' = (R, t_rl, t_lr) (t_in t_out, t_in, t_out) / D + (r_out, 0, 0),
    # r_in = r_a ph^2, r_out = -r_a, t_in = t_b ph and t_out = t_a ph.
    from_i, to_i, side, away, back = _recursion_rows(n)
    rt = interface_rt(ctx, from_i, to_i, q)
    ph = phase[side]
    r_a, t_in, t_out = rt.r[away], ph * rt.t[back], rt.t[away] * ph
    r_in = ph * r_a * ph
    factors = np.stack([t_in * t_out, t_in, t_out], axis=1)   # step x (R, t_rl, t_lr) x (L, R)
    offsets = np.zeros_like(factors)
    offsets[:, 0] = -r_a
    state = [np.ones_like(factors[0])]
    state[0][0] = 0.0
    for step in range(n):
        denom = 1.0 - state[-1][0] * r_in[step]
        if not denom.all():
            at = np.unravel_index(np.argmax(denom == 0.0), denom.shape)[1:]
            raise SingularInterfaceError("star product hit an exact multiple-reflection pole "
                                         f"at {ctx.mode(at)}")
        state.append(state[-1] * factors[step] / denom + offsets[step])
    state = np.stack(state)
    r_left, t_to0, t_from0 = state[:, :, 0].swapaxes(0, 1)
    r_right, t_toN, t_fromN = state[::-1, :, 1].swapaxes(0, 1)

    d_fp = 1.0 - r_left * r_right * phase * phase
    return ScatterSet(
        q=q,
        r_left=r_left,
        r_right=r_right,
        t_to0=t_to0,
        t_toN=t_toN,
        t_from0=t_from0,
        t_fromN=t_fromN,
        phase=phase,
        d_fp=d_fp,
        beta=ctx.beta,
        d_floor=np.abs(d_fp) < D_CONDITION_FLOOR,
    )
