"""Planar Green kernel in the 2D-Fourier domain and its integral identity.

The kernel g^(j j')(z, z', k, omega) is assembled from unit-strength waves
reflected at the stack boundaries; the delta-function local term of the
full Green tensor is excluded throughout (it never contributes to the
in/out fields this package computes).

At coincident same-region coordinates the step functions are taken
symmetric, Theta(0) = 1/2; the one-sided values are available through the
`tie` argument.  The symmetric convention is the one under which the
absorption integral identity holds pointwise at the boundary planes.

Nothing grows with the thickness of a layer (`wavefun`, `_xi`), and on each
panel of a region the kernel is two exponentials in z'' (`_panel`), so the
identity's z''-integrals are exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .commutators import _dagger
from .constants import C_LIGHT
from .errors import ConfigError, RegimeError
from .modes import ModeContext
from .scatter import ScatterSet, interface_rt, scatter_set

_EZ = np.array([0.0, 0.0, 1.0], dtype=complex)
_SIGMA = {"p": 1.0, "s": -1.0}


def _z_range_check(ctx: ModeContext, j: int, z: np.ndarray):
    """Raise ConfigError unless every entry of z lies in region j (NaN never does)."""
    lo = -np.inf if j == 0 else 0.0
    hi = 0.0 if j == 0 else np.inf if j == ctx.n else ctx.d[j]
    bad = ~((lo <= z) & (z <= hi))
    if np.any(bad):
        raise ConfigError(f"z = {z[bad].flat[0]} outside region {j} ({lo} <= z <= {hi})")


def wavefun(ctx: ModeContext, ss: ScatterSet, j: int, direction: str, z,
            shift=0.0) -> np.ndarray:
    """Unit-strength wave in region j, reflected at the stack boundary, each part decaying
    from the face it leaves, times e^{i beta shift}: rightward ('>')
        e_+ e^{i beta (z + shift)} + r[j->n] e_- e^{i beta (2 d_j - z + shift)},
    or leftward ('<') e_- e^{i beta (d_j - z + shift)} + r[j->0] e_+ e^{i beta (d_j + z + shift)}.
    At shift 0 that is e^{i beta d_j} times the wave referenced at the far face; an outer
    medium reflects nothing, so there the wave is its first part.  `z` and `shift` may be
    arrays, broadcast together: the result is k.shape + z.shape + (3,).  The kernel passes
    exponents of length >= 0 only, each of modulus at most 1."""
    z = np.asarray(z, dtype=float)
    _z_range_check(ctx, j, z)
    if direction not in ("<", ">"):
        raise ConfigError(f"direction must be '>' or '<', got {direction!r}")
    z, shift = np.broadcast_arrays(z, np.asarray(shift, dtype=float))
    lead = ctx.k.shape + (1,) * z.ndim
    b, d, first = ctx.beta[j].reshape(lead + (1,)), ctx.d[j], 1 if direction == ">" else -1
    near, far = (z + shift, 2.0 * d - z + shift) if first > 0 else (d - z + shift, d + z + shift)
    out = ctx.pol_vector(ss.q, j, first).reshape(lead + (3,)) * np.exp(1j * b * near[..., None])
    if j != (ctx.n if first > 0 else 0):
        r = (ss.r_right if first > 0 else ss.r_left)[j].reshape(lead + (1,))
        out += (r * ctx.pol_vector(ss.q, j, -first).reshape(lead + (3,))
                * np.exp(1j * b * far[..., None]))
    return out


def _xi(ctx: ModeContext, ss: ScatterSet, j: int, jp: int) -> np.ndarray:
    """Kernel weight t[0->j] t[n->jp] / (D_j D_jp beta_n t[0->n]) of field region j above
    source region jp over its phases e^{i beta_j d_j} e^{i beta_jp d_jp}, never dividing by
    t[0->n] (0 behind a thick lossy layer): the left partial t[0->i]'s steps t[i->i+1] /
    (1 - r[i->0] r[i->i+1] e^{2 i beta_i d_i}) from jp to j, with e^{i beta_i d_i} between."""
    i = np.arange(jp, j)
    rt = interface_rt(ctx, i, i + 1, ss.q)
    steps = rt.t / (1.0 - ss.r_left[i] * rt.r * ss.phase[i] * ss.phase[i])
    out = steps[0]
    for step, phase in zip(steps[1:], ss.phase[i[1:]]):   # in order: the same bits in any batch
        out = out * (phase * step)
    return out / (ss.d_fp[j] * ctx.beta[jp])


def _panel(ctx: ModeContext, pair: tuple[ScatterSet, ScatterSet], j: int, z: float, m: int,
           a, b, up: bool) -> tuple[np.ndarray, np.ndarray]:
    """(A, B) with g^(j m)(z, z'') = A e^{i beta_m (z'' - a)} + B e^{i beta_m (b - z'')} on
    the panels a <= z'' <= b of region m, k.shape + np.shape(a) + (3, 3) each, with the
    field point above z'' (`up`) or below it throughout.  A is the rightward part of the
    source wave (e_+ at -k), B the leftward part (e_- at -k); what an outer medium would
    reflect is 0, so a tail passes a == b at its finite end."""
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    lead = ctx.k.shape + (1,) * a.ndim
    beta, d = ctx.beta[m].reshape(lead + (1,)), ctx.d[m]
    # Lengths of the source wave's first and reflected parts at the panel ends: up, '<'
    # leftward from d_m (B) then off the left face (A); down, '>' the mirror image.
    lengths = ((d - b, d + a) if up else (a, 2.0 * d - b))[:1 + (m != (0 if up else ctx.n))]
    direction, sides = (">", (1, 0)) if up else ("<", (0, 1))
    out = np.zeros((2,) + ctx.k.shape + a.shape + (3, 3), dtype=complex)
    for ss in pair:
        if j == m:   # xi = e^{i beta d} / (D beta): its phases merge into the field wave's
            w = (_SIGMA[ss.q] / (ss.d_fp[m] * ctx.beta[m])).reshape(lead + (1,))
            parts = [w * wavefun(ctx, ss, j, direction, z, s - d) for s in lengths]
        else:
            xi = _SIGMA[ss.q] * (_xi(ctx, ss, j, m) if up else _xi(ctx, ss, m, j))
            f = xi.reshape(lead + (1,)) * wavefun(ctx, ss, j, direction, z).reshape(lead + (3,))
            parts = [np.exp(1j * beta * s[..., None]) * f for s in lengths]
        if len(parts) == 2:
            parts[1] *= (ss.r_left if up else ss.r_right)[m].reshape(lead + (1,))
        for f, side in zip(parts, sides):
            e = ctx.pol_vector(ss.q, m, 1 - 2 * side, (-ctx.khat[0], -ctx.khat[1]))
            out[side] += f[..., :, None] * e.reshape(lead + (1, 3))
    return 0.5j * out[0], 0.5j * out[1]


def green_kernel(ctx: ModeContext, pair: tuple[ScatterSet, ScatterSet], j: int = 0,
                 jp: int = 0, z: float = 0.0, zp=0.0, tie=0.5) -> np.ndarray:
    """Scattering part of the planar Green kernel, complex 3x3 per mode.

    `pair` is the s and p ScatterSet of `ctx`.  First index follows the field
    point (region j, coordinate z), second the source point (region jp, zp).
    `tie` is the Theta(0) weight used only when j == jp and z == zp: 0.5
    symmetric, 1.0 selects the z > z' branch, 0.0 the z < z' branch.  `zp` and `tie`
    may be arrays, broadcast together; the result, k.shape + zp.shape + (3, 3), is
    A + B of each branch's `_panel` at a == b == zp.
    """
    zp, tie = np.broadcast_arrays(np.asarray(zp, dtype=float), np.asarray(tie, dtype=float))
    _z_range_check(ctx, jp, zp)
    if j != jp:
        branches = ((1.0, j > jp, zp),)
    else:   # a branch takes the nodes of the other side, where its weight is 0, at z
        w_up = np.where(z > zp, 1.0, np.where(z < zp, 0.0, tie))
        branches = ((w_up, True, np.minimum(zp, z)), (1.0 - w_up, False, np.maximum(zp, z)))
    out = np.zeros(ctx.k.shape + zp.shape + (3, 3), dtype=complex)
    for w, up, at in branches:
        if np.any(w):
            out += np.asarray(w)[..., None, None] * sum(_panel(ctx, pair, j, z, jp, at, at, up))
    return out


def _adjoint_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a b^+ of stacked 3x3 blocks, summed in order: the same bits for a mode in any batch."""
    return np.sum(a[..., :, None, :] * b.conjugate()[..., None, :, :], axis=-1)


def _gram(beta: np.ndarray, length: float):
    """(g, h) of a panel of `length` L: g = int |e^{i beta (z - a)}|^2 = L (1 - e^{-2x}) / (2x)
    (also of e^{i beta (b - z)}) and h = int e^{i beta (z - a)} (e^{i beta (b - z)})^* =
    L e^{-x} sin(y) / y, x = beta'' L, y = beta' L, both L at 0; a tail's: 1 / (2 beta''), 0."""
    if np.isinf(length):
        return 0.5 / beta.imag, 0.0
    x, y = beta.imag * length, beta.real * length
    g = np.where(x > 0.0, -np.expm1(-2.0 * x) / (2.0 * np.where(x > 0.0, x, 1.0)), 1.0)
    h = np.exp(-x) * np.where(y > 0.0, np.sin(y) / np.where(y > 0.0, y, 1.0), 1.0)
    return length * g, length * h


@dataclass(frozen=True)
class GreenIdentityResult:
    lhs: np.ndarray        # k.shape + (3, 3)
    rhs: np.ndarray        # k.shape + (3, 3)
    residual: np.ndarray   # k.shape: max |lhs - rhs| over the larger of max |lhs|, max |rhs|


def absorbing_outer(ctx: ModeContext) -> np.ndarray:
    """Modes in the domain of :func:`verify_green_identity`, per k: Im eps > 0 in both outer
    regions."""
    return (ctx.eps[0].imag > 0.0) & (ctx.eps[-1].imag > 0.0)


def verify_green_identity(ctx: ModeContext, j: int = 0, jp: int = 0,
                          z: float = 0.0, zp: float = 0.0) -> GreenIdentityResult:
    """Verify the absorption integral identity for the kernel, at every mode of ctx.

    lhs: sum over all regions of int dz'' (w/c)^2 eps'' g^(j,j'')(z, z'') g^(j',j'')*(z', z''),
    exact: each region is split at the field points inside it, and each panel adds
    A (g A' + h B')^+ + B (h A' + g B')^+ of both field points' `_panel` coefficients (one
    set where they coincide) and the `_gram` of its length (a tail's is 1 / (2 beta''), 0).

    rhs: (g - g^+)/2i at the field points plus the two eps''/eps boundary
    terms, with the symmetric Theta convention at coincident coordinates.

    Requires :func:`absorbing_outer` at every mode, so the tails converge.
    """
    n = ctx.n
    lossless = ~absorbing_outer(ctx)
    if lossless.any():
        at = np.unravel_index(np.argmax(lossless), lossless.shape)
        im = ctx.eps[[0, n]][(slice(None), *at)].imag
        raise RegimeError(f"outer regions 0, {n} have Im eps = {im} at {ctx.mode(at)}; the "
                          "identity's semi-infinite integrals need Im eps > 0 in both outer media")
    w_c2 = (ctx.omega / C_LIGHT) ** 2
    pair = (scatter_set(ctx, "s"), scatter_set(ctx, "p"))

    # At coincident field points both factors, and g and g_rev below, are one.
    fields = ((j, z),) if (j, z) == (jp, zp) else ((j, z), (jp, zp))
    lhs = np.zeros(ctx.k.shape + (3, 3), dtype=complex)
    for m in range(n + 1):
        lo, hi = (-np.inf, 0.0) if m == 0 else (0.0, np.inf) if m == n else (0.0, ctx.d[m])
        edges = [lo, *sorted({zf for jf, zf in fields if jf == m and lo < zf < hi}), hi]
        weight = w_c2 * ctx.eps[m].imag
        for a, b in zip(edges, edges[1:]):
            ends = (b, b) if a == -np.inf else (a, a) if b == np.inf else (a, b)
            (fa, fb), *other = [_panel(ctx, pair, jf, zf, m, *ends, jf > m or (jf == m and b <= zf))
                                for jf, zf in fields]
            sa, sb = other[0] if other else (fa, fb)
            g, h = ((weight * x)[..., None, None] for x in _gram(ctx.beta[m], b - a))
            lhs += _adjoint_product(fa, g * sa + h * sb) + _adjoint_product(fb, h * sa + g * sb)

    # Right-hand side of the identity.
    g_fwd = green_kernel(ctx, pair, j, jp, z, zp)
    g_rev = g_fwd if len(fields) == 1 else green_kernel(ctx, pair, jp, j, zp, z)
    rhs = (g_fwd - _dagger(g_rev)) / 2j
    fwd_z = (g_fwd @ _EZ)[..., :, None] * _EZ
    rev_z = _EZ[:, None] * (g_rev @ _EZ).conjugate()[..., None, :]
    rhs = rhs + (ctx.eps[jp].imag / ctx.eps[jp].conjugate())[..., None, None] * fwd_z
    rhs = rhs + (ctx.eps[j].imag / ctx.eps[j])[..., None, None] * rev_z
    largest = np.maximum(np.max(np.abs(rhs), axis=(-2, -1)), np.max(np.abs(lhs), axis=(-2, -1)))
    residual = np.max(np.abs(lhs - rhs), axis=(-2, -1)) / np.maximum(largest, 1e-300)
    return GreenIdentityResult(lhs, rhs, residual)
