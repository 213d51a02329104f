"""Simpson quadrature of the Green identity: the oracle of the closed form in
`qplanar.greens.verify_green_identity`.

It shares only the kernel `green_kernel` with the closed form.  Every node
evaluates both kernel factors as their own calls (also where the field points
coincide), every 3x3 product is a stacked `@`, and each region is integrated
by composite Simpson, split at the field points inside it.  The half-space
tails beyond the outermost field point hold one decaying exponential, so each
is its first node's integrand over 2 beta''.  The error falls as the fourth
power of the node spacing, so the oracle converges to the closed form.
"""

import numpy as np

from qplanar.constants import C_LIGHT
from qplanar.greens import green_kernel
from qplanar.scatter import scatter_set

_EZ = np.array([0.0, 0.0, 1.0])


def simpson_identity(ctx, j=0, jp=0, z=0.0, zp=0.0, nodes_per_layer=200):
    """(lhs, rhs, residual) of the identity at the field points (j, z) and (jp, zp), at every
    mode of `ctx`; lhs by Simpson on `nodes_per_layer` subintervals per layer (at least 4,
    and at least 8 per half-space panel, each rounded up to even).  A node on a field
    point takes the side of the panel it closes."""
    w_c2 = (ctx.omega / C_LIGHT) ** 2
    pair = (scatter_set(ctx, "s"), scatter_set(ctx, "p"))
    n = ctx.n

    def integrand(jpp, zpp, tie):
        a = green_kernel(ctx, pair, j, jpp, z, zpp, tie)
        b = green_kernel(ctx, pair, jp, jpp, zp, zpp, tie)
        return (w_c2 * ctx.eps[jpp].imag)[..., None, None, None] * (a @ np.conj(b).swapaxes(-1, -2))

    def panel(jpp, a, b, m):
        m += m % 2
        nodes = np.linspace(a, b, m + 1)
        weights = np.full(m + 1, 2.0)
        weights[1::2] = 4.0
        weights[0] = weights[-1] = 1.0
        vals = integrand(jpp, nodes, nodes == b)
        return np.sum(vals * (weights * ((b - a) / m / 3.0))[:, None, None], axis=-3)

    lhs = np.zeros(ctx.k.shape + (3, 3), dtype=complex)
    for jpp in range(1, n):
        d = ctx.d[jpp]
        edges = sorted({0.0, d} | {zz for jj, zz in ((j, z), (jp, zp)) if jj == jpp and 0.0 < zz < d})
        for a, b in zip(edges, edges[1:]):
            lhs += panel(jpp, a, b, max(4, int(round(nodes_per_layer * (b - a) / d))))
    for jpp, s in ((0, -1.0), (n, 1.0)):
        edges = sorted({0.0} | {zz for jj, zz in ((j, z), (jp, zp)) if jj == jpp and s * zz > 0.0})
        for a, b in zip(edges, edges[1:]):
            lhs += panel(jpp, a, b, max(8, nodes_per_layer))
        far, tie = (edges[0], 1.0) if jpp == 0 else (edges[-1], 0.0)
        lhs += integrand(jpp, np.array([far]), tie)[..., 0, :, :] / (2.0 * ctx.beta[jpp].imag)[..., None, None]

    g_fwd = green_kernel(ctx, pair, j, jp, z, zp)
    g_rev = green_kernel(ctx, pair, jp, j, zp, z)
    rhs = (g_fwd - np.conj(g_rev).swapaxes(-1, -2)) / 2j
    fwd_z = (g_fwd @ _EZ)[..., :, None] * _EZ
    rev_z = _EZ[:, None] * (g_rev @ _EZ).conj()[..., None, :]
    rhs = rhs + (ctx.eps[jp].imag / ctx.eps[jp].conjugate())[..., None, None] * fwd_z
    rhs = rhs + (ctx.eps[j].imag / ctx.eps[j])[..., None, None] * rev_z
    largest = np.maximum(np.abs(lhs).max(axis=(-2, -1)), np.abs(rhs).max(axis=(-2, -1)))
    return lhs, rhs, np.abs(lhs - rhs).max(axis=(-2, -1)) / largest
