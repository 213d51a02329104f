"""Scalar per-mode oracle for the array-valued mode engine.

One (omega, k, q) mode at a time in Python complex arithmetic: the
formulas the engine evaluated point by point before it took arrays of k,
with beta_j = sqrt((k_j - k)(k_j + k)).  `make_context`, `interface_rt`,
`star` (with `SMatrix`, `S_IDENTITY`, `propagation`), `scatter_set`,
`io_matrix`, `commutators` (the closed forms) and `emission_w` mirror the
engine stage by stage; only `Stack`, `epsilon`, `bose` and the constants
are shared with it.

`assembled_out` and `gram` are the exception: they take the engine's
arrays (k axes first) and form the 2x2 block products with a stacked `@`,
the oracle of the engine's entry-by-entry products.
"""

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from qplanar.constants import C_LIGHT
from qplanar.errors import AccuracyError, RegimeError, SingularInterfaceError
from qplanar.stack import Stack, epsilon
from qplanar.thermal import bose


def upper_sqrt(z: complex) -> complex:
    """Root with Re, Im >= 0; negative reals map exactly to +i sqrt(|z|)."""
    if z.imag == 0.0:
        x = z.real
        return complex(0.0, math.sqrt(-x)) if x < 0.0 else complex(math.sqrt(x), 0.0)
    return cmath.sqrt(z)


@dataclass(frozen=True)
class Mode:
    omega: float
    k: float
    eps: tuple
    kj: tuple
    beta: tuple
    d: tuple

    @property
    def n(self) -> int:
        return len(self.eps) - 1


def make_context(stack: Stack, omega: float, k: float) -> Mode:
    regions = range(stack.n + 1)
    w_c = omega / C_LIGHT
    eps = tuple(complex(epsilon(stack, j, omega)) for j in regions)
    kj = tuple(upper_sqrt(e * w_c * w_c) for e in eps)
    beta = tuple(upper_sqrt((x - k) * (x + k)) for x in kj)
    return Mode(omega, k, eps, kj, beta, tuple(stack.thickness(j) for j in regions))


def interface_rt(m: Mode, i: int, j: int, q: str) -> tuple[complex, complex]:
    bi, bj = m.beta[i], m.beta[j]
    if q == "s":
        den = bi + bj
        if den == 0.0:
            raise SingularInterfaceError("beta_i + beta_j = 0")
        return (bi - bj) / den, 2.0 * bi / den
    ei, ej = m.eps[i], m.eps[j]
    den = ej * bi + ei * bj
    if den == 0.0:
        raise SingularInterfaceError("eps-weighted denominator vanishes")
    root = m.kj[i] * m.kj[j] / (m.omega / C_LIGHT) ** 2
    return (ej * bi - ei * bj) / den, 2.0 * bi * root / den


class SMatrix(NamedTuple):
    """2x2 scattering block mapping (in_left, in_right) -> (out_left, out_right)."""

    r_l: complex   # reflection for left-side incidence
    t_rl: complex  # transmission right -> left
    t_lr: complex  # transmission left -> right
    r_r: complex   # reflection for right-side incidence


S_IDENTITY = SMatrix(0j, 1 + 0j, 1 + 0j, 0j)


def propagation(phase: complex) -> SMatrix:
    """Free flight across a layer; `phase` = e^{i beta d}."""
    return SMatrix(0j, phase, phase, 0j)


def star(a: SMatrix, b: SMatrix) -> SMatrix:
    """Redheffer star product: composite of sub-stack `a` followed by `b`."""
    denom = 1.0 - a.r_r * b.r_l
    if denom == 0.0:
        raise SingularInterfaceError("star product hit an exact multiple-reflection pole")
    inv = 1.0 / denom
    return SMatrix(a.r_l + a.t_rl * b.r_l * a.t_lr * inv, a.t_rl * b.t_rl * inv,
                   b.t_lr * a.t_lr * inv, b.r_r + b.t_lr * a.r_r * b.t_rl * inv)


@dataclass(frozen=True)
class Scatter:
    q: str
    r_left: tuple
    r_right: tuple
    t_to0: tuple
    t_toN: tuple
    t_from0: tuple
    t_fromN: tuple
    phase: tuple
    d_fp: tuple


def scatter_set(m: Mode, q: str) -> Scatter:
    n = m.n
    ifaces = []
    for i in range(n):
        r, t = interface_rt(m, i, i + 1, q)
        rb, tb = interface_rt(m, i + 1, i, q)
        ifaces.append(SMatrix(r, tb, t, rb))
    phase = [1 + 0j] + [cmath.exp(1j * m.beta[j] * m.d[j]) for j in range(1, n)] + [1 + 0j]
    left = [S_IDENTITY] * (n + 1)
    for j in range(1, n + 1):
        block = ifaces[0] if j == 1 else star(propagation(phase[j - 1]), ifaces[j - 1])
        left[j] = star(left[j - 1], block)
    right = [S_IDENTITY] * (n + 1)
    for j in range(n - 1, -1, -1):
        block = ifaces[j] if j == n - 1 else star(ifaces[j], propagation(phase[j + 1]))
        right[j] = star(block, right[j + 1])
    r_left = tuple(s.r_r for s in left)
    r_right = tuple(s.r_l for s in right)
    d_fp = tuple(1.0 - r_left[j] * r_right[j] * phase[j] * phase[j] for j in range(n + 1))
    return Scatter(q, r_left, r_right, tuple(s.t_rl for s in left), tuple(s.t_lr for s in right),
                   tuple(s.t_lr for s in left), tuple(s.t_rl for s in right), tuple(phase), d_fp)


def io_matrix(ss: Scatter) -> tuple[np.ndarray, np.ndarray]:
    """(S 2x2, Phi (n-1, 2, 2)) with rows (out0, outN)."""
    n = len(ss.r_left) - 1
    s = np.array([[ss.r_right[0], ss.t_to0[n]], [ss.t_toN[0], ss.r_left[n]]], dtype=complex)
    phi = np.empty((n - 1, 2, 2), dtype=complex)
    for j in range(1, n):
        ph, d = ss.phase[j], ss.d_fp[j]
        phi[j - 1] = ((ss.t_to0[j] * ph * ph / d * ss.r_right[j], ss.t_to0[j] / d),
                      (ss.t_toN[j] * ph / d, ss.t_toN[j] * ph / d * ss.r_left[j]))
    return s, phi


def _pqq(m: Mode, j: int, q: str):
    if q == "s":
        return 1.0, 1.0, 1.0 + 0j
    b, kj, k2 = m.beta[j], m.kj[j], m.k * m.k
    return ((abs(b) ** 2 + k2) / abs(kj) ** 2, (k2 - abs(b) ** 2) / abs(kj) ** 2,
            (k2 - b * b) / (kj * kj))


def _c_out(m: Mode, q: str, j: int, r: complex) -> float:
    b = m.beta[j]
    ab2 = abs(b) ** 2
    if q == "s":
        return (b.real + 2.0 * b.imag * r.imag) / ab2
    kj, k2 = m.kj[j], m.k * m.k
    akj2 = abs(kj) ** 2
    p, qq, qb = _pqq(m, j, q)
    ratio = kj * kj / (kj * kj).conjugate()
    term_r = 2.0 * (r * (k2 * ratio - ab2) / (b * akj2)).real
    term_0 = ((p + qq * qb) / b).real + k2 / akj2 * ((ratio - 1.0) * (1.0 + qb) / b).real
    return term_r + term_0 + b.real * p / ab2 * (abs(r) ** 2 - abs(qb + r) ** 2)


def _cross(m: Mode, q: str, t0n: complex, tn0: complex) -> complex:
    b0, bn = m.beta[0], m.beta[m.n]
    ab0, abn = abs(b0) ** 2, abs(bn) ** 2
    if q == "s":
        return 1j * b0.imag * t0n.conjugate() / ab0 - 1j * bn.imag * tn0 / abn
    k2, k0, kn = m.k * m.k, m.kj[0], m.kj[m.n]
    p0, _, qb0 = _pqq(m, 0, "p")
    pn, _, qbn = _pqq(m, m.n, "p")
    out = tn0 * (k2 * (kn * kn) / (kn * kn).conjugate() - abn) / (bn * abs(kn) ** 2)
    out += t0n.conjugate() * (k2 * (k0 * k0).conjugate() / (k0 * k0) - ab0) / (b0.conjugate() * abs(k0) ** 2)
    out -= bn.real / abn * tn0 * pn * qbn.conjugate()
    out -= b0.real / ab0 * t0n.conjugate() * p0 * qb0
    return out


def _intraplate_c(m: Mode, q: str, j: int) -> np.ndarray:
    b, d = m.beta[j], m.d[j]
    ab2 = abs(b) ** 2
    p, qq, _ = _pqq(m, j, q)
    cpp = b.real / ab2 * math.expm1(2.0 * b.imag * d) * p
    cmm = -b.real / ab2 * math.expm1(-2.0 * b.imag * d) * p
    cpm = 1j * b.imag / ab2 * (cmath.exp(-2j * b.real * d) - 1.0) * qq
    return np.array([[cpp, cpm], [cpm.conjugate(), cmm]], dtype=complex)


def commutators(m: Mode, q: str) -> dict:
    """c_in0, c_inN, c_out0, c_outN, cross, cmat (n-1, 2, 2) and the IO relation of one mode."""
    if any(b == 0.0 for b in m.beta):
        raise RegimeError("grazing mode")
    ss = scatter_set(m, q)
    s, phi = io_matrix(ss)
    c_in = [m.beta[j].real / abs(m.beta[j]) ** 2 * _pqq(m, j, q)[0] for j in (0, m.n)]
    return {
        "c_in0": c_in[0], "c_inN": c_in[1],
        "c_out0": _c_out(m, q, 0, s[0, 0]), "c_outN": _c_out(m, q, m.n, s[1, 1]),
        "cross": _cross(m, q, s[1, 0], s[0, 1]),
        "cmat": np.array([_intraplate_c(m, q, j) for j in range(1, m.n)]).reshape(-1, 2, 2),
        "s": s, "phi": phi,
    }


def emission_w(m: Mode, q: str, temperature: float, side: int) -> float:
    cs = commutators(m, q)
    row = 0 if side == 0 else 1
    total = 0j
    for phi, cmat in zip(cs["phi"], cs["cmat"]):
        total += phi[row] @ cmat @ phi[row].conjugate()
    occ = bose(m.omega, temperature)
    w = occ * total.real
    if w < -1e-10 * occ * max(abs(cs["c_in0"]), abs(cs["c_inN"]), abs(total.real), 1e-300):
        raise AccuracyError("emission spectrum came out negative")
    return w


def _dagger(m: np.ndarray) -> np.ndarray:
    return np.conj(m).swapaxes(-1, -2)


def assembled_out(s: np.ndarray, c_in: np.ndarray, phi: np.ndarray, cmat: np.ndarray) -> np.ndarray:
    """S diag(c_in) S^+ + sum_j Phi^(j) C^(j) Phi^(j)+ with a stacked @; c_in is (..., 2)."""
    return sum(phi @ cmat @ _dagger(phi), (s * c_in[..., None, :]) @ _dagger(s))


def gram(s: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """S S^+ + sum_j Phi^(j) Phi^(j)+ with a stacked @."""
    return sum(phi @ _dagger(phi), s @ _dagger(s))
