"""J_0, J_1 and J_2 of the windowed kernels' radial integral, in NumPy.

`bessel_j012` fills J_0, J_1 and J_2 of x = rho k on a (rho, k) block of `rhokernels`, in
three ranges of x: the power series below 2.5, polynomials on the gathered entries up to 5,
and the modulus-phase form above.  The series and the modulus-phase form are sums of powers
of rho k, so each is one matrix product of a rho side (`bessel_rows`, once per rho grid) with
a k side (once per block).  All three are within 1e-15 of J_n on [0, 200].
"""

from __future__ import annotations

import math

import numpy as np

# The ranges' ends, and their coefficients as `python tests/bessel_tables.py` prints them from mpmath
# (a test checks them bit for bit).  _SERIES: the power series of J_0, J_1 / x and J_2 / x^2 in x^2;
# _MIDDLE: J_0 and J_1 / x as polynomials in t = (x^2 - 15.625) / 9.375; _HANKEL: P_0, x Q_0, P_1
# and x Q_1 of the modulus-phase form as polynomials in 1 / x^2.
_X1, _X0 = 2.5, 5.0
_SERIES = (
    (
        1.0, -0.25, 0.015625, -0.00043402777777777775,
        6.781684027777777e-06, -6.781684027777778e-08, 4.709502797067901e-10, -2.4028075495244395e-12,
        9.385966990329842e-15, -2.896903392077112e-17, 7.242258480192779e-20, -1.4963343967340453e-22,
        2.5978027721077174e-25,
    ),
    (
        0.5, -0.0625, 0.0026041666666666665, -5.425347222222222e-05,
        6.781684027777778e-07, -5.651403356481481e-09, 3.363930569334215e-11, -1.5017547184527747e-13,
        5.214426105738801e-16, -1.4484516960385557e-18, 3.2919356728148996e-21, -6.234726653058522e-24,
        9.991549123491221e-27,
    ),
    (
        0.125, -0.010416666666666666, 0.0003255208333333333, -5.4253472222222224e-06,
        5.651403356481482e-08, -4.0367166832010584e-10, 2.1024566058338843e-12, -8.343081769182082e-15,
        2.6072130528694005e-17, -6.583871345629799e-20, 1.3716398636728748e-22, -2.397971789637893e-25,
        3.5684104012468646e-28,
    ),
)
_MIDDLE = (
    (
        -0.39983810654986107, 0.05683285327288077, 0.26408631268600685, -0.11895472506023429,
        0.02258201150921395, -0.002475361418624089, 0.0001791489198180754, -9.25332555375265e-06,
        3.59278619614302e-07, -1.0886244020265706e-08, 2.648460277330587e-10, -5.294778560421786e-12,
        8.842377046347813e-14,
    ),
    (
        -0.012124342031547896, -0.11267682674602959, 0.07613102403854986, -0.01926998315452924,
        0.002640385513199979, -0.00022931061736711797, 1.3818299489040874e-05, -6.131688441894101e-07,
        2.090159829702929e-08, -5.650048061992228e-10, 1.2415519460213387e-11, -2.2638603829292948e-13,
        3.4767094560086535e-15,
    ),
)
_HANKEL = (
    (
        0.9999999999999999, -0.07031249999902497, 0.11215209720636565, -0.5724990232460063,
        6.072749029907362, -109.57964582070075, 2935.894255588939, -101106.72736000146,
        3806540.6884878497, -136299302.00410414, 4218348268.1671395, -105991891108.14711,
        2061218828985.782, -29549761016435.203, 292214846461736.8, -1773649666910378.8,
        4968006495864536.0,
    ),
    (
        -0.12499999999999942, 0.07324218749156666, -0.22710798088751996, 1.72770665788416,
        -24.369230135342956, 547.4821595760964, -17346.79351239804, 671932.9096069915,
        -27248280.94321673, 1020217607.015129, -32441489928.66289, 829184896965.6827,
        -16308556898080.914, 235640422016203.06, -2343436836910233.5, 1.4284011737159124e+16,
        -4.013930335063076e+16,
    ),
    (
        1.0, 0.1171874999989683, -0.1441955540981509, 0.6765900519655146,
        -6.8825468490520265, 121.13539028333521, -3194.297854093212, 108923.38683024439,
        -4077272.6527381297, 145517842.0161065, -4495150050.860611, 112816885992.80937,
        -2192315028285.643, 31413310781458.137, -310532033719051.2, 1884331402963583.5,
        -5276967597970058.0,
    ),
    (
        0.3749999999999994, -0.10253906249109221, 0.2775764245423622, -1.9935097221527194,
        27.236898421444693, -599.7773600134159, 18757.64938594936, -720733.4952729465,
        29090305.412517387, -1086271298.7751784, 34487546799.82978, -880621860039.5679,
        17309187540815.564, -249988830030821.9, 2485350160467840.0, -1.5145483865072636e+16,
        4.25525153653878e+16,
    ),
)
_MIDDLE_R = np.array(_MIDDLE).T[::-1, :, None]   # (13, 2, 1), the t^12 coefficients first
_EDGES = np.array([-math.inf, _X1, _X0, math.inf])


def _boxes(rho: np.ndarray, k: np.ndarray) -> list:
    """Row and column slices that span the entries of rho k below 2.5, in [2.5, 5) and from 5
    up, in that order; None for a range with no entry."""
    spans = []
    for a, b in ((rho, k), (k, rho)):   # each row's (column's) smallest and largest x
        has = (a * b.max() >= _EDGES[:-1, None]) & (a * b.min() < _EDGES[1:, None])
        spans.append([np.flatnonzero(h)[[0, -1]] if h.any() else None for h in has])
    return [None if r is None else (slice(r[0], r[1] + 1), slice(c[0], c[1] + 1))
            for r, c in zip(*spans)]


def bessel_rows(rho: np.ndarray, k_hi: float) -> tuple:
    """The rho side of `bessel_j012` for k <= k_hi: modulus-phase rows (2, 2, nr, 17),
    power-series rows (3, nr, 13), and the scales s and k_lo of k.

    Both forms are sums of c x^a, and x^a = (rho s)^a (k / s)^a with s = sqrt(k_hi / rho_hi),
    which splits the range of x evenly between the two factors: an entry with x >= 5 has
    rho s and k / s >= k_lo = 5 / sqrt(rho_hi k_hi), so no factor overflows while
    rho_hi k_hi < 1e19 (`kernel_radial` checks it).  Modulus-phase rows with rho k_hi < 5,
    rho = 0 among them, are exactly 0: none of their entries takes that form.
    """
    rho_hi = float(rho.max())
    x_hi = rho_hi * k_hi
    s = math.sqrt(k_hi / rho_hi) if x_hi > 0.0 else 1.0
    k_lo = _X0 / math.sqrt(x_hi) if x_hi > 0.0 else 1.0
    inv = np.where(rho * k_hi >= _X0, 1.0 / np.maximum(rho * s, k_lo), 0.0)
    powers = inv[:, None] ** (2.0 * np.arange(17) + np.c_[[0.5, 1.5]])[:, None]   # (rho s)^-(2i + 1/2, 3/2)
    modulus = np.reshape(_HANKEL, (2, 2, 1, -1)) / math.sqrt(math.pi) * powers    # (n, E or O, nr, i)
    powers = (rho * s)[:, None] ** (2.0 * np.arange(13) + np.c_[[0, 1, 2]])[:, None]   # (rho s)^(2j + n)
    return modulus, np.reshape(_SERIES, (3, 1, -1)) * powers, s, k_lo


def bessel_j012(rho: np.ndarray, k: np.ndarray, rows: tuple, out: np.ndarray):
    """J_0, J_1, J_2 of x = rho k (the outer product): the first three planes of `out`, an
    (8, nr, nb) scratch.  `rows` is `bessel_rows(rho, k_hi)` for a k_hi >= max(k).

    - x < 2.5: the power series of J_0, J_1 and J_2 (x^2j, x^(2j + 1), x^(2j + 2) terms).
    - 2.5 <= x < 5: J_0 and J_1 / x as polynomials in t = (x^2 - 15.625) / 9.375, by Horner's
      rule on the gathered entries.
    - x >= 5: J_0 = E_0 (cos x + sin x) + O_0 (cos x - sin x) and
      J_1 = O_1 (cos x + sin x) - E_1 (cos x - sin x), the modulus-phase form with
      E_n = P_n / sqrt(pi x) and O_n = Q_n / sqrt(pi x); cos and sin are taken only here.
    J_2 = 2 J_1 / x - J_0 from x = 2.5 up.  The series and the modulus-phase form are sums of
    powers of x = rho k, so each is one matrix product of `rows` with the block's powers of k,
    over the rows and columns that span the entries of its range.  J_0, J_1 and J_2 are
    within 6e-16 of their values on [0, 200], and J_2 keeps its relative accuracy down to 0.
    """
    modulus, series, s, k_lo = rows
    x = out[7]
    np.multiply.outer(rho, k, out=x)
    series_box, middle_box, modulus_box = _boxes(rho, k)
    # The modulus-phase form fills its whole box, where entries below 5 get garbage, inf or nan
    # too; the series and the middle range then write only their own entries over it.
    with np.errstate(all="ignore"):
        if modulus_box is not None:
            xs, (rs, cs) = x[modulus_box], modulus_box
            big = xs >= _X0
            kinv = 1.0 / np.maximum(k[cs] / s, k_lo)
            kp = np.empty((2, modulus.shape[-1], kinv.size))   # (k / s)^-(2i + 1/2), ^-(2i + 3/2)
            kp[0, 0], k2 = np.sqrt(kinv), kinv * kinv
            for i in range(1, kp.shape[1]):
                np.multiply(kp[0, i - 1], k2, out=kp[0, i])
            np.multiply(kp[0], kinv, out=kp[1])
            e0, o0, e1, o1, c, v, u = out[:7, rs, cs]   # J_0, J_1, J_2 end up in e0, o0, e1
            np.matmul(modulus[:, :, rs], kp, out=out[:4, rs, cs].reshape(2, 2, *xs.shape))
            np.cos(xs, out=c, where=big)
            np.sin(xs, out=v, where=big)
            np.add(c, v, out=u)
            np.subtract(c, v, out=v)
            e0 *= u
            o0 *= v
            e0 += o0
            e1 *= v
            np.multiply(o1, u, out=o0)
            o0 -= e1
            np.divide(o0, xs, out=e1)
            e1 *= 2.0
            e1 -= e0
        if series_box is not None:
            xs, (rs, cs) = x[series_box], series_box
            kk = k[cs] / s
            kp = np.empty((3, series.shape[-1], kk.size))   # (k / s)^2j, ^(2j + 1), ^(2j + 2)
            kp[0, 0], k2 = 1.0, kk * kk
            for j in range(1, kp.shape[1]):
                np.multiply(kp[0, j - 1], k2, out=kp[0, j])
            np.multiply(kp[0], kk, out=kp[1])
            np.multiply(kp[1], kk, out=kp[2])
            t, small = out[3:6, rs, cs], xs < _X1
            np.matmul(series[:, rs], kp, out=t)
            for plane, got in zip(out[:3, rs, cs], t):
                np.copyto(plane, got, where=small)
    if middle_box is not None:
        xs, (rs, cs) = x[middle_box], middle_box
        mid = (xs >= _X1) & (xs < _X0)
        xm = xs[mid]
        t = xm * xm
        t -= (_X0 ** 2 + _X1 ** 2) / 2
        t *= 2 / (_X0 ** 2 - _X1 ** 2)
        p = _MIDDLE_R[0] * t
        for coef in _MIDDLE_R[1:-1]:
            p += coef
            p *= t
        p += _MIDDLE_R[-1]   # J_0 and J_1 / x
        out[0, rs, cs][mid] = p[0]
        out[1, rs, cs][mid] = np.multiply(xm, p[1], out=t)
        p[1] *= 2.0
        p[1] -= p[0]
        out[2, rs, cs][mid] = p[1]
    return out[0], out[1], out[2]
