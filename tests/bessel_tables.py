"""Regenerate the J_0/J_1/J_2 coefficient tables of `qplanar.bessel` with mpmath.

    python tests/bessel_tables.py

prints `_SERIES`, `_MIDDLE` and `_HANKEL` as the Python literals `bessel` holds, and
`tests/test_rhokernels.py` checks those literals against `tables()` bit for bit.  Every
value is computed at 40 digits and rounded once to the nearest double.

- `_SERIES`, for x < 2.5: the power series of J_0, J_1 / x and J_2 / x^2 in x^2, to the
  x^24 term; the terms dropped are below 1e-17.
- `_MIDDLE`, for 2.5 <= x < 5: J_0 and J_1 / x as polynomials of degree 12 in
  t = (x^2 - 15.625) / 9.375, which maps the interval onto [-1, 1]: the Chebyshev
  interpolants at 13 first-kind points, within 5e-17 of the functions, with the sum of the
  coefficients' magnitudes below 0.9.
- `_HANKEL`, for x >= 5: the modulus-phase (Hankel) form
  J_n = sqrt(2 / (pi x)) (P_n cos chi_n - Q_n sin chi_n), chi_n = x - (2n + 1) pi / 4.
  The rows hold P_0, x Q_0, P_1 and x Q_1 as polynomials of degree 16 in y = 1 / x^2: the
  Chebyshev interpolants at 17 first-kind points of y in [0, 1/25], which put J_0 and J_1
  within 3e-17 of the form, with the sum of the coefficients' magnitudes times y^i below 1.01.
"""

from __future__ import annotations

import mpmath as mp

X1, X0 = 2.5, 5
SERIES_TERMS = 13
MIDDLE_TERMS = 13
HANKEL_TERMS = 17


def _chebyshev_coefficients(f, n: int) -> list:
    """c_0..c_{n-1} of the sum of c_j T_j(t) that interpolates f at the n first-kind points."""
    theta = [mp.pi * (k + mp.mpf(1) / 2) / n for k in range(n)]
    fs = [f(mp.cos(th)) for th in theta]
    c = [2 * mp.fsum(fk * mp.cos(j * th) for fk, th in zip(fs, theta)) / n for j in range(n)]
    c[0] /= 2
    return c


def _monomial(c: list, a, b) -> list:
    """Monomial coefficients in y of the sum of c_j T_j((2 y - a - b) / (b - a))."""
    t = [-(a + b) / (b - a), 2 / (b - a)]   # T_1 as a polynomial in y
    prev, cur = [mp.mpf(1)], t
    mono = [c[0]] + [mp.mpf(0)] * (len(c) - 1)
    for cj in c[1:]:
        for i, v in enumerate(cur):
            mono[i] += cj * v
        nxt = [mp.mpf(0)] * (len(cur) + 1)
        for i, v in enumerate(cur):   # T_{j+1} = 2 T_1 T_j - T_{j-1}
            nxt[i] += 2 * t[0] * v
            nxt[i + 1] += 2 * t[1] * v
        for i, v in enumerate(prev):
            nxt[i] -= v
        prev, cur = cur, nxt
    return mono


def _series() -> list:
    """J_0 = sum (-x^2/4)^j / j!^2; J_1 / x and J_2 / x^2 have j! (j + 1)! and j! (j + 2)!
    in the denominator and a leading 1/2 and 1/4."""
    f = mp.factorial
    return [[(-mp.mpf(1) / 4) ** j / (f(j) * f(j + n)) / 2 ** n for j in range(SERIES_TERMS)]
            for n in (0, 1, 2)]


def _middle() -> list:
    lo, hi = mp.mpf(X1) ** 2, mp.mpf(X0) ** 2
    mid, half = (lo + hi) / 2, (hi - lo) / 2
    return [_monomial(_chebyshev_coefficients(lambda t: f(mp.sqrt(mid + half * t)), MIDDLE_TERMS),
                      mp.mpf(-1), mp.mpf(1))
            for f in (lambda x: mp.besselj(0, x), lambda x: mp.besselj(1, x) / x)]


def _p_xq(n: int, y) -> tuple:
    x = 1 / mp.sqrt(y)
    chi = x - (2 * n + 1) * mp.pi / 4
    j, yn, m = mp.besselj(n, x), mp.bessely(n, x), mp.sqrt(mp.pi * x / 2)
    return m * (j * mp.cos(chi) + yn * mp.sin(chi)), x * m * (yn * mp.cos(chi) - j * mp.sin(chi))


def _hankel() -> list:
    b = 1 / mp.mpf(X0) ** 2
    rows = []
    for n in (0, 1):
        values = {}   # t -> (P_n, x Q_n): one mpmath evaluation per point for both rows
        for part in (0, 1):
            c = _chebyshev_coefficients(
                lambda t: values.setdefault(t, _p_xq(n, (t + 1) * b / 2))[part], HANKEL_TERMS)
            rows.append(_monomial(c, mp.mpf(0), b))
    return rows


def tables() -> tuple[tuple, ...]:
    """(_SERIES, _MIDDLE, _HANKEL) as tuples of tuples of floats."""
    with mp.workdps(40):
        return tuple(tuple(tuple(float(v) for v in row) for row in rows)
                     for rows in (_series(), _middle(), _hankel()))


def _literal(name: str, rows: tuple) -> str:
    lines = [f"{name} = ("]
    for row in rows:
        lines.append("    (")
        lines += ["        " + " ".join(f"{v!r}," for v in row[i:i + 4]) for i in range(0, len(row), 4)]
        lines.append("    ),")
    return "\n".join(lines + [")"])


if __name__ == "__main__":
    for name, rows in zip(("_SERIES", "_MIDDLE", "_HANKEL"), tables()):
        print(_literal(name, rows))
