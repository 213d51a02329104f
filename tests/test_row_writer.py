"""The CSV row writer `cli._rows` against `template % tuple(row)` per row, byte for byte."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import qplanar.cli
from qplanar.cli import _FLOAT, _rows

# The writer takes log10 of its cells (zeros and specials replaced first); no NumPy warning may leave it.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

ROW = "x," + ",".join([_FLOAT] * 8) + ",y"


def _oracle(template, values):
    return "".join(template % tuple(v) + "\n" for v in values.tolist())


def _with_neighbours(values) -> np.ndarray:
    """`values`, their neighbours one ulp away on either side, and all of these negated."""
    v = np.asarray(values, dtype=float)
    v = np.concatenate([v, np.nextafter(v, np.inf), np.nextafter(v, -np.inf)])
    return np.concatenate([v, -v])


def _check(values):
    """`values`, zero-padded into rows of `ROW`, through the writer and the oracle."""
    n = ROW.count(_FLOAT)
    values = np.asarray(values, dtype=float).reshape(-1)
    table = np.concatenate([values, np.zeros(-values.size % n)]).reshape(-1, n)
    assert _rows(ROW, table) == _oracle(ROW, table)


_LITERAL = st.text(st.characters(blacklist_characters="%"), max_size=4)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_any_floats_any_template(data):
    literals = data.draw(st.lists(_LITERAL, min_size=2, max_size=6))
    template = _FLOAT.join(literals)
    shape = (data.draw(st.integers(0, 5)), len(literals) - 1)
    values = data.draw(hnp.arrays(np.float64, shape, elements=st.floats()))
    assert _rows(template, values) == _oracle(template, values)


def test_random_bit_patterns():
    rng = np.random.default_rng(20260)
    _check(rng.integers(0, 2**64, 200_000, dtype=np.uint64).view(float))


def test_decimal_halfway_values():
    # (m + 1/2) * 10**k: the 14th significant digit is a 5, a tie for 13 digits.
    rng = np.random.default_rng(7)
    m = rng.integers(10**12, 10**13, 4_000)
    k = rng.integers(-323, 296, m.size)
    halfway = [float(f"{a}5e{b}") for a, b in zip(m.tolist(), k.tolist())]
    exact = np.concatenate([m + 0.5, 10 * m + 5.0, 100 * m + 50.0])   # ties held exactly
    _check(_with_neighbours([*halfway, *exact]))


def test_powers_of_ten_and_carries():
    k = range(-323, 309)
    powers = [float(f"1e{i}") for i in k]
    carries = [float(f"{c}e{i}") for i in k for c in ("9.9999999999995", "9.99999999999949",
                                                       "9.99999999999951", "9.9999999999999")]
    _check(_with_neighbours([*powers, *carries]))


def _near_ties(rng, exponents, per_exponent=12) -> list[float]:
    """Per exponent e, x in [10**e, 10**(e+1)) with |x| * 10**(12 - e) within 0.01 of a
    rounding tie, ties themselves left out; each twelfth significand is 9999999999999, so
    rounding up carries to 10**13."""
    e = np.repeat(exponents, per_exponent)
    m = rng.integers(10**12, 10**13, e.size)
    m[::per_exponent] = 10**13 - 1
    frac = rng.integers(490_000_000, 510_000_001, e.size)   # nine digits after the point
    near = [(float(f"{a}{b:09d}e{k - 21}"), k)
            for a, b, k in zip(m.tolist(), frac.tolist(), e.tolist())]
    return [x for x, k in near if Fraction(x) * Fraction(10) ** (12 - k) % 1 != Fraction(1, 2)]


def _exact_ties(rng) -> list[float]:
    """Floats x = (d + 1/2) * 10**(e - 12), d a 13-digit integer: every tie a float can hold."""
    ties = []
    for e in range(-7, 16):
        q = 5 ** max(0, 12 - e)   # odd * 10**(e - 12) / 2 is a binary fraction if q | odd
        for t in rng.integers(2 * 10**12 // q, 2 * 10**13 // q, 40).tolist():
            tie = Fraction(q * (t | 1), 2) * Fraction(10) ** (e - 12)
            if 10**12 <= tie * Fraction(10) ** (12 - e) < 10**13 and Fraction(float(tie)) == tie:
                ties.append(float(tie))
    return ties


def test_near_ties_at_every_exponent_of_the_array_path():
    rng = np.random.default_rng(15)
    _check(_with_neighbours([*_near_ties(rng, np.arange(-290, 301)), 1e-290, 1e300]))


def test_exact_ties_round_half_even_like_percent():
    ties = _exact_ties(np.random.default_rng(16))
    assert len(ties) > 300
    _check(_with_neighbours(ties))
    assert _rows(f"{_FLOAT},{_FLOAT}", np.array([[1234567890122.5, -1234567890123.5]])) == \
        "1.234567890122e+12,-1.234567890124e+12\n"


def test_only_ties_and_special_cells_take_percent(monkeypatch):
    calls = []

    class CountingFloat(str):
        def __mod__(self, value):
            calls.append(value)
            return str.__mod__(self, value)

    monkeypatch.setattr(qplanar.cli, "_FLOAT", CountingFloat(_FLOAT))
    rng = np.random.default_rng(17)
    near = _near_ties(rng, np.arange(-290, 300))
    _check([*near, *(-np.array(near))])
    assert calls == []
    special = [*_exact_ties(rng), np.nan, np.inf, -np.inf, 1e-291, 2e300, 5e-324]
    _check(rng.permutation(np.array([*near, *special])))
    assert sorted(map(repr, calls)) == sorted(map(repr, special))


def test_signed_zeros_among_normal_cells_and_ties():
    # +0.0 and -0.0 take the array path; their neighbours here are ordinary and tie-prone cells
    rng = np.random.default_rng(11)
    normal = rng.standard_normal(600) * 10.0 ** rng.integers(-20, 20, 600)
    ties = 10.0 ** rng.integers(-3, 3, 600) * (rng.integers(10**12, 10**13, 600) + 0.5)
    values = np.concatenate([normal, ties, np.zeros(600), -np.zeros(600)])
    table = rng.permutation(values).reshape(-1, 8)
    assert _rows(ROW, table) == _oracle(ROW, table)
    assert _rows(ROW, np.zeros((2, 8))) == ("x," + ",".join(["0.000000000000e+00"] * 8) + ",y\n") * 2
    assert _rows(_FLOAT, np.array([[-0.0]])) == "-0.000000000000e+00\n"


@pytest.mark.parametrize("template", [
    _FLOAT,
    f"lead {_FLOAT}",
    f"{_FLOAT} trail",
    f"{_FLOAT}{_FLOAT}{_FLOAT}",
    f"\u00b5,{_FLOAT},s,{_FLOAT}{_FLOAT},\x00,{_FLOAT},end",
    "no cells",
    f"a,{_FLOAT}\nb,{_FLOAT},{_FLOAT}",   # one output row per line: groups interleaved
    f"{_FLOAT}\n",
    f"\n{_FLOAT}\n\n{_FLOAT}",
])
@pytest.mark.parametrize("rows", [0, 1, 7])
def test_template_shapes(template, rows):
    rng = np.random.default_rng(rows)
    table = rng.standard_normal((rows, template.count(_FLOAT))) * 10.0 ** rng.integers(-30, 30)
    table.flat[::3] = [0.0, np.nan, -np.inf, 5e-324]   # repeated over every third cell
    assert _rows(template, table) == _oracle(template, table)


def test_lone_surrogates_pass_through():
    template = f"\ud800,{_FLOAT},\udc80{_FLOAT}\ud83d\ude00"
    table = np.array([[1.5, -2.25e-7], [np.nan, 3.0]])
    assert _rows(template, table) == _oracle(template, table)


@pytest.mark.parametrize("template", ["%d", f"{_FLOAT}%%"])
def test_templates_other_than_text_and_cells_are_refused(template):
    with pytest.raises(ValueError):
        _rows(template, np.zeros((1, 1)))
