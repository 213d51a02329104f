"""The CSV row writer `cli._rows` against `template % tuple(row)`, byte for byte."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qplanar.cli import _FLOAT, _rows

# The writer takes log10 of its cells (zeros and specials replaced first); no NumPy warning may leave it.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

ROW = "x," + ",".join([_FLOAT] * 8) + ",y"


def _oracle(template, values):
    return [template % tuple(v) for v in values.tolist()]


def _lines(template, values):
    """The oracle's rows cut at their newlines: what `_rows` gives for a template of several lines."""
    return [line for row in _oracle(template, values) for line in row.split("\n")]


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
    assert _rows(template, values) == _lines(template, values)


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


def test_signed_zeros_among_normal_cells_and_ties():
    # +0.0 and -0.0 take the array path; their neighbours here are ordinary and tie-prone cells
    rng = np.random.default_rng(11)
    normal = rng.standard_normal(600) * 10.0 ** rng.integers(-20, 20, 600)
    ties = 10.0 ** rng.integers(-3, 3, 600) * (rng.integers(10**12, 10**13, 600) + 0.5)
    values = np.concatenate([normal, ties, np.zeros(600), -np.zeros(600)])
    table = rng.permutation(values).reshape(-1, 8)
    assert _rows(ROW, table) == _oracle(ROW, table)
    assert _rows(ROW, np.zeros((2, 8))) == ["x," + ",".join(["0.000000000000e+00"] * 8) + ",y"] * 2
    assert _rows(_FLOAT, np.array([[-0.0]])) == ["-0.000000000000e+00"]


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
    assert _rows(template, table) == _lines(template, table)


def test_lone_surrogates_pass_through():
    template = f"\ud800,{_FLOAT},\udc80{_FLOAT}\ud83d\ude00"
    table = np.array([[1.5, -2.25e-7], [np.nan, 3.0]])
    assert _rows(template, table) == _oracle(template, table)


@pytest.mark.parametrize("template", ["%d", f"{_FLOAT}%%"])
def test_templates_other_than_text_and_cells_are_refused(template):
    with pytest.raises(ValueError):
        _rows(template, np.zeros((1, 1)))
