"""The row writer `cli._rows` on templates of every layout, against `template % tuple(row)` per
row, byte for byte, and the memory one call takes.

A layout places each cell at its literal's exact end and copies equally spaced cells, and
repeats of a line, in one strided view each; long literals, runs of one literal, lines of
differing layouts and three-digit exponents exercise each way of grouping the cells.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qplanar.cli import _FLOAT, _rows

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def _oracle(template, values):
    return "".join(template % tuple(v) + "\n" for v in values.tolist())


_TEXT = st.characters(blacklist_characters="%")   # surrogates and any other code point
_LITERAL = st.one_of(
    st.text(_TEXT, max_size=16),
    st.sampled_from([",", ",s,", ",p,21,", ",0,20000,7", ",µ,", "é", "中,\U0001f600", ""]))
_LINE = st.tuples(_LITERAL, st.lists(st.tuples(_LITERAL, st.integers(1, 6)), max_size=4))
# any float, and every decimal exponent, two- and three-digit, of either sign
_CELL = st.one_of(st.floats(),
                  st.builds(lambda m, e: m * 10.0 ** e, st.floats(-9.99, 9.99), st.integers(-300, 300)))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_any_layout(data):
    # A line is a lead literal and runs of cells that each end in one literal; the lines
    # differ, and the whole set of lines may repeat, as the per-polarization lines do.
    lines = data.draw(st.lists(_LINE, min_size=1, max_size=4)) * data.draw(st.integers(1, 3))
    template = "\n".join(lead + "".join((_FLOAT + literal) * run for literal, run in runs)
                         for lead, runs in lines)
    shape = (data.draw(st.integers(0, 4)), template.count(_FLOAT))
    values = data.draw(hnp.arrays(np.float64, shape, elements=_CELL))
    assert _rows(template, values) == _oracle(template, values)


def test_rows_allocates_a_few_times_the_text_it_returns():
    # A 20-layer `coeffs` chunk: 148 modes x {s, p} x 210 cells.  With a slot per cell padded
    # to the longest literal and its float temporaries alive until the end, the writer
    # peaked at 7.4x the text; with them freed before the text is allocated, at 3.3x.
    floats = ",".join([_FLOAT] * 208)
    template = "\n".join(f"{_FLOAT},{_FLOAT},{q},{floats}" for q in "sp")
    rng = np.random.default_rng(8)
    values = rng.standard_normal((148, 2, 210)) * 10.0 ** rng.integers(-30, 30, (148, 2, 210))
    _rows(template, values)   # tables and layout are built on first use
    tracemalloc.start()
    try:
        text = _rows(template, values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * len(text), peak / len(text)
