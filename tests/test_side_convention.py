"""`side` is an outer region index, 0 or n, for every public function taking it."""

import pytest

from conftest import C
from qplanar.commutators import c_in_side, c_out_side
from qplanar.errors import ConfigError
from qplanar.iorel import field_outside
from qplanar.modes import make_context
from qplanar.sampler import sample_emission
from qplanar.scatter import scatter_set
from qplanar.stack import ConstantEps, Layer, Stack, VACUUM
from qplanar.thermal import emission_w, kirchhoff_residual

OMEGA = 2e15
K = 0.5 * OMEGA / C
STACK = Stack(VACUUM, (Layer(150e-9, ConstantEps(3 + 0.4j)),
                       Layer(100e-9, ConstantEps(2 + 0.8j))), VACUUM)
N = STACK.n  # 3


def _ctx():
    return make_context(STACK, OMEGA, K)


TAKERS = {
    "side_row": lambda side: _ctx().side_row(side),
    "c_in_side": lambda side: c_in_side(_ctx(), "p", side),
    "c_out_side": lambda side: c_out_side(_ctx(), scatter_set(_ctx(), q="p"), side),
    "emission_w": lambda side: emission_w(_ctx(), q="p", side=side),
    "kirchhoff_residual": lambda side: kirchhoff_residual(_ctx(), q="p", side=side),
    "sample_emission": lambda side: sample_emission(_ctx(), q="p", side=side, realizations=10),
    "field_outside": lambda side: field_outside(_ctx(), side, 0.0, "p"),
}


@pytest.mark.parametrize("side", [1, N + 1, -1])
@pytest.mark.parametrize("name", sorted(TAKERS))
def test_side_outside_zero_or_n_rejected(name, side):
    with pytest.raises(ConfigError, match=f"side must be 0 or {N}"):
        TAKERS[name](side)


@pytest.mark.parametrize("name", sorted(TAKERS))
def test_side_zero_and_n_accepted(name):
    for side in (0, N):
        TAKERS[name](side)
