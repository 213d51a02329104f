import bisect
import math

import numpy as np
import pytest

from qplanar.constants import C_LIGHT, EPS0, HBAR, K_B, n0_scale
from qplanar.errors import ConfigError, FrequencyRangeError, PassivityError
from qplanar.modes import make_context
from qplanar.stack import (
    ConstantEps,
    DrudeLorentzEps,
    Layer,
    Stack,
    TabulatedEps,
    VACUUM,
    dump_stack,
    epsilon,
    load_stack,
)
from qplanar.thermal import bose

VACUUM_CONFIG = """
{
  "medium0": {"model": "constant", "eps_re": 1.0, "eps_im": 0.0},
  "layers": [],
  "mediumN": {"model": "constant", "eps_re": 1.0, "eps_im": 0.0}
}
"""

SLAB_CONFIG = """
{
  "medium0": {"model": "constant", "eps_re": 1.0, "eps_im": 0.0},
  "layers": [
    {"thickness_m": 1e-7,
     "material": {"model": "constant", "eps_re": 2.25, "eps_im": 0.01}}
  ],
  "mediumN": {"model": "constant", "eps_re": 1.0, "eps_im": 0.0}
}
"""


def test_load_uniform_vacuum():
    st = load_stack(VACUUM_CONFIG)
    assert st.n == 1
    assert st.layers == ()
    assert epsilon(st, 0, 1e15) == 1.0 + 0.0j
    assert epsilon(st, 1, 1e15) == 1.0 + 0.0j


def test_load_single_slab():
    st = load_stack(SLAB_CONFIG)
    assert st.n == 2
    assert st.thickness(1) == pytest.approx(1e-7)
    assert epsilon(st, 1, 2e15) == 2.25 + 0.01j


def test_negative_thickness_rejected():
    bad = SLAB_CONFIG.replace("1e-7", "-5e-9")
    with pytest.raises(ConfigError, match="thickness"):
        load_stack(bad)


def test_parse_error_carries_line_info():
    with pytest.raises(ConfigError, match="line"):
        load_stack("{\n  broken\n}")


def test_passivity_violation_rejected():
    bad = SLAB_CONFIG.replace("0.01", "-0.01")
    with pytest.raises(PassivityError):
        load_stack(bad)


def test_missing_key():
    with pytest.raises(ConfigError, match="mediumN"):
        load_stack('{"medium0": {"model": "constant", "eps_re": 1.0}}')


def test_round_trip_identity():
    osc = DrudeLorentzEps(2.0, ((0.5, 1.2e15, 3.0e13), (0.1, 2.4e15, 1.0e13)))
    tab = TabulatedEps((1e15, 2e15, 3e15), (2 + 0.1j, 2 + 0.3j, 2.2 + 0.4j))
    st = Stack(VACUUM, (Layer(1e-7, osc), Layer(2.5e-7, tab)), ConstantEps(2.0 + 0.2j))
    assert load_stack(dump_stack(st)) == st


def test_constant_model_any_omega():
    m = ConstantEps(1.0 + 0.0j)
    for w in (1e12, 1e15, 1e18):
        assert m(w) == 1.0 + 0.0j


def test_drude_lorentz_on_resonance():
    s, w0, g = 0.8, 2.0e15, 5.0e13
    m = DrudeLorentzEps(1.5, ((s, w0, g),))
    # at omega = omega0 the oscillator contributes i s w0 / g exactly
    expected = 1.5 + 1j * s * w0 / g
    assert m(w0) == pytest.approx(expected, rel=1e-14)


def _scalar_eps(model, omega: float) -> complex:
    """Each model at one float omega, one Python operation at a time: the array path's oracle."""
    if isinstance(model, ConstantEps):
        return model.eps
    if isinstance(model, DrudeLorentzEps):
        eps, omega = complex(model.eps_inf), np.float64(omega)
        for s, w0, g in model.oscillators:
            eps += s * w0 * w0 / (w0 * w0 - omega * omega - 1j * g * omega)
        return eps
    i = bisect.bisect_right(model.omegas, omega)
    if i == len(model.omegas):
        return model.values[-1]
    w0, w1 = model.omegas[i - 1], model.omegas[i]
    f = (omega - w0) / (w1 - w0)
    return model.values[i - 1] * (1.0 - f) + model.values[i] * f


def _scalar_bose(omega: float, temperature: float) -> float:
    x = HBAR * omega / (K_B * temperature) if temperature > 0.0 else math.inf
    return math.exp(-x) if x > 700.0 else 1.0 / math.expm1(x)


def _bits(values):
    """The bit patterns of complex values, flattened (distinguishes -0.0 from 0.0)."""
    return np.asarray(values, dtype=complex).reshape(-1).view(np.int64)


def test_epsilon_equals_the_mode_engine_bit_for_bit():
    # The benchmark's Drude-Lorentz oscillator, a second oscillator, a lossy constant and a
    # table: every region of the engine and epsilon() equal the per-float form, bit for bit.
    # The table ends on a signed zero, which interpolation at its last sample would not keep.
    table = TabulatedEps(tuple(np.linspace(5e14, 5e15, 7).tolist()),
                         (*(complex(2.0 + 0.3 * i, 0.05 * i) for i in range(6)), complex(-1.0, -0.0)))
    st = Stack(ConstantEps(1.5 + 0.3j),
               (Layer(40e-9, DrudeLorentzEps(2.0, ((3.0, 2.4e15, 1.5e14),))),
                Layer(60e-9, DrudeLorentzEps(1.2, ((0.9, 1.5e15, 2e13), (0.4, 2.5e15, 8e13)))),
                Layer(80e-9, table)),
               ConstantEps(2.0 + 0.0j))
    line = np.concatenate([np.linspace(1e15, 3e15, 2001), table.omegas, table.omegas[::2]])
    rng = np.random.default_rng(3)
    grid = rng.choice(line, (40, 60))   # 2-d, with repeats
    for omega in (np.array(table.omegas[-1]), np.array(2.4e15), line, grid):
        ref = make_context(st, omega, 0.0).eps
        assert ref.shape == (len(st.materials), *omega.shape)
        for j, model in enumerate(st.materials):
            expected = [_scalar_eps(model, w) for w in omega.ravel().tolist()]
            assert np.array_equal(_bits(ref[j]), _bits(expected))
            assert np.array_equal(_bits(epsilon(st, j, omega)), _bits(ref[j]))
            for to_float in (float, np.float64):
                assert np.array_equal(_bits(epsilon(st, j, to_float(omega.flat[0]))),
                                      _bits(ref[j].flat[0]))
        for temperature in (0.0, 1.0, 300.0):
            got = bose(omega, temperature)
            assert got.shape == omega.shape
            assert got.ravel().tolist() == [_scalar_bose(w, temperature) for w in omega.ravel().tolist()]
        n0 = n0_scale(omega)
        assert n0.shape == omega.shape
        assert n0.ravel().tolist() == [math.pi * HBAR / EPS0 * (w / C_LIGHT) ** 2
                                       for w in omega.ravel().tolist()]


def test_tabulated_midpoint_interpolation():
    m = TabulatedEps((1e15, 2e15), (2 + 0.1j, 2 + 0.3j))
    assert m(1.5e15) == pytest.approx(2 + 0.2j, rel=1e-14)


def test_tabulated_out_of_range():
    m = TabulatedEps((1e15, 2e15), (2 + 0.1j, 2 + 0.3j))
    with pytest.raises(FrequencyRangeError):
        m(0.5e15)
    with pytest.raises(FrequencyRangeError):
        m(2.5e15)


def test_tabulated_requires_increasing_omegas():
    with pytest.raises(ConfigError, match="increasing"):
        TabulatedEps((2e15, 1e15), (2 + 0.1j, 2 + 0.3j))


def test_drude_lorentz_negative_strength_rejected():
    with pytest.raises(PassivityError):
        DrudeLorentzEps(1.0, ((-0.2, 1e15, 1e13),))


def test_region_index_bounds():
    st = load_stack(SLAB_CONFIG)
    with pytest.raises(ConfigError):
        epsilon(st, 3, 1e15)
    with pytest.raises(ConfigError):
        epsilon(st, -1, 1e15)


def test_passivity_random_sweep():
    rng = np.random.default_rng(42)
    models = [
        ConstantEps(2.0 + 0.3j),
        DrudeLorentzEps(1.0, ((0.9, 1.5e15, 2e13), (0.4, 2.5e15, 8e13))),
        TabulatedEps(tuple(np.linspace(5e14, 5e15, 7)),
                     tuple(2 + 0.05j * i for i in range(7))),
    ]
    for m in models:
        for _ in range(200):
            w = float(rng.uniform(5.5e14, 4.9e15))
            assert m(w).imag >= 0.0
