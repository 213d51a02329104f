from dataclasses import replace

import numpy as np
import pytest

import qplanar.commutators
from qplanar.stack import ConstantEps, Layer, Stack, VACUUM

C = 299792458.0


@pytest.fixture
def glass_slab():
    """Lossless vacuum-clad slab, eps = 2.25."""
    return Stack(VACUUM, (Layer(150e-9, ConstantEps(2.25 + 0j)),), VACUUM)


@pytest.fixture
def absorbing_slab():
    """Vacuum-clad absorbing slab, eps = 2 + 0.5i, d = 200 nm."""
    return Stack(VACUUM, (Layer(200e-9, ConstantEps(2.0 + 0.5j)),), VACUUM)


@pytest.fixture
def flip_p_transmission(monkeypatch):
    """Negative control: commutator_set sees a wrong TM transmission sign convention.

    Every TM generalized transmission coefficient between two different
    regions changes sign; the verification suites must catch it.
    """
    real = qplanar.commutators.scatter_set

    def flipped(ctx, stack=None, q="s"):
        ss = real(ctx, stack, q)
        if q != "p":
            return ss

        def flip(ts, keep):
            return tuple(t if j == keep else -t for j, t in enumerate(ts))

        return replace(ss, t_to0=flip(ss.t_to0, 0), t_from0=flip(ss.t_from0, 0),
                       t_toN=flip(ss.t_toN, ss.n), t_fromN=flip(ss.t_fromN, ss.n))

    monkeypatch.setattr(qplanar.commutators, "scatter_set", flipped)


def quarter_wave_stack(omega, eps=4.0):
    """Slab with beta_1 d = pi/2 at normal incidence."""
    k1 = np.sqrt(eps) * omega / C
    return Stack(VACUUM, (Layer((np.pi / 2) / k1, ConstantEps(complex(eps))),), VACUUM)


def random_stack(rng, n_layers=None, outer="mixed"):
    """Random passive multilayer: eps' in [1, 6], eps'' in [0, 1], d in 50..400 nm."""
    if n_layers is None:
        n_layers = int(rng.integers(1, 6))
    layers = tuple(
        Layer(
            float(rng.uniform(50e-9, 400e-9)),
            ConstantEps(complex(rng.uniform(1.0, 6.0),
                                0.0 if rng.random() < 0.3 else rng.uniform(0.0, 1.0))),
        )
        for _ in range(n_layers)
    )

    def one_outer():
        u = rng.random()
        if outer == "vacuum" or (outer == "mixed" and u < 0.4):
            return VACUUM
        if outer == "mixed" and u < 0.7:
            return ConstantEps(complex(rng.uniform(1.0, 4.0), 0.0))
        return ConstantEps(complex(rng.uniform(1.0, 4.0), rng.uniform(1e-3, 1.0)))

    return Stack(one_outer(), layers, one_outer())


def random_mode(rng, kmax_frac=2.5):
    omega = float(rng.uniform(1e15, 3e15))
    k = float(rng.uniform(0.0, kmax_frac)) * omega / C
    q = str(rng.choice(["s", "p"]))
    return omega, k, q
