"""Quantized-field input-output relations at planar multilayers."""

from .commutators import (
    BosonizedIO,
    CommutatorSet,
    assembled_out,
    bosonize,
    commutator_set,
    unitarity_residual,
)
from .constants import n0_scale
from .errors import (
    AccuracyError,
    ConfigError,
    FrequencyRangeError,
    PassivityError,
    QPlanarError,
    RegimeError,
    SingularInterfaceError,
    UsageError,
)
from .greens import GreenIdentityResult, green_kernel, verify_green_identity, wavefun
from .iorel import AmplitudeVector, IOMatrix, SourceBlock, field_outside, io_matrix, mean_out
from .modes import ModeContext, Regime, make_context, regime
from .rhokernels import GaussianWindow, KernelField, kernel_radial
from .sampler import EmissionEstimate, SamplePlan, sample_emission
from .scatter import InterfaceCoeffs, ScatterSet, interface_rt, scatter_set
from .stack import (
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
from .thermal import bose, emission_w, kirchhoff_residual

__version__ = "0.1.0"

__all__ = [
    "AccuracyError",
    "AmplitudeVector",
    "BosonizedIO",
    "CommutatorSet",
    "ConfigError",
    "ConstantEps",
    "DrudeLorentzEps",
    "EmissionEstimate",
    "FrequencyRangeError",
    "GaussianWindow",
    "GreenIdentityResult",
    "InterfaceCoeffs",
    "IOMatrix",
    "KernelField",
    "Layer",
    "ModeContext",
    "PassivityError",
    "QPlanarError",
    "Regime",
    "RegimeError",
    "SamplePlan",
    "ScatterSet",
    "SingularInterfaceError",
    "SourceBlock",
    "Stack",
    "TabulatedEps",
    "UsageError",
    "VACUUM",
    "assembled_out",
    "bose",
    "bosonize",
    "commutator_set",
    "dump_stack",
    "emission_w",
    "epsilon",
    "field_outside",
    "green_kernel",
    "interface_rt",
    "io_matrix",
    "kernel_radial",
    "kirchhoff_residual",
    "load_stack",
    "make_context",
    "mean_out",
    "n0_scale",
    "regime",
    "sample_emission",
    "scatter_set",
    "unitarity_residual",
    "verify_green_identity",
    "wavefun",
]
