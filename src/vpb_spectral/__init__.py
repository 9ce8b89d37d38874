"""Spectral and diffusion-limit numerics for the linearized kinetic equation
with self-consistent electrostatic coupling, one Fourier mode at a time."""

from .errors import (
    AssemblyError,
    BasisError,
    ConfigError,
    DataError,
    FitError,
    RegimeError,
    VPBError,
)
from .velocity_space import (
    MacroState,
    VelocityBasis,
    bilinear_pair,
    build_basis,
    macro_vector,
    project_macro,
    weighted_inner,
    weighted_norm,
)

__version__ = "0.1.0"
