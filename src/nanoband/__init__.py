"""Band structure and spectral identities for zigzag nanotube quantum
graphs with a periodic potential in a uniform magnetic field."""

from ._rootfind import RootBracketError
from .potential import FourierCoeffs, PotentialSpec, fourier_coeffs, make_potential
from .monodromy import dirichlet_spectrum
from .spectrum import (BandStructure, FlatSpectrum, MagneticConfig,
                       PurePointRegimeError, band_structure, flat_spectrum, xi)
from .masses import (MassTable, effective_masses, verify_mass_asymptotics,
                     verify_mass_series, verify_partial_fraction,
                     verify_trace_identity)
from .quasimomentum import k_eval, verify_deep_asymptotics, verify_kprime_squared
from .verifier import (CheckRecord, InequalityReport, check_comb_comparison,
                       check_height_mass_gap, check_merged_band_bound,
                       check_monotonicity)
from .floquet_oracle import (CellSystem, CrossValidation, FlatBandVicinityError,
                             build_cell_system, cross_validate, dispersion_roots)

__version__ = "0.1.0"

__all__ = [
    "BandStructure", "CellSystem", "CheckRecord", "CrossValidation",
    "FlatBandVicinityError", "FlatSpectrum", "FourierCoeffs",
    "InequalityReport", "MagneticConfig", "MassTable", "PotentialSpec",
    "PurePointRegimeError", "RootBracketError", "band_structure",
    "build_cell_system", "check_comb_comparison", "check_height_mass_gap",
    "check_merged_band_bound", "check_monotonicity", "cross_validate",
    "dirichlet_spectrum", "dispersion_roots", "effective_masses",
    "flat_spectrum", "fourier_coeffs", "k_eval", "make_potential",
    "verify_deep_asymptotics", "verify_kprime_squared",
    "verify_mass_asymptotics", "verify_mass_series",
    "verify_partial_fraction", "verify_trace_identity", "xi",
]
