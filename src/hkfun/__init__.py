"""Exact Hilbert-Kunz density functions, support invariants and F-thresholds
for graded pairs, cross-validated against a characteristic-p oracle."""

from .piecewise import PiecewisePolynomial, Polynomial, as_fraction, fraction_str, \
    tent_function
from .density import PairDensity, RegularityVerdict, SymmetryClass, \
    frobenius_bracket_scale, regularity_verdict, segre, symmetry_class
from .volume import BoxSliceSpec, lattice_slice_count, parameter_density, slice_volume
from .bundle import HNData, Polarization, SyzygySpec, bundle_alpha, bundle_density, \
    syzygy_pair_density
from .trinomial import Irregular, Regular, TaxicabResult, TrinomialCurve, \
    TrinomialInvariants, TypeI, TypeII, classify, cyclic, f_threshold, fermat, \
    residue_table, taxicab_distance, taxicab_search
from . import oracle, verify

__version__ = "0.1.0"

__all__ = [
    "PiecewisePolynomial", "Polynomial", "as_fraction", "fraction_str",
    "tent_function",
    "PairDensity", "RegularityVerdict", "SymmetryClass",
    "frobenius_bracket_scale", "regularity_verdict", "segre", "symmetry_class",
    "BoxSliceSpec", "lattice_slice_count", "parameter_density", "slice_volume",
    "HNData", "Polarization", "SyzygySpec", "bundle_alpha", "bundle_density",
    "syzygy_pair_density",
    "Irregular", "Regular", "TaxicabResult", "TrinomialCurve",
    "TrinomialInvariants", "TypeI", "TypeII", "classify", "cyclic",
    "f_threshold", "fermat", "residue_table", "taxicab_distance",
    "taxicab_search",
    "oracle", "verify",
]
