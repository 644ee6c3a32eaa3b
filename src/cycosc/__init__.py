"""Cyclic-group extended oscillator algebras on truncated Fock representations.

The package builds the ladder, number and projector operators, the partner
Hamiltonians and the super-, para-, pseudo- and orthosupersymmetric charges as
weighted shifts (BandOp: coefficient vectors at fixed diagonal offsets, in
np.int64 for the integer operators, float64, or complex128 where a phase
enters; the parasupercharge alone is built in np.longdouble, and one
pseudosupersymmetric relation is evaluated in it), checks their defining
relations band by band, and computes and classifies oscillator
spectra.  Dense matrices are made only for dumps.

Names are exported lazily: `cycosc.X` imports the module defining X on first
use, so parameters, spectra and sweeps load no numpy and no operator module.
"""

import importlib

_EXPORTS = {
    "algebra": (
        "AlgebraParams", "DerivedConstants", "DomainError", "FockValidation",
        "InvalidParamsError", "KappaParams", "SymmetryError", "alpha_from_kappa",
        "cyclic_shift", "derived_constants", "kappa_from_alpha", "new_params",
        "params_from_dict", "params_to_dict", "structure_function", "structure_table",
        "structure_values", "validate_fock",
    ),
    "fock": (
        "BandOp", "RelationEntry", "RelationReport", "TruncatedRep",
        "build_rep", "check_relations", "h0", "klein_reduction_check", "rep_to_dict",
    ),
    "shape_invariance": (
        "Hierarchy", "build_hierarchy", "partner_check", "sqm2_check", "window_violations",
    ),
    "spectrum": (
        "DegeneracyReport", "SpectrumLine", "SweepRecord",
        "analytic_spectrum", "classify_degeneracy", "sweep",
    ),
    "variants": (
        "GroundState", "VariantSolution", "equal_spacing_r", "ground_state_analysis",
        "ossqm_build", "ossqm_check", "pseudo_check", "pseudo_family1_build",
        "pseudo_family2_build", "pssqm_build", "pssqm_check", "pssqm_cubic_check",
        "pssqm_r_constant", "variant_to_dict",
    ),
}
# Exported name -> defining module.
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    # Looked up on the defining module at every access, never cached here, so a
    # wrapper bound on that module is what `cycosc.X` returns.
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)
