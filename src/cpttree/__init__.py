"""Choquet-integral portfolio objectives on finite scenario-tree markets.

The package exports its names lazily (PEP 562): ``import cpttree`` loads no
submodule, and the first read of a name imports the module that defines it.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule defining it: the one table of exports, which
# ``cli`` reads too
_EXPORTS = {
    **dict.fromkeys(
        (
            "MarcheCertificate", "NAResult", "canonical_onedim_pairs", "check_NA", "check_R",
            "marche_certificate", "unit_directions", "validate_certificate", "validate_entries",
        ),
        "arbitrage",
    ),
    **dict.fromkeys(
        (
            "DiffusionSpec", "build_discretized_diffusion", "build_iid_market",
            "build_market_from_level_pmfs", "coin_pmf", "ellipticity_violations", "emit_pmf",
            "exponentiate_prices", "parse_pmf", "uniform_quantile_pmf",
        ),
        "builders",
    ),
    **dict.fromkeys(
        (
            "AuxParams", "CPTValue", "DiscreteRV", "aux_value", "choquet_nonneg", "cpt_value",
            "derive_aux_params", "moment_tail_certificate", "tail_power_integral",
        ),
        "choquet",
    ),
    **dict.fromkeys(("CertificateError", "ValidationError"), "errors"),
    **dict.fromkeys(("POS_INF", "is_finite", "is_inf"), "extreal"),
    **dict.fromkeys(
        (
            "LadderResult", "PerturbationResult", "SearchConfig", "coin_cpt_value", "ladder",
            "optimize_pure", "optimize_randomized", "perturbation_check",
        ),
        "optimize",
    ),
    **dict.fromkeys(
        (
            "Distortion", "DistortionPair", "ParamReport", "PreferenceSpec", "UtilityPair",
            "check_conditions", "coin_model_preferences", "parse_preferences", "tk_distortion",
            "tk_pathology_threshold", "tversky_kahneman_preferences",
        ),
        "preferences",
    ),
    **dict.fromkeys(
        (
            "FiniteJoint", "SELF_TEST_SEED", "chi2_independence_pass", "conditional_uniformize",
            "ks_uniform_pass", "recombine_uniform", "reconstruct_joint", "split_bitstring",
            "split_uniform", "toolkit_self_test", "transport", "transport_breakpoints",
            "tv_distance", "uniformize",
        ),
        "randtools",
    ),
    **dict.fromkeys(
        (
            "PureStrategy", "RandomizedStrategy", "ReferenceSpec", "ScenarioTree", "emit_market",
            "parse_market", "terminal_wealth", "validate_subhedge",
        ),
        "tree",
    ),
    **dict.fromkeys(
        (
            "IllposednessReport", "ProbeResult", "ScanRow", "boundedness_probe",
            "heavy_tail_strategy", "illposed_demo", "one_step_scaling", "truncation_scan",
            "two_step_example", "two_step_uniform_market",
        ),
        "wellposed",
    ),
}

__all__ = list(_EXPORTS)


def _from_module(name: str):
    """The exported ``name`` as its defining submodule binds it now."""
    return getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = _from_module(name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
