"""Exact arithmetic for hyperalgebras of current and loop algebras."""
from __future__ import annotations

from .scalars import (
    NotPIntegralError,
    RowSpace,
    reduce_mod_p,
)
from .coeffalg import TRIVIAL, CoeffAlgebra
from .rootdata import RootDatum, build_root_datum, parse_type_string
from .oracle import Oracle, OracleElt, get_oracle
from .hyper import (
    IDENTITY_IDS,
    NotInZFormError,
    cartan_binom,
    collect,
    format_hyper,
    format_monomial,
    hyper_to_json,
    lambda_gen,
    lambda_poly,
    lambda_poly_root,
    lambda_power_reduction,
    lower_dp,
    raise_dp,
    straighten,
    verify_identity,
)
from .weyl import (
    EvalData,
    Window,
    WeylModuleResult,
    character_check,
    default_window,
    evaluation_table,
    relation_closure,
    result_to_json,
    spanning_set,
    weyl_module_g,
)

__all__ = [
    "NotPIntegralError",
    "RowSpace",
    "reduce_mod_p",
    "TRIVIAL",
    "CoeffAlgebra",
    "RootDatum",
    "build_root_datum",
    "parse_type_string",
    "Oracle",
    "OracleElt",
    "get_oracle",
    "IDENTITY_IDS",
    "NotInZFormError",
    "cartan_binom",
    "collect",
    "format_hyper",
    "format_monomial",
    "hyper_to_json",
    "lambda_gen",
    "lambda_poly",
    "lambda_poly_root",
    "lambda_power_reduction",
    "lower_dp",
    "raise_dp",
    "straighten",
    "verify_identity",
    "EvalData",
    "Window",
    "WeylModuleResult",
    "character_check",
    "default_window",
    "evaluation_table",
    "relation_closure",
    "result_to_json",
    "spanning_set",
    "weyl_module_g",
]
