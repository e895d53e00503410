"""Rectangle covers of Boolean matrices and their Kronecker products.

Importing the package imports none of its submodules.  A public name is
looked up in :data:`_EXPORTS` on first use (PEP 562), and only the
submodule that defines it is imported: ``from boolrank import kronecker``
loads ``boolmat`` and ``errors``, and neither ``cover`` nor ``crown``.
"""

from importlib import import_module

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "boolmat": ("BoolMatrix", "boolean_sum", "kronecker", "read_matrix", "write_matrix"),
    "bounds": (
        "IsolationResult", "KronLowerBound", "MuResult", "RankCertificate",
        "exact_boolean_rank", "isolation_number", "kron_lower_bound",
        "maximal_rectangles", "mu",
    ),
    "cover": (
        "Cover", "MatrixFamily", "Rectangle", "SubsetCheckResult",
        "VerifyResult", "best_triple_pairing", "check_q_covering",
        "compose_kron_cover", "cover_matrix", "read_cover", "read_family",
        "verify_cover", "verify_kron_hypotheses", "write_cover", "write_family",
    ),
    "crown": (
        "c4_triple", "c5_triple", "coverable_triple", "crown_matrix", "gap_cover",
        "gap_families", "is_L_intersection_shifting", "is_L_preserving", "sigma",
        "triple_cover",
    ),
    "algebraic": (
        "AlgebraicCoverParams", "AsymptoticCoverResult", "AsymptoticParams",
        "ZpFunctionFamily", "algebraic_family", "asymptotic_cover",
        "asymptotic_params", "largest_prime_leq",
    ),
    "spanoid": (
        "MatrixSpanoid", "ProductSpanoid", "RuleSpanoid", "Spanoid",
        "check_product_bound", "spanoid_rank",
    ),
    "errors": (),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    if name in _EXPORTS:  # the submodule itself, as ``boolrank.cover``
        return import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *__all__})
