"""Exact symbolic verification of the Painleve monodromy cubics.

Every public name is imported from its module on first use (PEP 562), so a
bare ``import painleve_cubics`` loads no submodule, and a call that needs no
bracket loads neither ``poisson`` nor ``linalg``.
"""

import importlib

__version__ = "0.1.0"

# public name -> the module that defines it
_MODULES = {
    **dict.fromkeys(("GenImage", "LaurentPoly", "RationalExpr", "Ring", "RingError",
                     "divide_exact"), "ring"),
    **dict.fromkeys(("ExprSyntaxError", "parse_expr", "parse_poly"), "exprs"),
    **dict.fromkeys(("NambuContext", "PoissonStructure", "casimir_kernel",
                     "solve_structure"), "poisson"),
    "cubic": "cubics",
    "chart": "shear",
    "lambda_catalog": "arcs",
    "signature": "arcs",
}

__all__ = [*_MODULES, "run_suite", "__version__"]


def __getattr__(name: str):
    if name in _MODULES:
        return getattr(importlib.import_module(f".{_MODULES[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def run_suite(groups=None, depth=None):
    """Run the certificate suite; returns the certificates in report order."""
    from . import verify

    return verify.run(groups, depth=depth)
