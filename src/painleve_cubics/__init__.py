"""Exact symbolic verification of the Painleve monodromy cubics."""

from .ring import GenImage, LaurentPoly, RationalExpr, Ring, RingError, divide_exact
from .exprs import ExprSyntaxError, parse_expr, parse_poly

__version__ = "0.1.0"

__all__ = [
    "GenImage",
    "LaurentPoly",
    "RationalExpr",
    "Ring",
    "RingError",
    "divide_exact",
    "ExprSyntaxError",
    "parse_expr",
    "parse_poly",
    "NambuContext",
    "PoissonStructure",
    "casimir_kernel",
    "solve_structure",
    "cubic",
    "chart",
    "lambda_catalog",
    "signature",
    "run_suite",
    "__version__",
]


_POISSON = ("NambuContext", "PoissonStructure", "casimir_kernel", "solve_structure")


def __getattr__(name: str):
    """The Poisson names, imported on first use (PEP 562), so that a call that
    needs no bracket loads neither ``poisson`` nor ``linalg``."""
    if name in _POISSON:
        from . import poisson

        return getattr(poisson, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def cubic(tag: str):
    """Catalog cubic for ``tag`` (lazy import keeps the kernel standalone)."""
    from .cubics import cubic as _cubic

    return _cubic(tag)


def chart(tag: str):
    """Shear chart for ``tag``."""
    from .shear import chart as _chart

    return _chart(tag)


def lambda_catalog(tag: str):
    """Arc catalog for ``tag``."""
    from .arcs import lambda_catalog as _cat

    return _cat(tag)


def signature(tag: str):
    """Surface signature for ``tag``."""
    from .arcs import signature as _sig

    return _sig(tag)


def run_suite(groups=None, depth=None):
    """Run the certificate suite; returns the certificates in report order."""
    from . import verify

    return verify.run(groups, depth=depth)
