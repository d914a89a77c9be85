"""The unfolding cases of unfoldings.json and the corank-3 parameter table.

Their change-of-variable certificates onto singularity normal forms are in
``checks.unfolding``.
"""

from __future__ import annotations

from . import catalog
from .cubics import W_RING
from .exprs import parse_poly


def hat_param_table(key: str = "d4") -> dict:
    """The hat parameters of entry ``key`` (by default the corank-3 entry d4)."""
    with catalog.entry("unfoldings", key) as entry:
        return {name: parse_poly(text, W_RING)
                for name, text in catalog.typed(entry, "hat_params", {str: str}).items()}


def cases() -> dict:
    """The unfolding entries of unfoldings.json, by key: every entry but ``comment``."""
    return {key: catalog.section("unfoldings", key)
            for key in catalog.section("unfoldings") if key != "comment"}
