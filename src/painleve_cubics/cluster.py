"""Generalized exchange mutations and Dehn twists.

At the puncture value Ginf = 2 the shift y_i = x_i - G_i turns the braid
relation of the cubic into the generalized exchange relation
y_i y_i' = y_j^2 + y_k^2 + G_i y_j y_k, whose iterates stay Laurent.  The
braid action and the certificates are in ``checks.cluster``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from . import catalog
from .exprs import parse_expr
from .ring import RationalExpr, Ring, RingError, as_expr

if TYPE_CHECKING:  # twist_case imports poisson; mutate never loads it
    from .poisson import PoissonStructure


# -- generalized mutations -----------------------------------------------------


def cluster_ring() -> Ring:
    return Ring(("y1", "y2", "y3", "G1", "G2", "G3"))


def exchange_polynomial(i: int, cluster: dict, ring: Ring) -> RationalExpr:
    j, k = [t for t in (1, 2, 3) if t != i]
    G = as_expr(ring.gen(f"G{i}"))
    return cluster[j] ** 2 + cluster[k] ** 2 + G * cluster[j] * cluster[k]


def mutate(i: int, cluster: dict, ring: Ring | None = None) -> dict:
    """One generalized exchange: y_i -> (y_j^2 + y_k^2 + G_i y_j y_k)/y_i."""
    ring = ring or cluster_ring()
    if cluster[i].is_zero():
        raise RingError("cannot mutate a vanishing cluster variable")
    new = dict(cluster)
    new[i] = exchange_polynomial(i, cluster, ring) / cluster[i]
    return new


def initial_cluster(ring: Ring | None = None) -> dict:
    ring = ring or cluster_ring()
    return {i: as_expr(ring.gen(f"y{i}")) for i in (1, 2, 3)}


# -- Dehn twists ----------------------------------------------------------------


class TwistCase(NamedTuple):
    name: str
    variables: tuple      # mutating arc names, in role order
    frozen: tuple
    ring: Ring
    structure: PoissonStructure
    invariants: dict      # label -> RationalExpr
    steps: tuple          # {arc: expression}, each applied at once


@catalog.cached
def twist_case(name: str) -> TwistCase:
    """A case of the ``twists`` table in lambdas.json, with every name checked."""
    # brackets and arc catalogs load only for the twists, not for mutate
    from .arcs import lambda_catalog
    from .poisson import PoissonStructure
    with catalog.entry("lambdas", "twists", name) as entry:
        if "arcs" in entry:
            cat = lambda_catalog(entry["arcs"])
            ring, structure = cat.lambda_ring, cat.structure
        else:
            ring = Ring(tuple(entry["generators"]))
            structure = PoissonStructure(ring, catalog.pairs(entry, "table", ring.names))
        variables = catalog.typed(entry, "variables", [ring.names])
        steps = catalog.typed(entry, "steps", [{variables: str}])
        for step in steps:
            for text in step.values():
                parse_expr(text, ring)
        return TwistCase(name=name, variables=variables, ring=ring, structure=structure,
                         frozen=catalog.typed(entry, "frozen", [ring.names]),
                         invariants={label: parse_expr(text, ring)
                                     for label, text in entry["invariants"].items()},
                         steps=steps)


def dehn_twist(case: TwistCase, values: dict) -> dict:
    """One full twist; each step maps its arcs at once, from the values before it."""
    vals = dict(values)
    for step in case.steps:
        vals.update({arc: parse_expr(text, case.ring, symbols=vals) for arc, text in step.items()})
    return vals


def base_values(case: TwistCase) -> dict:
    return {n: as_expr(case.ring.gen(n)) for n in case.ring.names}
