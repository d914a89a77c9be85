"""Generalized exchange mutations and Dehn twists.

At the puncture value Ginf = 2 the shift y_i = x_i - G_i turns the braid
relation of the cubic into the generalized exchange relation
y_i y_i' = y_j^2 + y_k^2 + G_i y_j y_k, whose iterates stay Laurent.  The
braid action and the certificates are in ``checks.cluster``.
"""

from __future__ import annotations

from collections import namedtuple

from . import catalog
from .exprs import parse_expr
from .ring import Ring


# -- generalized mutations -----------------------------------------------------


CLUSTER_RING = Ring(("y1", "y2", "y3", "G1", "G2", "G3"))


def exchange_polynomial(i: int, cluster: dict):
    """y_j^2 + y_k^2 + G_i y_j y_k, with G_i from the cluster's own ring."""
    j, k = [t for t in (1, 2, 3) if t != i]
    G = cluster[i].ring.gen(f"G{i}")
    return cluster[j] ** 2 + cluster[k] ** 2 + G * cluster[j] * cluster[k]


def mutate(i: int, cluster: dict) -> dict:
    """One generalized exchange: y_i -> (y_j^2 + y_k^2 + G_i y_j y_k)/y_i."""
    new = dict(cluster)
    new[i] = exchange_polynomial(i, cluster) / cluster[i]
    return new


def initial_cluster() -> dict:
    return {i: CLUSTER_RING.gen(f"y{i}") for i in (1, 2, 3)}


# -- Dehn twists ----------------------------------------------------------------


# variables:  mutating arc names, in role order
# invariants: label -> value of the parsed text
# steps:      {arc: value of the parsed text}, each applied at once
TwistCase = namedtuple("TwistCase", "name variables frozen ring structure invariants steps")


@catalog.cached
def twist_case(name: str) -> TwistCase:
    """A case of the ``twists`` table in lambdas.json, with every name checked."""
    # brackets and arc catalogs load only for the twists, not for mutate
    from .arcs import lambda_catalog
    from .poisson import PoissonStructure
    with catalog.entry("lambdas", "twists", name) as entry:
        if "arcs" in entry:
            cat = lambda_catalog(catalog.typed(entry, "arcs", str))
            ring, structure = cat.lambda_ring, cat.structure
        else:
            ring = Ring(catalog.typed(entry, "generators", [str]))
            structure = PoissonStructure(ring, catalog.pairs(entry, "table", ring.names))
        variables = catalog.typed(entry, "variables", [ring.names])
        steps = tuple({arc: parse_expr(text, ring) for arc, text in step.items()}
                      for step in catalog.typed(entry, "steps", [{variables: str}]))
        return TwistCase(name=name, variables=variables, ring=ring, structure=structure,
                         frozen=catalog.typed(entry, "frozen", [ring.names]),
                         invariants={label: parse_expr(text, ring) for label, text
                                     in catalog.typed(entry, "invariants", {str: str}).items()},
                         steps=steps)


def dehn_twist(case: TwistCase, values: dict) -> dict:
    """One full twist; each step maps its arcs at once, from the values before it."""
    vals = dict(values)
    for step in case.steps:
        vals.update({arc: value.substitute(vals, case.ring) for arc, value in step.items()})
    return vals


def base_values(case: TwistCase) -> dict:
    return {n: case.ring.gen(n) for n in case.ring.names}
