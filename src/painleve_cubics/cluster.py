"""Generalized mutations (Chekhov-Shapiro) and Dehn twists.

One mutation rule gives the flips of the shear coordinates (``checks.shear``)
and the cluster exchanges: its exchange matrix B is the top-level ``theta`` of
lambdas.json, and ``exchange`` gives each edge s_i its exchange polynomial
P_i(t) = c0 + c1 t + c2 t^2.  At Ginf = 2 the shift y_i = x_i - G_i turns the
cubic's braid relation into y_i y_i' = v^2 P_i(u/v), whose iterates stay
Laurent.  The braid action and the certificates are in ``checks.cluster``.
"""

from __future__ import annotations

from collections import namedtuple
from functools import reduce
from operator import add, mul

from . import catalog
from .exprs import parse_expr, parse_poly
from .ring import Ring


# -- generalized mutations -----------------------------------------------------


CLUSTER_RING = Ring(("y1", "y2", "y3", "G1", "G2", "G3"))
EDGES = catalog.SHEAR_NAMES[:3]


@catalog.cached
def exchanges() -> dict:
    """Edge index i -> (row {j: B(s_i, s_j)}, P_i's coefficients in G1..Ginf) from lambdas.json."""
    with catalog.context("lambdas.json"):
        theta = catalog.theta()
        B = {(v, u): -b for (u, v), b in theta.items()} | theta
        texts = catalog.typed(catalog.load("lambdas"), "exchange", {EDGES: [str]})
        out = {}
        for i, s in enumerate(EDGES, start=1):
            row = {v: b for (u, v), b in B.items() if u == s and b}
            if len(row) != 2 or any(b.denominator != 1 for b in row.values()):
                raise ValueError(f"theta gives {s} the neighbours {sorted(row)}, "
                                 f"not two with integer brackets")
            if len(texts.get(s, ())) != 3:
                raise ValueError(f"exchange.{s} is {list(texts[s])}, not three coefficients"
                                 if s in texts else f"exchange has no {s!r}, an edge of theta")
            coefficients = tuple(parse_poly(c, Ring(catalog.G_NAMES)) for c in texts[s])
            if all(c.is_zero() for c in coefficients):  # a mutation would divide by zero
                raise ValueError(f"exchange.{s} is {list(texts[s])}, the zero polynomial")
            out[i] = ({EDGES.index(v) + 1: int(b) for v, b in row.items()}, coefficients)
        return out


def exchange(coefficients: tuple, u, v):
    """c0 v^2 + c1 u v + c2 u^2 = v^2 P(u/v) for P's ``coefficients``; a 1 multiplies nothing."""
    terms = zip(coefficients, (v ** 2, u * v, u ** 2))
    return reduce(add, [t if c.is_one() else c * t for c, t in terms])


@catalog.cached
def cluster_coefficients(i: int) -> tuple:
    """The coefficients of P_i in ``CLUSTER_RING``: its G1..G3, and Ginf = 2."""
    return tuple(c.substitute({"Ginf": CLUSTER_RING.const(2)}) for c in exchanges()[i][1])


def exchange_polynomial(i: int, cluster: dict):
    """``exchange`` of P_i at u (v), the product of cluster[j]^|b| over the
    neighbours with B(s_i, s_j) = b > 0 (< 0); the cluster's values are over ``CLUSTER_RING``."""
    u, v = ([cluster[j] ** abs(b) for j, b in exchanges()[i][0].items() if (b > 0) is side]
            or [CLUSTER_RING.one()] for side in (True, False))
    return exchange(cluster_coefficients(i), reduce(mul, u), reduce(mul, v))


def mutate(i: int, cluster: dict) -> dict:
    """One generalized exchange: y_i -> exchange_polynomial(i, cluster)/y_i."""
    return {**cluster, i: exchange_polynomial(i, cluster) / cluster[i]}


def initial_cluster() -> dict:
    return {i: CLUSTER_RING.gen(f"y{i}") for i in (1, 2, 3)}


# -- Dehn twists ----------------------------------------------------------------


# variables:  mutating arc names, in role order
# invariants: label -> value of the parsed text
# steps:      {arc: value of the parsed text}, each applied at once
TwistCase = namedtuple("TwistCase", "variables frozen ring structure invariants steps")


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
        return TwistCase(variables=variables, ring=ring, structure=structure,
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
