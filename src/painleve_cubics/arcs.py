"""Arc catalogs and surface signatures.

The catalogs record each surface's arcs as monomials (or short sums) in
exponentiated shear coordinates, the pairwise bracket table, and the
frozen arcs cutting out the monodromy manifold.  The SL2 word traces and
the combinatorial cusp bracket that certify them are in ``checks.arcs``.
Only ``lambda_catalog`` needs the Laurent kernel, and it imports it, so a
signature is read without it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple

from . import catalog

if TYPE_CHECKING:
    from .poisson import PoissonStructure
    from .ring import Ring


# -- lambda catalogs -----------------------------------------------------------


class LambdaCatalog(NamedTuple):
    tag: str
    shear_ring: Ring
    entries: dict                 # name -> LaurentPoly in shear coordinates
    table: dict                   # (u, v) -> Fraction
    params: tuple                 # central parameter symbols (loop lengths)
    lambda_ring: Ring             # arcs + params as direct generators
    structure: PoissonStructure   # log-canonical structure on lambda_ring
    shear_structure: "PoissonStructure | None"
    frozen: tuple
    identifications: dict         # cubic parameter symbol -> RationalExpr over lambda_ring
    casimirs: tuple               # the catalog strings, e.g. "a*b^-1*h^2"
    casimir_exps: tuple           # the same as {name: exponent} maps
    leaf_dim: int
    xexprs: dict                  # x-name -> RationalExpr over lambda_ring
    stated_log_brackets: dict
    solved_log_brackets: dict
    central_shear: tuple          # shear generators carrying the loop parameters
    cusp_indices: dict            # arc -> ((hole, order), (hole, order))
    signature: str                # signatures.json entry of the surface

    def table_between(self, names) -> dict:
        """The entries of the bracket table between two of ``names``."""
        return {(u, v): c for (u, v), c in self.table.items() if u in names and v in names}


@catalog.cached
def lambda_catalog(tag: str) -> LambdaCatalog:
    from .exprs import parse_expr, parse_poly
    from .poisson import PoissonStructure
    from .ring import Ring
    with catalog.entry("lambdas", "catalogs", tag) as entry:
        if "subset_of" in entry:
            parent = lambda_catalog(entry["subset_of"])
            names = tuple(entry["subset"])
            sring, shear_structure, params = parent.shear_ring, parent.shear_structure, ()
            entries = {n: parent.entries[n] for n in names}
            table = parent.table_between(names)
            frozen = tuple(n for n in parent.frozen if n in names)
        else:
            sring = Ring(tuple(entry["shear_generators"]))
            entries = {n: parse_poly(s, sring) for n, s in entry["entries"].items()}
            if "table" in entry:
                table = catalog.pairs(entry, "table", tuple(entries))
            else:
                with catalog.entry("lambdas", "catalogs", entry["table_ref"]) as ref:
                    table = catalog.pairs(ref, "table", tuple(entries))
            params = tuple(entry.get("params", ()))
            frozen = catalog.typed(entry, "frozen", [entries.keys()], ())
        stated, solved = (catalog.pairs(entry, field, sring.names, {})
                          for field in ("stated_log_brackets", "solved_log_brackets"))
        if "subset_of" not in entry:
            log = solved or stated
            shear_structure = PoissonStructure.from_log_brackets(sring, log) if log else None
        central_shear = catalog.typed(entry, "central_shear", [sring.names], ())
        if len(central_shear) != len(params):
            raise ValueError(f"central_shear is {list(central_shear)}, not one per parameter")
        lring = Ring(tuple(entries) + params)
        xs = catalog.typed(entry, "xexprs", {catalog.X_NAMES: str}, {})
        cusps = catalog.typed(entry, "cusp_indices", {tuple(entries): [[int]]}, {})
        if any(len(pair) != 2 for pairs in cusps.values() for pair in (pairs, *pairs)):
            raise ValueError(f"cusp_indices is {entry['cusp_indices']!r}, "
                             f"not two (hole, order) pairs per arc")
        return LambdaCatalog(
            tag=tag, shear_ring=sring, entries=entries, table=table, params=params,
            lambda_ring=lring, structure=PoissonStructure(lring, table),
            shear_structure=shear_structure, frozen=frozen,
            identifications={g: parse_expr(s, lring) for g, s in
                             catalog.typed(entry, "identifications", {catalog.G_NAMES: str}, {}).items()},
            casimirs=tuple(entry.get("casimirs", ())),
            casimir_exps=tuple(dict(zip(lring.names, parse_poly(text, lring).monomial_exps()))
                               for text in entry.get("casimirs", ())),
            leaf_dim=catalog.typed(entry, "leaf_dim", int, 0),
            xexprs={n: parse_expr(xs[n], lring) for n in catalog.X_NAMES} if xs else {},
            stated_log_brackets=stated, solved_log_brackets=solved,
            central_shear=central_shear,
            cusp_indices=cusps,
            signature=catalog.typed(entry, "signature", str, tag))


# -- signatures (irregularity bookkeeping) ------------------------------------


class Signature(NamedTuple):
    tag: str
    holes: tuple       # cusps per hole of the actual (genus 0) surface
    stated_dim: int
    phantom_hole: bool

    @property
    def row(self) -> tuple:
        """The classical per-singular-point cusp tuple: the holes, after a
        phantom uncusped point when the surface has one."""
        return (0,) * self.phantom_hole + self.holes

    def dimension(self) -> int:
        return 3 * len(self.holes) + 2 * sum(self.holes) - 6

    def katz(self) -> tuple:
        return tuple(Fraction(c, 2) for c in self.row)

    def stokes_rays(self) -> tuple:
        return tuple(self.row)

    def pole_orders(self) -> tuple:
        return tuple(c + 2 for c in self.row)


@catalog.cached
def signature(tag: str) -> Signature:
    with catalog.entry("signatures", "signatures", tag) as entry:
        holes = catalog.typed(entry, "holes", [int])
        if min(holes, default=0) < 0:
            raise ValueError(f"holes is {entry['holes']!r}, not counts of cusps")
        return Signature(tag=tag, holes=holes, stated_dim=catalog.typed(entry, "dim", int),
                         phantom_hole=catalog.typed(entry, "phantom_hole", bool, False))
