"""Arc catalogs and surface signatures.

The catalogs record each surface's arcs as monomials (or short sums) in
exponentiated shear coordinates, the pairwise bracket table, and the
frozen arcs cutting out the monodromy manifold.  A catalog's shear-level
log brackets are the shared theta bracket plus one graft per cusp pair
({s,k} = 1, {s,k'} = -1, {k,k'} = 1 on the edge s), unless it states them;
the shear generators they leave unnamed carry the loop parameters.  The SL2 word traces and
the combinatorial cusp bracket that certify them are in ``checks.arcs``.
Only ``lambda_catalog`` needs the Laurent kernel, and it imports it, so a
signature is read without it.  A catalog's Poisson structures are built on
first use of ``structure`` or ``shear_structure`` (``_structures`` imports
``poisson``), so reading a catalog compiles no bracket code; ``catalog.pairs``
has already checked every table they are built from.
"""

from __future__ import annotations

from fractions import Fraction
from collections import namedtuple
from typing import TYPE_CHECKING

from . import catalog

if TYPE_CHECKING:
    from .poisson import PoissonStructure


# -- lambda catalogs -----------------------------------------------------------


# entries:       name -> LaurentPoly in shear coordinates
# table:         (u, v) -> Fraction: {u, v} = table[u, v] u v
# params:        central parameter symbols (loop lengths)
# lambda_ring:   arcs + params as direct generators
# text over lambda_ring, parsed by ``checks.arcs.commutant_check`` and ``casimir_check``:
# identifications: cubic parameter symbol -> text
# casimirs:      monomials, e.g. "a*b^-1*h^2"
# xexprs:        x-name -> text
# central_shear: shear generators no log bracket names: one per parameter
# cusp_indices:  arc -> ((hole, order), (hole, order))
# signature:     signatures.json entry of the surface
class LambdaCatalog(namedtuple("LambdaCatalog", "tag shear_ring entries table params lambda_ring "
                               "frozen identifications casimirs leaf_dim xexprs stated_log_brackets "
                               "solved_log_brackets central_shear cusp_indices signature")):
    __slots__ = ()

    def table_between(self, names) -> dict:
        """The entries of the bracket table between two of ``names``."""
        return {(u, v): c for (u, v), c in self.table.items() if u in names and v in names}

    @property
    def structure(self) -> PoissonStructure:
        """The log-canonical structure ``table`` states on ``lambda_ring``."""
        return _structures(self.tag)[0]

    @property
    def shear_structure(self) -> PoissonStructure | None:
        """The structure the log brackets state on ``shear_ring`` (a subset
        catalog's is its parent's), or None when the catalog states none."""
        return _structures(self.tag)[1]


@catalog.cached
def lambda_catalog(tag: str) -> LambdaCatalog:
    from .exprs import parse_poly
    from .ring import Ring
    with catalog.entry("lambdas", "catalogs", tag) as entry:
        if "subset_of" in entry:
            parent = lambda_catalog(catalog.typed(entry, "subset_of", str))
            names = catalog.typed(entry, "subset", [parent.entries.keys()])
            sring, params = parent.shear_ring, ()
            entries = {n: parent.entries[n] for n in names}
            table = parent.table_between(names)
            frozen = tuple(n for n in parent.frozen if n in names)
        else:
            sring = Ring(catalog.typed(entry, "shear_generators", [str]))
            texts = catalog.typed(entry, "entries", {str: str})
            entries = {n: parse_poly(s, sring) for n, s in texts.items()}
            if "table" in entry:
                table = catalog.pairs(entry, "table", tuple(entries))
            else:
                with catalog.entry("lambdas", "catalogs",
                                   catalog.typed(entry, "table_ref", str)) as ref:
                    table = catalog.pairs(ref, "table", tuple(entries))
            params = catalog.typed(entry, "params", [catalog.G_NAMES], ())
            frozen = catalog.typed(entry, "frozen", [entries.keys()], ())
        stated, solved = (catalog.pairs(entry, field, sring.names, {})
                          for field in ("stated_log_brackets", "solved_log_brackets"))
        if "grafts" in entry:
            with catalog.context("lambdas.json"):
                solved = catalog.pairs(catalog.load("lambdas"), "theta", sring.names)
            for s, pair in catalog.typed(entry, "grafts", {sring.names: [sring.names]}).items():
                if len(pair) != 2:
                    raise ValueError(f"grafts.{s} is {list(pair)}, not a cusp pair")
                solved |= {(s, pair[0]): 1, (s, pair[1]): -1, pair: 1}
        log = solved or stated
        central_shear = tuple(z for z in sring.names if log and not any(z in uv for uv in log))
        if len(central_shear) != len(params):
            raise ValueError(f"central shear is {list(central_shear)}, not one per parameter of "
                             f"{list(params)}")
        lring = Ring(tuple(entries) + params)
        cusps = catalog.typed(entry, "cusp_indices", {tuple(entries): [[int]]}, {})
        if any(len(pair) != 2 for pairs in cusps.values() for pair in (pairs, *pairs)):
            raise ValueError(f"cusp_indices is {entry['cusp_indices']!r}, "
                             f"not two (hole, order) pairs per arc")
        xexprs = catalog.typed(entry, "xexprs", {catalog.X_NAMES: str}, {})
        if "identifications" in entry and not xexprs:
            raise ValueError(f"identifications is {entry['identifications']!r}, "
                             f"not allowed without xexprs")
        return LambdaCatalog(
            tag=tag, shear_ring=sring, entries=entries, table=table, params=params,
            lambda_ring=lring, frozen=frozen,
            identifications=catalog.typed(entry, "identifications", {catalog.G_NAMES: str}, {}),
            casimirs=catalog.typed(entry, "casimirs", [str], ()),
            leaf_dim=catalog.typed(entry, "leaf_dim", int, 0),
            xexprs=xexprs,
            stated_log_brackets=stated, solved_log_brackets=solved,
            central_shear=central_shear,
            cusp_indices=cusps,
            signature=catalog.typed(entry, "signature", str, tag))


@catalog.cached
def _structures(tag: str) -> tuple:
    """(structure, shear_structure) of arc catalog ``tag``, built once."""
    from .poisson import PoissonStructure
    cat = lambda_catalog(tag)
    with catalog.entry("lambdas", "catalogs", tag) as entry:
        if "subset_of" in entry:
            shear = _structures(entry["subset_of"])[1]
        else:
            log = cat.solved_log_brackets or cat.stated_log_brackets
            shear = PoissonStructure.from_log_brackets(cat.shear_ring, log) if log else None
        return PoissonStructure(cat.lambda_ring, cat.table), shear


# -- signatures (irregularity bookkeeping) ------------------------------------


# holes: cusps per hole of the actual (genus 0) surface
class Signature(namedtuple("Signature", "tag holes stated_dim phantom_hole")):
    __slots__ = ()

    @property
    def row(self) -> tuple:
        """The classical per-singular-point cusp tuple: the holes, after a
        phantom uncusped point when the surface has one."""
        return (0,) * self.phantom_hole + self.holes

    def dimension(self) -> int:
        return 3 * len(self.holes) + 2 * sum(self.holes) - 6

    def katz(self) -> tuple:
        return tuple(Fraction(c, 2) for c in self.row)

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
