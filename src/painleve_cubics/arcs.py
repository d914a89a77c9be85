"""Arc catalogs and surface signatures.

The catalogs record each surface's arcs as monomials (or short sums) in
exponentiated shear coordinates, the pairwise bracket table, and the
frozen arcs cutting out the monodromy manifold.  ``lambda_catalog`` is the
one place that decides a catalog's shear-level log brackets: the shared
theta bracket (``catalog.theta``) plus one graft per cusp pair ({s,k} = 1,
{s,k'} = -1, {k,k'} = 1 on the edge s), else its ``solved_log_brackets``,
else its ``stated_log_brackets``; a subset catalog takes its parent's, and a
catalog the rule gives none is refused.  The shear generators they leave
unnamed carry the loop parameters.  The SL2 word traces and the
combinatorial cusp bracket that certify them are in ``checks.arcs``.
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


class LambdaCatalog(namedtuple("LambdaCatalog", "tag shear_ring entries table params lambda_ring "
                               "frozen casimirs leaf_dim stated_log_brackets log_brackets "
                               "central_shear cusp_indices subset_of")):
    """entries: name -> LaurentPoly in shear coordinates; table: (u, v) -> Fraction,
    {u, v} = table[u, v] u v; params: central parameter symbols (loop lengths);
    lambda_ring: arcs + params as direct generators; casimirs: monomials over
    lambda_ring as text, e.g. "a*b^-1*h^2", parsed by ``checks.arcs.casimir_check``;
    stated_log_brackets: the quoted coordinate brackets; log_brackets: the shear-level
    log brackets ``lambda_catalog`` picks; central_shear: shear generators no log bracket
    names, one per parameter; cusp_indices: arc -> ((hole, order), (hole, order));
    subset_of: a subset catalog's parent, else None."""
    __slots__ = ()

    def table_between(self, names) -> dict:
        """The entries of the bracket table between two of ``names``."""
        return {(u, v): c for (u, v), c in self.table.items() if u in names and v in names}

    @property
    def structure(self) -> PoissonStructure:
        """The log-canonical structure ``table`` states on ``lambda_ring``."""
        return _structures(self.tag)[0]

    @property
    def shear_structure(self) -> PoissonStructure:
        """The structure that ``log_brackets``, the shear-level log brackets
        ``lambda_catalog`` picks, states on ``shear_ring``; a subset catalog
        shares its parent's (``subset_of``)."""
        return _structures(self.tag)[1]


@catalog.cached
def lambda_catalog(tag: str) -> LambdaCatalog:
    from .exprs import parse_poly
    from .ring import Ring
    with catalog.entry("lambdas", "catalogs", tag) as entry:
        subset_of, stated = None, {}
        if "subset_of" in entry:
            subset_of = catalog.typed(entry, "subset_of", str)
            with catalog.entry("lambdas", "catalogs", subset_of) as ref:
                nested = "subset_of" in ref  # a cycle would recurse without end
            if nested:
                raise ValueError(f"subset_of is {subset_of!r}, itself a subset catalog")
            parent = lambda_catalog(subset_of)
            names = catalog.typed(entry, "subset", [parent.entries.keys()])
            sring, params, log, central_shear = parent.shear_ring, (), parent.log_brackets, ()
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
            log = dict(catalog.theta()) if "grafts" in entry else solved or stated
            for s, pair in catalog.typed(entry, "grafts", {sring.names: [sring.names]}, {}).items():
                if len(pair) != 2:
                    raise ValueError(f"grafts.{s} is {list(pair)}, not a cusp pair")
                log |= {(s, pair[0]): 1, (s, pair[1]): -1, pair: 1}
            if not log:
                raise ValueError("no grafts, solved_log_brackets or stated_log_brackets")
            central_shear = tuple(z for z in sring.names if not any(z in uv for uv in log))
            if len(central_shear) != len(params):
                raise ValueError(f"central shear is {list(central_shear)}, not one per parameter "
                                 f"of {list(params)}")
        lring = Ring(tuple(entries) + params)
        cusps = catalog.typed(entry, "cusp_indices", {tuple(entries): [[int]]}, {})
        if any(len(pair) != 2 for pairs in cusps.values() for pair in (pairs, *pairs)):
            raise ValueError(f"cusp_indices is {entry['cusp_indices']!r}, "
                             f"not two (hole, order) pairs per arc")
        return LambdaCatalog(
            tag=tag, shear_ring=sring, entries=entries, table=table, params=params,
            lambda_ring=lring, frozen=frozen,
            casimirs=catalog.typed(entry, "casimirs", [str], ()),
            leaf_dim=catalog.typed(entry, "leaf_dim", int, 0),
            stated_log_brackets=stated, log_brackets=log,
            central_shear=central_shear, cusp_indices=cusps, subset_of=subset_of)


@catalog.cached
def _structures(tag: str) -> tuple:
    """(structure, shear_structure) of arc catalog ``tag``, built once; a subset's is its parent's."""
    from .poisson import PoissonStructure
    cat = lambda_catalog(tag)
    return (PoissonStructure(cat.lambda_ring, cat.table),
            _structures(cat.subset_of)[1] if cat.subset_of else
            PoissonStructure.from_log_brackets(cat.shear_ring, cat.log_brackets))


# -- signatures (irregularity bookkeeping) ------------------------------------


# holes: cusps per hole of the actual (genus 0) surface
class Signature(namedtuple("Signature", "tag holes phantom_hole")):
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
        return Signature(tag, holes, catalog.typed(entry, "phantom_hole", bool, False))
