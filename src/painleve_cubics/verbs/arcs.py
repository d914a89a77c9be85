"""``lambda``, ``bracket`` and ``signature``: arc catalogs and surface signatures.

``signature`` reads its catalog only, so it loads no Laurent kernel; ``lambda``
and ``bracket`` read the bracket table, so they build no Poisson structure
(``lambda --format json`` prints the shear structure, and builds it through
``checks.arcs.shear_catalog``, which refuses log brackets a subset catalog states).
"""

from __future__ import annotations

import json

from .. import arcs, catalog


def lambda_table(fmt, tag) -> int:
    cat = arcs.lambda_catalog(tag)
    if fmt == "json":
        from ..checks.arcs import shear_catalog
        print(json.dumps({
            "tag": cat.tag,
            "entries": {n: p.to_text() for n, p in cat.entries.items()},
            "entry_terms": {n: p.to_terms_json() for n, p in cat.entries.items()},
            "table": {f"{u},{v}": str(c) for (u, v), c in sorted(cat.table.items())},
            "frozen": list(cat.frozen),
            "casimirs": list(cat.casimirs),
            "leaf_dim": cat.leaf_dim,
            "cusp_indices": cat.cusp_indices,
            "shear_structure": shear_catalog(tag).shear_structure.to_json(),
        }, indent=1))
        return 0
    print(f"lambda catalog {cat.tag}")
    for name, poly in cat.entries.items():
        print(f"  {name} = {poly.to_text()}")
    print(f"  frozen: {', '.join(cat.frozen) or '-'}")
    print(f"  casimirs: {', '.join(cat.casimirs) or '-'}   leaf dimension {cat.leaf_dim}")
    return 0


def bracket(fmt, tag, first, second) -> int:
    cat = arcs.lambda_catalog(tag)
    for name in (first, second):
        if name not in cat.lambda_ring.index:
            raise catalog.UnknownEntry(f"unknown arc {name!r} in {tag}")
    table = cat.table
    coeff = table[first, second] if (first, second) in table else -table.get((second, first), 0)
    print(f"{{{first},{second}}} = {coeff} * {first} * {second}")
    return 0


def signature(fmt, tag) -> int:
    sig = arcs.signature(tag)
    katz = ",".join(str(k) for k in sig.katz())
    print(f"s={len(sig.holes)} n={sum(sig.holes)} dim={sig.dimension()} katz={katz}")
    print(f"stokes rays: {','.join(map(str, sig.row))}  "
          f"pole orders: {','.join(map(str, sig.pole_orders()))}")
    return 0
