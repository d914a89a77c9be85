"""``chart``: a shear chart of the catalog."""

from __future__ import annotations

import json

from ..shear import chart as shear_chart


def chart(fmt, tag) -> int:
    ch = shear_chart(tag)
    if fmt == "json":
        print(json.dumps({
            "tag": ch.tag,
            "x": {f"x{i+1}": x.to_text() for i, x in enumerate(ch.x)},
            "x_symbols": {f"x{i+1}": s for i, s in enumerate(ch.x_sym)},
            "G": {n: g.to_text() for n, g in ch.G.items()},
            "normalization": ch.normalization,
        }, indent=1))
        return 0
    print(f"chart {ch.tag}  ({ch.normalization})")
    for i, s in enumerate(ch.x_sym):
        print(f"  x{i+1} = {s}")
    for name, g in sorted(ch.G.items()):
        print(f"  {name} = {g.to_text()}")
    return 0
