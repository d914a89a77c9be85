"""``show``: a cubic of the catalog."""

from __future__ import annotations

import json

from ..cubics import cubic


def show(fmt, tag) -> int:
    c = cubic(tag)
    if fmt == "json":
        print(json.dumps({
            "tag": c.tag,
            "eps": list(c.eps),
            "omega": [w.to_text() for w in c.omega],
            "phi": c.phi.to_text(),
            "specialized": c.phi_specialized.to_text(),
            "reference_row": c.table1,
            "reference_status": c.table1_status,
            "terms": c.phi_specialized.to_terms_json(),
        }, indent=1))
        return 0
    print(c.phi_display())
    return 0
