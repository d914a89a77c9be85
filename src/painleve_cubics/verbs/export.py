"""``export``: the confluence and inclusion graphs, or the cubic catalog.

``export confluence`` and ``export inclusions`` read the catalogs only, so
they load no Laurent kernel: each function imports what it reads.
"""

from __future__ import annotations

import json

from .. import catalog
from ..catalog import G_NAMES


def confluence_dot() -> str:
    from ..confluence import arrows
    lines = ["digraph confluence {", "  rankdir=LR;"]
    for a in arrows():
        style = ' style=dashed' if a.secondary else ""
        lines.append(f'  "{a.src}" -> "{a.dst}" [label="{a.label}"{style}];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def inclusion_dot() -> str:
    from ..confluence import embeddings
    lines = ["digraph inclusions {", "  rankdir=LR;",
             '  label="arc algebra inclusions (arrows point into the bigger algebra)";']
    for e in embeddings():
        lines.append(f'  "{e.sub}" -> "{e.ambient}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_json() -> str:
    from ..confluence import arrows, embeddings
    payload = {
        "arrows": [{"src": a.src, "dst": a.dst,
                    "shift": {k: str(v) for k, v in a.shift.items()},
                    "label": a.label, "secondary": a.secondary}
                   for a in arrows()],
        "inclusions": [{"sub": e.sub, "ambient": e.ambient, "images": e.images}
                       for e in embeddings()],
    }
    return json.dumps(payload, indent=1, sort_keys=True) + "\n"


def omega_from_G(eps: tuple, ring) -> tuple:
    """The generic parameter-to-coefficient map for a given eps triple, over ``ring``."""
    G1, G2, G3, Gf = (ring.gen(n) for n in G_NAMES)
    e1, e2, e3 = eps
    return (-G1 * Gf - e1 * G2 * G3, -G2 * Gf - e2 * G1 * G3, -G3 * Gf - e3 * G1 * G2,
            e2 * e3 * G1 ** 2 + e1 * e3 * G2 ** 2 + e1 * e2 * G3 ** 2
            + Gf ** 2 + G1 * G2 * G3 * Gf - ring.const(4 * e1 * e2 * e3))


def export(fmt, what) -> int:
    if what == "confluence":
        if fmt == "dot":
            print(confluence_dot(), end="")
        elif fmt == "json":
            print(graph_json(), end="")
        else:
            from ..confluence import arrows
            for a in arrows():
                mark = " (secondary)" if a.secondary else ""
                print(f"{a.src} -> {a.dst}: {a.label}{mark}")
        return 0
    if what == "inclusions":
        print(inclusion_dot() if fmt == "dot" else graph_json(), end="")
        return 0
    if what == "catalog":
        if fmt == "dot":
            raise catalog.UnknownEntry("export catalog has no --format dot (it prints text, json)")
        from .. import cubics
        payload = {"cubics": {}}
        for t in cubics.tags():
            c = cubics.cubic(t)
            generic = omega_from_G(c.eps, c.ring)
            payload["cubics"][t] = {
                "eps": list(c.eps),
                "omega": [w.to_text() for w in c.omega],
                "omega_generic": [w.to_text() for w in generic],
                "phi": c.phi.to_text(),
                "specialized": c.phi_specialized.to_text(),
                "reference_status": c.table1_status,
                "notes": c.theta_doc,
            }
        print(json.dumps(payload, indent=1, sort_keys=True))
        return 0
    raise catalog.UnknownEntry(f"unknown export {what!r} (confluence, inclusions, catalog)")
