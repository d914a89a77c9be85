"""Command-line front end.

Exit codes: 0 all requested certificates pass, 1 at least one fails,
2 unusable input (unknown verbs/tags, unreadable or malformed catalogs,
a depth below 1), 141 the reader closed stdout before the output ended.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import json
import os
import sys

from . import catalog, verify
from .exprs import ExprSyntaxError
from .ring import RingError

# Atexit handlers run before the interpreter's final garbage collections, so
# freezing here moves every object still alive into the permanent generation:
# those collections have nothing left to traverse, and the memory goes back
# to the OS with the process.  Streams are still flushed and other atexit
# handlers still run.  Registered once, at import: ``main`` may run many times.
atexit.register(gc.freeze)


def _emit_certs(certs: list, fmt: str) -> int:
    if fmt == "json":
        print(json.dumps([c.to_json() for c in certs], indent=1, sort_keys=True))
    else:
        for line in verify.report_lines(certs):
            print(line)
    return 0 if all(c.passed for c in certs) else 1


def _emit_suite(args, groups) -> int:
    if args.depth is not None and args.depth < 1:
        print(f"error: --depth must be at least 1, got {args.depth}", file=sys.stderr)
        return 2
    return _emit_certs(verify.run(groups, depth=args.depth), args.format)


def _cmd_verify_all(args) -> int:
    return _emit_suite(args, None)


def _cmd_verify(args) -> int:
    return _emit_suite(args, [args.group])


def _cmd_show(args) -> int:
    from . import cubics
    c = cubics.cubic(args.tag)
    if args.format == "json":
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


def _cmd_chart(args) -> int:
    from . import shear
    ch = shear.chart(args.tag)
    if args.format == "json":
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


def _cmd_lambda(args) -> int:
    from . import arcs
    cat = arcs.lambda_catalog(args.tag)
    if args.format == "json":
        print(json.dumps({
            "tag": cat.tag,
            "entries": {n: p.to_text() for n, p in cat.entries.items()},
            "entry_terms": {n: p.to_terms_json() for n, p in cat.entries.items()},
            "table": {f"{u},{v}": str(c) for (u, v), c in sorted(cat.table.items())},
            "frozen": list(cat.frozen),
            "casimirs": list(cat.casimirs),
            "leaf_dim": cat.leaf_dim,
            "cusp_indices": cat.cusp_indices,
            "shear_structure": cat.shear_structure.to_json() if cat.shear_structure else None,
        }, indent=1))
        return 0
    print(f"lambda catalog {cat.tag}")
    for name, poly in cat.entries.items():
        print(f"  {name} = {poly.to_text()}")
    print(f"  frozen: {', '.join(cat.frozen) or '-'}")
    print(f"  casimirs: {', '.join(cat.casimirs) or '-'}   leaf dimension {cat.leaf_dim}")
    return 0


def _cmd_bracket(args) -> int:
    from . import arcs
    cat = arcs.lambda_catalog(args.tag)
    ring = cat.lambda_ring
    for name in (args.first, args.second):
        if name not in ring.index:
            raise catalog.UnknownEntry(f"unknown arc {name!r} in {args.tag}")
    coeff = cat.structure.pair(args.first, args.second)
    print(f"{{{args.first},{args.second}}} = {coeff} * {args.first} * {args.second}")
    return 0


def _cmd_confluence(args) -> int:
    from . import confluence
    from .checks import confluence as confluence_checks
    a = confluence.arrow(args.src, args.dst)
    degrees, leads = confluence.limit_chart_coords(a)
    cert = confluence_checks.limit_certificate(a, degrees, leads)
    print(f"substitution: {a.label}")
    print(f"leading eps-degrees: {', '.join(str(d) for d in degrees)}")
    print(cert.line())
    return 0 if cert.passed else 1


def _cmd_mutate(args) -> int:
    from . import cluster, cubics
    cubics.cubic(args.tag)  # the lookup: an unknown tag exits 2
    word = []
    for ch in args.sequence.replace(",", ""):
        if ch not in "123":
            raise catalog.UnknownEntry(f"bad mutation index {ch!r} (use 1, 2, 3)")
        word.append(int(ch))
    ring = cluster.cluster_ring()
    cl = cluster.initial_cluster(ring)
    print("start: " + ", ".join(f"y{i} = {cl[i]}" for i in (1, 2, 3)))
    for step, i in enumerate(word, start=1):
        cl = cluster.mutate(i, cl, ring)
        print(f"after mutation {i} (step {step}):")
        for t in (1, 2, 3):
            print(f"  y{t} = {cl[t]}")
    laurent = all(cl[t].is_poly() for t in (1, 2, 3))
    print(f"laurent: {'yes' if laurent else 'NO'}")
    return 0 if laurent else 1


def _cmd_twist(args) -> int:
    from . import cluster
    from .checks import cluster as cluster_checks
    case = cluster.twist_case(args.case)
    vals = cluster.base_values(case)
    for n in range(args.repeat):
        vals = cluster.dehn_twist(case, vals)
    for name in case.variables:
        print(f"{name} -> {vals[name]}")
    certs = [cluster_checks.twist_invariants(args.case),
             cluster_checks.twist_frozen_commutation(args.case)]
    for c in certs:
        print(c.line())
    return 0 if all(c.passed for c in certs) else 1


def _cmd_unfold(args) -> int:
    from . import unfolding
    from .checks import unfolding as unfolding_checks
    keys = {entry["tag"]: key for key, entry in unfolding.cases().items()}
    if args.tag not in keys:
        raise catalog.UnknownEntry(f"no unfolding case for {args.tag!r} (have {sorted(keys)})")
    entry = unfolding.cases()[keys[args.tag]]
    if args.format != "json":
        for field in ("substitution", "diffeo"):
            if field in entry:
                for name, text in entry[field].items():
                    print(f"  {name} -> {text}")
        if "relation_lhs" in entry:
            print(f"  relation: {entry['relation_lhs']} = {entry['relation_rhs']}")
        if "target" in entry:
            print(f"  reduced form: {entry['target']}")
        if "hat_params" in entry:
            for name, text in entry["hat_params"].items():
                print(f"  {name} = {text}")
    certs = [fn(*fargs) for fn, fargs in unfolding_checks.checks(keys[args.tag])]
    return _emit_certs(certs, args.format)


def _cmd_signature(args) -> int:
    from . import arcs
    sig = arcs.signature(args.tag)
    katz = ",".join(str(k) for k in sig.katz())
    print(f"s={len(sig.holes)} n={sum(sig.holes)} dim={sig.dimension()} katz={katz}")
    print(f"stokes rays: {','.join(map(str, sig.stokes_rays()))}  "
          f"pole orders: {','.join(map(str, sig.pole_orders()))}")
    return 0


def _cmd_export(args) -> int:
    if args.what == "confluence":
        from . import confluence
        if args.format == "dot":
            print(confluence.confluence_dot(), end="")
        elif args.format == "json":
            print(confluence.graph_json(), end="")
        else:
            for a in confluence.arrows():
                mark = " (secondary)" if a.secondary else ""
                print(f"{a.src} -> {a.dst}: {a.label}{mark}")
        return 0
    if args.what == "inclusions":
        from . import confluence
        if args.format == "dot":
            print(confluence.inclusion_dot(), end="")
        else:
            print(confluence.graph_json(), end="")
        return 0
    if args.what == "catalog":
        from . import cubics
        payload = {"cubics": {}}
        for t in cubics.tags():
            c = cubics.cubic(t)
            generic = cubics.omega_from_G(c.eps, c.ring)
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
    raise catalog.UnknownEntry(f"unknown export {args.what!r} (confluence, inclusions, catalog)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="painleve-cubics",
        description="Exact verification of the monodromy cubic catalog")
    parser.add_argument("--format", choices=("text", "json", "dot"), default="text")
    parser.add_argument("--catalog", default=None,
                        help="directory of catalog JSON files overriding the built-in ones")
    sub = parser.add_subparsers(dest="verb", required=True)
    depth = argparse.ArgumentParser(add_help=False)
    depth.add_argument("--depth", type=int, default=None,
                       help="mutation search depth for the Laurent certificate (default 4)")

    sub.add_parser("verify-all", parents=[depth],
                   help="run every certificate").set_defaults(fn=_cmd_verify_all)
    p = sub.add_parser("verify", parents=[depth], help="run one certificate group")
    p.add_argument("group", choices=verify.GROUPS)
    p.set_defaults(fn=_cmd_verify)
    p = sub.add_parser("show", help="print a cubic")
    p.add_argument("tag")
    p.set_defaults(fn=_cmd_show)
    p = sub.add_parser("chart", help="print a shear chart")
    p.add_argument("tag")
    p.set_defaults(fn=_cmd_chart)
    p = sub.add_parser("lambda", help="print an arc catalog")
    p.add_argument("tag")
    p.set_defaults(fn=_cmd_lambda)
    p = sub.add_parser("bracket", help="bracket coefficient of two arcs")
    p.add_argument("tag")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(fn=_cmd_bracket)
    p = sub.add_parser("confluence", help="run one confluence limit")
    p.add_argument("src")
    p.add_argument("dst")
    p.set_defaults(fn=_cmd_confluence)
    p = sub.add_parser("mutate", help="apply a mutation sequence to the initial cluster")
    p.add_argument("tag", help="cubic tag (parameters stay symbolic)")
    p.add_argument("sequence", help="e.g. 121 or 1,2,1")
    p.set_defaults(fn=_cmd_mutate)
    p = sub.add_parser("twist", help="apply a Dehn twist and check its invariants")
    p.add_argument("case", help="a case of the twists table in lambdas.json")
    p.add_argument("--repeat", type=int, default=1)
    p.set_defaults(fn=_cmd_twist)
    p = sub.add_parser("unfold", help="run the normal-form certificates for a tag")
    p.add_argument("tag")
    p.set_defaults(fn=_cmd_unfold)
    p = sub.add_parser("signature", help="surface signature and irregularity data")
    p.add_argument("tag")
    p.set_defaults(fn=_cmd_signature)
    p = sub.add_parser("export", help="emit graphs or the catalog")
    p.add_argument("what", help="confluence, inclusions or catalog")
    p.set_defaults(fn=_cmd_export)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.catalog:
        catalog.set_catalog_root(args.catalog)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed reader must show up here, not at exit
        return code
    except (KeyError, catalog.CatalogError, RingError, ExprSyntaxError) as exc:
        # str() of a KeyError is the repr of its message, quotes included
        print(f"error: {exc.args[0] if exc.args else exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader stopped early (``| head``).  Point stdout at devnull so
        # that the interpreter's flush at exit cannot raise again, as the
        # ``signal`` module documentation recommends, and exit as a shell
        # reports a process that SIGPIPE ended: 128 + 13.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
