"""Command-line front end.

``VERBS`` is the whole command line: each verb with its handler, its
positional arguments, its integer options, the formats it prints and a line
of help.  ``read_argv`` reads argv against it (``--help`` prints it), and
the handler runs as ``handler(format, *positionals, **options)``.  Handlers
import the subsystems they run, so a cold call compiles no more than its
verb needs: ``verify`` is imported only by ``verify``, ``verify-all`` and
``--help``, which lists the groups.

Exit codes: 0 all requested certificates pass, 1 at least one fails,
2 unusable input (a usage error such as an unknown verb or option, a
format the verb does not print or an option value below 1; unknown tags;
unreadable or malformed catalogs), each reported as one ``error:`` line on
stderr, 141 the reader closed stdout before the output ended.
"""

from __future__ import annotations

import atexit
import gc
import json
import os
import sys

from . import catalog
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
        for c in certs:
            print(c.line())
        print(f"{sum(c.passed for c in certs)}/{len(certs)} certificates passed")
    return 0 if all(c.passed for c in certs) else 1


def _cmd_verify_all(fmt, depth=None) -> int:
    from . import verify
    return _emit_certs(verify.run(None, depth=depth), fmt)


def _cmd_verify(fmt, group, depth=None) -> int:
    from . import verify
    return _emit_certs(verify.run([group], depth=depth), fmt)


def _cmd_show(fmt, tag) -> int:
    from . import cubics
    c = cubics.cubic(tag)
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


def _cmd_chart(fmt, tag) -> int:
    from . import shear
    ch = shear.chart(tag)
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


def _cmd_lambda(fmt, tag) -> int:
    from . import arcs
    cat = arcs.lambda_catalog(tag)
    if fmt == "json":
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


def _cmd_bracket(fmt, tag, first, second) -> int:
    from . import arcs
    cat = arcs.lambda_catalog(tag)
    for name in (first, second):
        if name not in cat.lambda_ring.index:
            raise catalog.UnknownEntry(f"unknown arc {name!r} in {tag}")
    coeff = cat.structure.pair(first, second)
    print(f"{{{first},{second}}} = {coeff} * {first} * {second}")
    return 0


def _cmd_confluence(fmt, src, dst) -> int:
    from . import confluence
    from .checks import confluence as confluence_checks
    a = confluence.arrow(src, dst)
    degrees, leads = confluence.limit_chart_coords(a)
    cert = confluence_checks.limit_certificate(a, degrees, leads)
    print(f"substitution: {a.label}")
    print(f"leading eps-degrees: {', '.join(str(d) for d in degrees)}")
    print(cert.line())
    return 0 if cert.passed else 1


def _cmd_mutate(fmt, tag, sequence) -> int:
    from . import cluster, cubics
    cubics.cubic(tag)  # the lookup: an unknown tag exits 2
    word = []
    for ch in sequence.replace(",", ""):
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


def _cmd_twist(fmt, name, repeat=1) -> int:
    from . import cluster
    from .checks import cluster as cluster_checks
    case = cluster.twist_case(name)
    vals = cluster.base_values(case)
    for _ in range(repeat):
        vals = cluster.dehn_twist(case, vals)
    for var in case.variables:
        print(f"{var} -> {vals[var]}")
    certs = [cluster_checks.twist_invariants(name),
             cluster_checks.twist_frozen_commutation(name)]
    for c in certs:
        print(c.line())
    return 0 if all(c.passed for c in certs) else 1


def _cmd_unfold(fmt, tag) -> int:
    from . import unfolding
    from .checks import unfolding as unfolding_checks
    keys = {entry["tag"]: key for key, entry in unfolding.cases().items()}
    if tag not in keys:
        raise catalog.UnknownEntry(f"unfoldings.json has no tag {tag!r} (have {', '.join(keys)})")
    entry = unfolding.cases()[keys[tag]]
    if fmt != "json":
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
    certs = [fn(*fargs) for fn, fargs in unfolding_checks.checks(keys[tag])]
    return _emit_certs(certs, fmt)


def _cmd_signature(fmt, tag) -> int:
    from . import arcs
    sig = arcs.signature(tag)
    katz = ",".join(str(k) for k in sig.katz())
    print(f"s={len(sig.holes)} n={sum(sig.holes)} dim={sig.dimension()} katz={katz}")
    print(f"stokes rays: {','.join(map(str, sig.stokes_rays()))}  "
          f"pole orders: {','.join(map(str, sig.pole_orders()))}")
    return 0


def _cmd_export(fmt, what) -> int:
    if what == "confluence":
        from . import confluence
        if fmt == "dot":
            print(confluence.confluence_dot(), end="")
        elif fmt == "json":
            print(confluence.graph_json(), end="")
        else:
            for a in confluence.arrows():
                mark = " (secondary)" if a.secondary else ""
                print(f"{a.src} -> {a.dst}: {a.label}{mark}")
        return 0
    if what == "inclusions":
        from . import confluence
        if fmt == "dot":
            print(confluence.inclusion_dot(), end="")
        else:
            print(confluence.graph_json(), end="")
        return 0
    if what == "catalog":
        if fmt == "dot":
            raise UsageError("export catalog has no --format dot (it prints text, json)")
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
    raise catalog.UnknownEntry(f"unknown export {what!r} (confluence, inclusions, catalog)")


def _cmd_help(fmt) -> int:
    from . import verify
    print("usage: painleve-cubics [--format FORMAT] [--catalog DIR] VERB ARG... [--OPTION N]\n"
          "Exact verification of the monodromy cubic catalog.\n\nverbs (the formats they print):")
    for verb, (_, names, ints, formats, text) in VERBS.items():
        call = " ".join([verb, *names.upper().split(), *(f"[{o} N]" for o in ints.split())])
        print(f"  {call:<28} {text} ({formats.replace(' ', ', ')})")
    print(f"\nGROUP is one of {', '.join(verify.GROUPS)}.\n--catalog DIR reads the "
          f"catalog JSON files from DIR instead of the built-in ones.")
    return 0


# verb -> (handler, positionals, integer options, the formats it prints, help).
# ``--format`` (default text) and ``--catalog`` go anywhere, a verb's options
# after it; a value follows its option or an ``=``.
VERBS = {
    "verify-all": (_cmd_verify_all, "", "--depth", "text json", "run every certificate"),
    "verify": (_cmd_verify, "group", "--depth", "text json", "run one certificate group"),
    "show": (_cmd_show, "tag", "", "text json", "print a cubic"),
    "chart": (_cmd_chart, "tag", "", "text json", "print a shear chart"),
    "lambda": (_cmd_lambda, "tag", "", "text json", "print an arc catalog"),
    "bracket": (_cmd_bracket, "tag first second", "", "text", "bracket coefficient of two arcs"),
    "confluence": (_cmd_confluence, "src dst", "", "text", "run one confluence limit"),
    "mutate": (_cmd_mutate, "tag sequence", "", "text", "mutate along 121 or 1,2,1"),
    "twist": (_cmd_twist, "case", "--repeat", "text", "Dehn twist and its invariants"),
    "unfold": (_cmd_unfold, "tag", "", "text json", "normal-form certificates of a tag"),
    "signature": (_cmd_signature, "tag", "", "text", "surface signature and irregularity"),
    "export": (_cmd_export, "what", "", "text json dot", "confluence, inclusions or catalog"),
}


class UsageError(Exception):
    """A command line that the verb table does not read."""


def read_argv(argv) -> tuple:
    """(handler, format, catalog root, positionals, integer options) of ``argv``."""
    verb, words, opts = None, [], {"--format": "text", "--catalog": None}
    tokens = iter(argv)
    for token in tokens:
        if token in ("-h", "--help"):
            return _cmd_help, "text", None, [], {}
        if not token.startswith("-"):
            if verb is not None:
                words.append(token)
            elif token in VERBS:
                verb = token
            else:
                raise UsageError(f"unknown verb {token!r} (see --help)")
            continue
        name, eq, value = token.partition("=")
        if name not in ("--format", "--catalog", *(VERBS[verb][2].split() if verb else ())):
            raise UsageError(f"unknown option {name}" + (f" for {verb}" if verb else ""))
        opts[name] = value if eq else next(tokens, None)
        if not opts[name]:
            raise UsageError(f"{name} needs a value")
    if verb is None:
        raise UsageError("no verb given (see --help)")
    fn, names, ints, formats, _ = VERBS[verb]
    kwargs = {}
    for name in ints.split():
        if name not in opts:
            continue
        try:
            kwargs[name[2:]] = value = int(opts[name])
        except ValueError:
            raise UsageError(f"{name} takes an integer, got {opts[name]!r}") from None
        if value < 1:
            raise UsageError(f"{name} must be at least 1, got {value}")
    if opts["--format"] not in formats.split():
        raise UsageError(f"{verb} has no --format {opts['--format']} "
                         f"(it prints {formats.replace(' ', ', ')})")
    if len(words) != len(names.split()):
        raise UsageError(f"{verb} takes {names.upper() or 'no argument'}, "
                         f"got {' '.join(words) or 'none'}")
    return fn, opts["--format"], opts["--catalog"], words, kwargs


def main(argv=None) -> int:
    try:
        fn, fmt, root, words, kwargs = read_argv(sys.argv[1:] if argv is None else argv)
        if root is not None:
            catalog.set_catalog_root(root)
        code = fn(fmt, *words, **kwargs)
        sys.stdout.flush()  # a closed reader must show up here, not at exit
        return code
    except (UsageError, KeyError, catalog.CatalogError, RingError, ExprSyntaxError) as exc:
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
