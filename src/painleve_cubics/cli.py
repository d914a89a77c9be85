"""Command-line front end.

``VERBS`` is the whole command line: each verb with its handler, its
positional arguments, its integer options, the formats it prints and a line
of help.  ``read_argv`` reads argv against it (``--help`` prints it), and
the handler runs as ``handler(format, *positionals, **options)``.  A
handler is named, not held: ``main`` imports the handler's module of
``verbs`` only once argv has been read, and a handler imports the
subsystems it runs, so a cold call compiles no more than its verb needs.
This module imports no Laurent kernel, and only ``verify``, ``verify-all``
and ``--help``, whose handlers live here, import the suite module
``verify``.

Exit codes: 0 all requested certificates pass, 1 at least one fails, 2 a
``UsageError``, an unknown name (``catalog.UnknownEntry``) or a catalog error
naming its file and key (``catalog.CatalogError``), as one ``error:`` line on
stderr, 141 the reader closed stdout before the output ended.  Any other
exception is a defect, and it ends in a traceback; inside the suite,
``verify.run`` makes it the ERROR certificate of the check that raised.
"""

from __future__ import annotations

import atexit
import gc
import importlib
import os
import sys

from . import catalog

# Atexit handlers run before the interpreter's final garbage collections, so
# freezing here moves every object still alive into the permanent generation:
# those collections have nothing left to traverse, and the memory goes back
# to the OS with the process.  Streams are still flushed and other atexit
# handlers still run.  Registered once, at import: ``main`` may run many times.
atexit.register(gc.freeze)


def verify_groups(fmt, *groups, depth=None) -> int:
    from . import verify
    from .certificates import report
    return report(verify.run(groups, depth=depth), fmt)


def usage(fmt) -> int:
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
# A handler is ``<module>.<function>`` in ``verbs``, or a function of this
# module.  ``--format`` (default text) and ``--catalog`` go anywhere, a verb's
# options after it; a value follows its option or an ``=``.
VERBS = {
    "verify-all": ("verify_groups", "", "--depth", "text json", "run every certificate"),
    "verify": ("verify_groups", "group", "--depth", "text json", "run one certificate group"),
    "show": ("cubics.show", "tag", "", "text json", "print a cubic"),
    "chart": ("shear.chart", "tag", "", "text json", "print a shear chart"),
    "lambda": ("arcs.lambda_table", "tag", "", "text json", "print an arc catalog"),
    "bracket": ("arcs.bracket", "tag first second", "", "text", "bracket coefficient of two arcs"),
    "confluence": ("confluence.confluence", "src dst", "", "text", "run one confluence limit"),
    "mutate": ("cluster.mutate", "tag sequence", "", "text", "mutate along 121 or 1,2,1"),
    "twist": ("cluster.twist", "case", "--repeat", "text", "Dehn twist and its invariants"),
    "unfold": ("unfolding.unfold", "tag", "", "text json", "normal-form certificates of a tag"),
    "signature": ("arcs.signature", "tag", "", "text", "surface signature and irregularity"),
    "export": ("export.export", "what", "", "text json dot", "confluence, inclusions or catalog"),
}


class UsageError(Exception):
    """A command line that the verb table does not read."""


def read_argv(argv) -> tuple:
    """(handler name, format, catalog root, positionals, integer options) of ``argv``."""
    verb, words, opts = None, [], {"--format": "text", "--catalog": None}
    tokens = iter(argv)
    for token in tokens:
        if token in ("-h", "--help"):
            return "usage", "text", None, [], {}
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
    handler, names, ints, formats, _ = VERBS[verb]
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
    return handler, opts["--format"], opts["--catalog"], words, kwargs


def main(argv=None) -> int:
    try:
        handler, fmt, root, words, kwargs = read_argv(sys.argv[1:] if argv is None else argv)
        if root is not None:
            catalog.set_catalog_root(root)
        module, _, name = handler.rpartition(".")
        fn = getattr(importlib.import_module(f".verbs.{module}", __package__) if module
                     else sys.modules[__name__], name)
        code = fn(fmt, *words, **kwargs)
        sys.stdout.flush()  # a closed reader must show up here, not at exit
        return code
    except BrokenPipeError:
        # The reader stopped early (``| head``).  Point stdout at devnull so
        # that the interpreter's flush at exit cannot raise again, as the
        # ``signal`` module documentation recommends, and exit as a shell
        # reports a process that SIGPIPE ended: 128 + 13.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141
    except (UsageError, catalog.CatalogError, catalog.UnknownEntry) as exc:
        # str() of a KeyError is the repr of its message, quotes included
        print(f"error: {exc.args[0] if exc.args else exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
