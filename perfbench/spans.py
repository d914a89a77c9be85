"""In-process span tracing of the package's layer entry points.

``install`` wraps the public entry points listed in ``ENTRY_POINTS`` from
outside the package.  Several modules import names by value
(``from .ring import divide_exact`` in ``cluster``, and
``RationalExpr.__init__`` calls the module-global ``divide_exact``), so a
wrapper is bound wherever the original object is referenced: every
``painleve_cubics`` module global and every class attribute that *is* the
original function.  Spans (name, start, end, parent) are kept in memory in
flat arrays and written out once, when the traced process ends.

``summarize`` turns the written spans of one process into per-layer
calls, self time (duration minus the time covered by child spans) and
counters; it runs in the parent process of the benchmark, outside any timed
region.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array
from pathlib import Path

# span name -> (module, attribute path) of every wrapped entry point
ENTRY_POINTS = {
    "ring.mul": [("painleve_cubics.ring", "LaurentPoly.__mul__")],
    "ring.add": [("painleve_cubics.ring", "LaurentPoly.__add__")],
    "ring.substitute": [("painleve_cubics.ring", "LaurentPoly.substitute")],
    "ring.divide_exact": [("painleve_cubics.ring", "divide_exact")],
    "ring.rational": [("painleve_cubics.ring", "RationalExpr.__init__")],
    "exprs.parse": [("painleve_cubics.exprs", "parse_expr")],
    "catalog.load": [("painleve_cubics.catalog", "load")],
    "linalg": [("painleve_cubics.linalg", "rank"),
               ("painleve_cubics.linalg", "kernel_basis"),
               ("painleve_cubics.linalg", "solve")],
    "poisson.bracket": [("painleve_cubics.poisson", "PoissonStructure.bracket"),
                        ("painleve_cubics.poisson", "NambuContext.bracket")],
    "poisson.solve_structure": [("painleve_cubics.poisson", "solve_structure")],
    "cluster.mutate": [("painleve_cubics.cluster", "mutate")],
}

MODULES = ("ring", "exprs", "linalg", "poisson", "catalog", "cubics", "shear",
           "confluence", "arcs", "cluster", "unfolding", "verify", "cli")


class TraceError(RuntimeError):
    """An entry point to wrap is missing, so the trace would be incomplete."""


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name_ix = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.counters: dict = {}
        self.import_s = 0.0

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add(self, key: str, amount) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def peak(self, key: str, value) -> None:
        if value > self.counters.get(key, 0):
            self.counters[key] = value

    def wrap(self, name: str, fn, after=None):
        """``fn`` recording a span; ``after(args, result)`` updates counters."""
        nid = self.name_id(name)
        name_ix, parent, start, end = self.name_ix, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(start)
            name_ix.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, result)
                return result
            finally:
                end[idx] = clock()
                stack.pop()

        return functools.wraps(fn)(traced)

    def write(self, path: Path, extra: dict) -> None:
        header = dict(extra, names=self.names, counters=self.counters,
                      import_s=self.import_s, spans=len(self.start))
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.name_ix, self.parent, self.start, self.end):
                arr.tofile(fh)


def _resolve(module, dotted: str):
    owner = module
    parts = dotted.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
    fn = getattr(owner, parts[-1], None) if owner is not None else None
    if fn is None:
        raise TraceError(f"entry point {module.__name__}.{dotted} not found")
    return fn


def _rebind(original, wrapper) -> int:
    """Replace ``original`` by ``wrapper`` in every package namespace; count sites."""
    sites = 0
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == "painleve_cubics"
                                  or modname.startswith("painleve_cubics.")):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapper)
                sites += 1
            elif isinstance(value, type) and value.__module__ == modname:
                for attr, member in list(vars(value).items()):
                    if member is original:
                        setattr(value, attr, wrapper)
                        sites += 1
    return sites


def install(tracer: Tracer) -> None:
    """Wrap every entry point; the package must already be imported."""
    mods = {m: importlib.import_module(f"painleve_cubics.{m}") for m in MODULES}
    ring = mods["ring"]
    sizes = {}
    data = Path(mods["catalog"].__file__).parent / "data"
    for path in data.glob("*.json"):
        sizes[path.stem] = path.stat().st_size

    def mul_after(args, result):
        if isinstance(result, ring.LaurentPoly):
            a, b = args
            tracer.add("ring.mul.term_pairs",
                       len(a.terms) * (len(b.terms) if isinstance(b, ring.LaurentPoly)
                                       else int(b != 0)))
            tracer.add("ring.mul.terms_out", len(result.terms))

    def divide_after(args, result):
        if result is not None:
            tracer.add("ring.divide_exact.useful", 1)
            tracer.peak("ring.divide_exact.max_terms", len(result.terms))

    def rational_after(args, result):
        if args[0].den.is_one():
            tracer.add("ring.rational.den_one", 1)

    def parse_after(args, result):
        tracer.add("exprs.parse.chars", len(args[0]))

    def load_after(args, result):
        tracer.add("catalog.load.bytes", sizes.get(args[0], 0))

    def mutate_after(args, result):
        tracer.peak("cluster.max_terms", len(result[args[0]].num.terms))

    hooks = {"ring.mul": mul_after, "ring.divide_exact": divide_after,
             "ring.rational": rational_after, "exprs.parse": parse_after,
             "catalog.load": load_after, "cluster.mutate": mutate_after}
    for name, targets in ENTRY_POINTS.items():
        for modname, dotted in targets:
            original = _resolve(sys.modules[modname], dotted)
            wrapper = tracer.wrap(name, original, hooks.get(name))
            if _rebind(original, wrapper) == 0:
                raise TraceError(f"{modname}.{dotted} is bound nowhere")

    verify = mods["verify"]
    run = verify.run
    group_spans = {g: tracer.wrap(f"verify.{g}", run) for g in verify.GROUPS}

    def run_by_group(groups=None, depth=None):
        # One verify.run([group]) call per group gives the same certificates in
        # the same order as a single call, and a span per group.
        selected = list(verify.GROUPS) if not groups else list(groups)
        if any(g not in group_spans for g in selected):
            return run(groups, depth=depth)
        out = []
        for g in verify.GROUPS:
            if g in selected:
                out.extend(group_spans[g]([g], depth=depth))
        return out

    run_by_group.__wrapped__ = run
    verify.run = run_by_group


def cache_counts() -> tuple:
    """(hits, misses) over every catalog-backed functools cache."""
    from painleve_cubics import catalog

    hits = misses = 0
    for clear in catalog._cache_clearers:
        info = clear.__self__.cache_info()
        hits += info.hits
        misses += info.misses
    return hits, misses


def read(path: Path) -> tuple:
    """(header, name_ix, parent, start, end) of a written trace file."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["spans"]
        arrays = []
        for code in ("i", "i", "q", "q"):
            arr = array(code)
            arr.fromfile(fh, n)
            arrays.append(arr)
    return (header, *arrays)


def summarize(path: Path) -> dict:
    """Per-span-name calls, self_s, total_s and max_s, plus the counters."""
    header, name_ix, parent, start, end = read(path)
    n = len(start)
    dur = [end[i] - start[i] for i in range(n)]
    covered = [0] * n
    for i in range(n):
        p = parent[i]
        if p >= 0:
            covered[p] += dur[i]
    layers: dict = {}
    for i in range(n):
        name = header["names"][name_ix[i]]
        rec = layers.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0, "max_s": 0.0})
        rec["calls"] += 1
        rec["self_s"] += (dur[i] - covered[i]) / 1e9
        rec["total_s"] += dur[i] / 1e9
        rec["max_s"] = max(rec["max_s"], dur[i] / 1e9)
    return {"layers": layers, "counters": header["counters"],
            "import_s": header["import_s"], "spans": n,
            "cache_hits": header.get("cache_hits", 0),
            "cache_misses": header.get("cache_misses", 0)}
