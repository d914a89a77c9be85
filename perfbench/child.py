"""Processes the benchmark starts; each is one fresh interpreter.

    child.py probe
        time the fixed reference workload, then import painleve_cubics.cli
        and build the catalog objects the workloads use; print both times
        in seconds as JSON {"reference_s", "setup_s"}.
    child.py traced SPANS ARG...
        the CLI call with arguments ARG, with every layer entry point
        wrapped in a span; the spans are written to SPANS at exit.

The package comes from ``src`` on PYTHONPATH; this file only calls into it.
"""

from __future__ import annotations

import json
import sys
import time
from fractions import Fraction
from pathlib import Path

DATA = Path(__file__).resolve().parent.parent / "src" / "painleve_cubics" / "data"


def _mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            v = out.get(e, Fraction(0)) + c1 * c2
            if v == 0:
                out.pop(e, None)
            else:
                out[e] = v
    return out


def _add(*polys: dict) -> dict:
    out: dict = {}
    for p in polys:
        for e, c in p.items():
            out[e] = out.get(e, Fraction(0)) + c
    return {e: c for e, c in out.items() if c}


def reference() -> float:
    """Seconds for a fixed workload of the benchmark's own: four passes of the
    numerators of the exchange recurrence y_i' = y_j^2 + y_k^2 + G_i y_j y_k
    over the word 1231, as dicts of exponent tuples to Fractions.  It runs
    the same kind of operations as the package's kernel and none of its code,
    so its time follows only the speed of the machine."""
    t0 = time.perf_counter()
    for _ in range(4):
        mono = [{tuple(int(i == k) for i in range(6)): Fraction(2 * k + 1, 2)} for k in range(6)]
        y, g = mono[:3], mono[3:]
        for i in (0, 1, 2, 0):
            j, k = (t for t in (0, 1, 2) if t != i)
            y[i] = _add(_mul(y[j], y[j]), _mul(y[k], y[k]), _mul(_mul(g[i], y[j]), y[k]))
    return time.perf_counter() - t0


def probe() -> None:
    reference_s = reference()
    catalogs = {name: json.loads((DATA / f"{name}.json").read_text())
                for name in ("cubics", "lambdas", "signatures")}
    t0 = time.perf_counter()
    import painleve_cubics as pc
    import painleve_cubics.cli  # noqa: F401
    from painleve_cubics import confluence, unfolding

    for tag in catalogs["cubics"]["tags"]:
        pc.cubic(tag)
        pc.chart(tag)
    for tag in catalogs["lambdas"]["catalogs"]:
        pc.lambda_catalog(tag)
    for tag in catalogs["signatures"]["signatures"]:
        pc.signature(tag)
    confluence.arrows()
    confluence.embeddings()
    unfolding.hat_param_table()
    print(json.dumps({"reference_s": reference_s, "setup_s": time.perf_counter() - t0}))


def traced(spans_out: str, argv: list) -> int:
    import spans

    tracer = spans.Tracer()
    t0 = time.perf_counter()
    from painleve_cubics import cli

    tracer.import_s = time.perf_counter() - t0
    spans.install(tracer)
    try:
        code = cli.main(argv)
    finally:
        sys.stdout.flush()
        hits, misses = spans.cache_counts()
        tracer.write(Path(spans_out), {"cache_hits": hits, "cache_misses": misses})
    return code


def main(argv: list) -> int:
    mode = argv[0]
    if mode == "probe":
        probe()
        return 0
    if mode == "traced":
        return traced(argv[1], argv[2:])
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
