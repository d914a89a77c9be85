"""Assembly of the full certificate suite.

Certificates are grouped by subsystem; ``run`` executes one group or all
of them and returns the certificates in a fixed order (sorted by id
within the declared group order), so reports are byte-deterministic.
"""

from __future__ import annotations

from typing import Callable

from . import arcs, catalog, cluster, confluence, cubics, shear, unfolding

GROUPS = ("charts", "atlas", "cubics", "nambu", "confluence",
          "lambda", "casimirs", "commutant", "cluster", "twists",
          "signatures", "unfolding", "arcs")


def _suite(depth: int | None) -> list:
    jobs: list = []
    lambdas = catalog.load("lambdas")

    def add(group: str, fn: Callable, *args):
        jobs.append((group, fn, args))

    def having(*keys) -> list:
        """Arc catalog tags whose entry carries one of ``keys``."""
        return [tag for tag, entry in lambdas["catalogs"].items() if any(k in entry for k in keys)]

    for tag in cubics.tags():
        add("charts", shear.verify_chart, tag)
        add("charts", shear.chart_normalization_check, tag)
    for i in (1, 2, 3):
        add("atlas", shear.flip_involution_check, i)
        add("atlas", shear.verify_flip_braid, i)
    add("atlas", shear.pv_to_piii_change)
    for tag in cubics.tags():
        add("cubics", cubics.table1_check, tag)
        add("cubics", cubics.volume_form_check, tag)
        add("nambu", cubics.nambu_casimir_check, tag)
    add("cubics", cubics.torus_param_check)
    add("cubics", cubics.fn_jm_diffeo_check)
    for a in confluence.arrows():
        add("confluence", confluence.confluent_limit, a)
    add("confluence", confluence.two_route_check)
    for emb in confluence.embeddings():
        add("confluence", confluence.embedding_check, emb)
    add("confluence", confluence.composite_embedding_check)
    for tag in having("table", "table_ref"):
        add("lambda", arcs.verify_lambda_table, tag)
    for tag in having("solved_log_brackets"):
        add("lambda", arcs.solve_structure_check, tag)
    for tag in having("casimirs"):
        add("casimirs", arcs.casimir_check, tag)
    for tag in having("xexprs"):
        add("commutant", arcs.commutant_check, tag)
    add("commutant", arcs.pvi_from_pv_check)
    for i in (1, 2, 3):
        add("cluster", cluster.braid_preserves_cubic, i)
        add("cluster", cluster.braid_involution_check, i)
        add("cluster", cluster.surface_invariance, i)
        add("cluster", cluster.mutation_involution_check, i)
    add("cluster", cluster.shifted_cubic_check)
    add("cluster", cluster.laurent_check, *(() if depth is None else (depth,)))
    for case in lambdas["twists"]:
        add("twists", cluster.twist_invariants, case)
        add("twists", cluster.twist_frozen_commutation, case)
    for tag in catalog.load("signatures")["signatures"]:
        add("signatures", arcs.signature_check, tag)
    for tag in having("params"):
        add("signatures", arcs.lamination_count_check, tag)
    for key in unfolding.cases():
        for fn, args in unfolding.checks(key):
            add("unfolding", fn, *args)
    add("arcs", arcs.arc_trace_check)
    add("arcs", arcs.comb_bracket_check)
    return jobs


def run(groups=None, depth: int | None = None) -> list:
    """Run the suite (or the named groups); returns certificates in report order."""
    selected = set(GROUPS if not groups else groups)
    unknown = selected - set(GROUPS)
    if unknown:
        raise catalog.UnknownEntry(f"unknown suite group(s) {sorted(unknown)}; have {GROUPS}")
    results = [(group, fn(*args)) for group, fn, args in _suite(depth) if group in selected]
    order = {g: i for i, g in enumerate(GROUPS)}
    results.sort(key=lambda gc: (order[gc[0]], gc[1].cid))
    return [c for _, c in results]


def report_lines(certs: list) -> list:
    lines = [c.line() for c in certs]
    passed = sum(c.passed for c in certs)
    lines.append(f"{passed}/{len(certs)} certificates passed")
    return lines
