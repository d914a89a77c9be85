"""Assembly of the full certificate suite.

Certificates are grouped by subsystem; ``run`` executes one group or all
of them and returns the certificates in a fixed order (sorted by id
within the declared group order), so reports are byte-deterministic.
"""

from __future__ import annotations

from . import catalog

GROUPS = ("charts", "atlas", "cubics", "nambu", "confluence",
          "lambda", "casimirs", "commutant", "cluster", "twists",
          "signatures", "unfolding", "arcs")


def _suite(depth: int | None, selected: set):
    """Yield (group, fn, args) for each certificate of the ``selected`` groups,
    importing only their subsystems and ``checks`` modules and reading only
    their catalogs."""
    def having(*keys) -> list:
        """Arc catalog tags whose entry carries one of ``keys``."""
        return [tag for tag in catalog.section("lambdas", "catalogs")
                if any(k in catalog.section("lambdas", "catalogs", tag) for k in keys)]

    if "charts" in selected:
        from . import cubics
        from .checks import shear as shear_checks
        for tag in cubics.tags():
            yield "charts", shear_checks.verify_chart, (tag,)
            yield "charts", shear_checks.chart_normalization_check, (tag,)
    if "atlas" in selected:
        from .checks import shear as shear_checks
        for i in (1, 2, 3):
            yield "atlas", shear_checks.flip_involution_check, (i,)
            yield "atlas", shear_checks.verify_flip_braid, (i,)
        yield "atlas", shear_checks.pv_to_piii_change, ()
    if "cubics" in selected:
        from . import cubics
        from .checks import cubics as cubic_checks
        for tag in cubics.tags():
            yield "cubics", cubic_checks.table1_check, (tag,)
            yield "cubics", cubic_checks.volume_form_check, (tag,)
        yield "cubics", cubic_checks.torus_param_check, ()
        yield "cubics", cubic_checks.fn_jm_diffeo_check, ()
    if "nambu" in selected:
        from . import cubics
        from .checks import cubics as cubic_checks
        for tag in cubics.tags():
            yield "nambu", cubic_checks.nambu_casimir_check, (tag,)
    if "confluence" in selected:
        from . import confluence
        from .checks import confluence as confluence_checks
        for a in confluence.arrows():
            yield "confluence", confluence_checks.confluent_limit, (a,)
        yield "confluence", confluence_checks.two_route_check, ()
        for emb in confluence.embeddings():
            yield "confluence", confluence_checks.embedding_check, (emb,)
        yield "confluence", confluence_checks.composite_embedding_check, ()
    if "lambda" in selected:
        from .checks import arcs as arc_checks
        for tag in having("table", "table_ref"):
            yield "lambda", arc_checks.verify_lambda_table, (tag,)
        for tag in having("solved_log_brackets", "grafts"):
            yield "lambda", arc_checks.solve_structure_check, (tag,)
    if "casimirs" in selected:
        from .checks import arcs as arc_checks
        for tag in having("casimirs"):
            yield "casimirs", arc_checks.casimir_check, (tag,)
    if "commutant" in selected:
        from .checks import arcs as arc_checks
        for tag in having("xexprs", "identifications"):
            yield "commutant", arc_checks.commutant_check, (tag,)
        yield "commutant", arc_checks.pvi_from_pv_check, ()
    if "cluster" in selected:
        from .checks import cluster as cluster_checks
        for i in (1, 2, 3):
            yield "cluster", cluster_checks.braid_preserves_cubic, (i,)
            yield "cluster", cluster_checks.braid_involution_check, (i,)
            yield "cluster", cluster_checks.surface_invariance, (i,)
            yield "cluster", cluster_checks.mutation_involution_check, (i,)
        yield "cluster", cluster_checks.shifted_cubic_check, ()
        yield "cluster", cluster_checks.laurent_check, () if depth is None else (depth,)
    if "twists" in selected:
        from .checks import cluster as cluster_checks
        for case in catalog.section("lambdas", "twists"):
            yield "twists", cluster_checks.twist_invariants, (case,)
            yield "twists", cluster_checks.twist_frozen_commutation, (case,)
    if "signatures" in selected:
        from .checks import arcs as arc_checks
        for tag in catalog.section("signatures", "signatures"):
            yield "signatures", arc_checks.signature_check, (tag,)
        for tag in having("params"):
            yield "signatures", arc_checks.lamination_count_check, (tag,)
    if "unfolding" in selected:
        from . import unfolding
        from .checks import unfolding as unfolding_checks
        for key in unfolding.cases():
            for fn, args in unfolding_checks.checks(key):
                yield "unfolding", fn, args
    if "arcs" in selected:
        from .checks import arcs as arc_checks
        yield "arcs", arc_checks.arc_trace_check, ()
        yield "arcs", arc_checks.comb_bracket_check, ()


def _checked(group: str, fn, args: tuple):
    """``fn(*args)``; if it raises anything but a catalog error, a failing ERROR
    certificate named by the group, the function and the arguments (an
    ``Arrow`` or ``EmbeddingMap`` by its two tags)."""
    try:
        return fn(*args)
    except (catalog.CatalogError, catalog.UnknownEntry):
        raise
    except Exception as exc:
        from .certificates import error
        shown = ("-".join(a[:2]) if isinstance(a, tuple) else str(a) for a in args)
        return error(f"{group}.{fn.__name__}({', '.join(shown)})", exc)


def run(groups=None, depth: int | None = None) -> list:
    """Run the suite (or the named groups); returns certificates in report order.

    An exception inside one check fails only its own certificate (``_checked``).
    """
    selected = set(GROUPS if not groups else groups)
    unknown = selected - set(GROUPS)
    if unknown:
        raise catalog.UnknownEntry(f"unknown suite group(s) {sorted(unknown)}; have {GROUPS}")
    if depth is not None and depth < 1:
        raise ValueError(f"depth must be at least 1, got {depth}")
    results = [(group, _checked(group, fn, args)) for group, fn, args in _suite(depth, selected)]
    order = {g: i for i, g in enumerate(GROUPS)}
    results.sort(key=lambda gc: (order[gc[0]], gc[1].id))
    return [c for _, c in results]

