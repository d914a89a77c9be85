"""Internal consistency of the shipped catalog files."""

from collections import Counter
from fractions import Fraction
from pathlib import Path

from painleve_cubics import catalog, parse_expr, parse_poly, signature, verify
from painleve_cubics.cubics import tags
from painleve_cubics.catalog import SHEAR_NAMES


def test_every_tag_has_a_chart():
    charts = catalog.load("charts")["charts"]
    assert set(charts) == set(tags())


def test_arrow_endpoints_are_known_tags():
    known = set(tags())
    for a in catalog.load("arrows")["arrows"]:
        assert a["src"] in known and a["dst"] in known
        assert a["shift"], a


def test_embedding_names_exist_in_their_catalogs():
    lambdas = catalog.load("lambdas")["catalogs"]
    for emb in catalog.load("arrows")["embeddings"]:
        sub, amb = lambdas[emb["sub"]], lambdas[emb["ambient"]]
        sub_names = set(sub.get("entries") or sub["subset"])
        for name in emb["images"]:
            assert name in sub_names, (emb["sub"], name)


def test_lambda_tables_cover_all_pairs():
    lambdas = catalog.load("lambdas")["catalogs"]
    for tag, entry in lambdas.items():
        if "entries" not in entry or "table" not in entry:
            continue
        names = sorted(entry["entries"])
        want = {(u, v) for i, u in enumerate(names) for v in names[i + 1:]}
        got = {tuple(sorted(k.split(","))) for k in entry["table"]}
        assert got == want, tag


def test_solved_brackets_name_real_generators():
    lambdas = catalog.load("lambdas")["catalogs"]
    for tag, entry in lambdas.items():
        gens = set(entry.get("shear_generators", ()))
        for key in entry.get("solved_log_brackets", {}):
            u, v = key.split(",")
            assert u in gens and v in gens, (tag, key)


def test_all_catalog_expressions_parse():
    # a text that names a parameter is read over a ring that holds it, then
    # the parameter's value is substituted: PVI's stated G, or a derived chart's
    from painleve_cubics import chart
    from painleve_cubics.checks.cubics import ROW_RING
    from painleve_cubics.ring import Ring
    from painleve_cubics.shear import TEXT_RING

    ring = Ring(SHEAR_NAMES)
    charts = catalog.load("charts")["charts"]
    for s in charts["PVI"]["G"].values():
        parse_poly(s, ring)
    for tag, entry in charts.items():
        for n in ("x1", "x2", "x3"):
            parse_poly(entry[n], TEXT_RING).substitute(chart(tag).G, ring).as_poly()
    cubics = catalog.load("cubics")["cubics"]
    gring = Ring(("x1", "x2", "x3", "G1", "G2", "G3", "Ginf"))
    for s in cubics["PVI"]["omega"]:
        parse_poly(s, gring)
    for tag, entry in cubics.items():
        params = {w: parse_expr(s, gring) for w, s in entry["table1_params"].items()}
        parse_expr(entry["table1"], ROW_RING).substitute(params, gring)


def test_only_pvi_states_its_cubic_and_chart_parameters():
    # every other eps, omega and G is the limit along the primary arrow into its tag
    cubics = catalog.load("cubics")["cubics"]
    charts = catalog.load("charts")["charts"]
    assert [tag for tag, entry in cubics.items() if {"eps", "omega"} & set(entry)] == ["PVI"]
    assert [tag for tag, entry in charts.items() if "G" in entry] == ["PVI"]
    assert {"eps", "omega"} <= set(cubics["PVI"])
    assert not any("omega_note" in entry for entry in cubics.values())


def test_signature_rows_are_consistent():
    # the row is derived: the holes, after a phantom 0 where the entry sets one
    sigs = catalog.load("signatures")["signatures"]
    for tag, entry in sigs.items():
        row, holes = signature(tag).row, tuple(entry["holes"])
        assert row == ((0,) + holes if entry.get("phantom_hole") else holes), tag
        assert all(c >= 0 for c in holes)
    assert signature("PIII_D6").row == (0, 2, 2) and signature("PV").row == (0, 0, 2)
    assert signature("PIII_D7").pole_orders() == (2, 3, 4)


def test_new_arc_catalog_entry_is_certified(tmp_path):
    # the suite's tag lists follow the catalog keys, so a new entry gets
    # its table, solve and Casimir certificates with no code change
    import json
    import shutil
    from importlib import resources
    from painleve_cubics import verify
    src = resources.files("painleve_cubics.data")
    for name in ("cubics", "charts", "lambdas", "arrows", "signatures", "unfoldings"):
        shutil.copy(str(src / f"{name}.json"), tmp_path / f"{name}.json")
    data = json.loads((tmp_path / "lambdas.json").read_text())
    data["catalogs"]["PVcopy"] = data["catalogs"]["PV"]
    (tmp_path / "lambdas.json").write_text(json.dumps(data))
    catalog.set_catalog_root(tmp_path)
    certs = {c.id: c.passed for c in verify.run(["lambda", "casimirs"])}
    assert certs["lambda-table-PVcopy"] and certs["lambda-solve-PVcopy"]
    assert certs["casimirs-PVcopy"]
    assert len(certs) == 15 + 9


def test_suite_reads_each_catalog_file_once(monkeypatch):
    reads = Counter()
    read_text = Path.read_text

    def counted(path, *args, **kwargs):
        reads[path.name] += 1
        return read_text(path, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", counted)
    catalog.clear_caches()
    verify.run()
    stems = ("cubics", "charts", "lambdas", "arrows", "signatures", "unfoldings")
    assert reads == Counter({f"{stem}.json": 1 for stem in stems})
