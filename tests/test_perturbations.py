"""Perturbations of the catalogs make their certificates fail, and malformed
entries exit 2 naming their file and key.

Each test edits a copy of the catalogs under ``tmp_path`` and points the
CLI (``--catalog``) or the library at it.
"""

import json
import re
import shutil
from importlib import resources

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from painleve_cubics import catalog, verify
from painleve_cubics.cli import main

import catalog_mutations

TWISTS = list(catalog.load("lambdas")["twists"])
ARC_WORD = catalog.load("lambdas")["arc_trace"]["word"]
PV_ARC_A = catalog.load("lambdas")["catalogs"]["PV"]["entries"]["a"]
UNFOLD_KEYS = [key for key, entry in catalog.load("unfoldings").items()
               if isinstance(entry, dict)]
A3_RELATION_RHS = catalog.load("unfoldings")["a3"]["relation_rhs"]


def catalog_copy(tmp_path, name: str, edit) -> str:
    """Copy every catalog to ``tmp_path``, applying ``edit`` to catalog ``name``."""
    src = resources.files("painleve_cubics.data")
    for stem in ("cubics", "charts", "lambdas", "arrows", "signatures", "unfoldings"):
        shutil.copy(str(src / f"{stem}.json"), tmp_path / f"{stem}.json")
    data = json.loads((tmp_path / f"{name}.json").read_text())
    edit(data)
    (tmp_path / f"{name}.json").write_text(json.dumps(data))
    return str(tmp_path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("case", TWISTS)
def test_twist_step_sign_flip_fails(tmp_path, capsys, case):
    def flip(data):
        step = data["twists"][case]["steps"][0]
        arc = next(a for a, text in step.items() if " + " in text)
        step[arc] = step[arc].replace(" + ", " - ", 1)

    root = catalog_copy(tmp_path, "lambdas", flip)
    code, out, _ = run_cli(capsys, "--catalog", root, "verify", "twists")
    assert code == 1
    assert f"FAIL  twist-{case} " in out


@pytest.mark.parametrize("case", TWISTS)
def test_misspelt_frozen_name_is_exit_2(tmp_path, capsys, case):
    def misspell(data):
        data["twists"][case]["frozen"][0] += "x"

    root = catalog_copy(tmp_path, "lambdas", misspell)
    code, out, err = run_cli(capsys, "--catalog", root, "verify", "twists")
    assert code == 2 and out == ""
    assert "lambdas.json" in err and f"twists.{case}:" in err
    assert len(err.strip().splitlines()) == 1


def test_malformed_twist_expression_is_exit_2(tmp_path, capsys):
    def corrupt(data):
        data["twists"]["PV"]["invariants"]["G_gamma"] = "a/b +* ("

    root = catalog_copy(tmp_path, "lambdas", corrupt)
    code, _, err = run_cli(capsys, "--catalog", root, "twist", "PV")
    assert code == 2
    assert "lambdas.json twists.PV" in err and "Traceback" not in err


@pytest.mark.parametrize("key", UNFOLD_KEYS)
def test_unfolding_target_perturbation_fails(tmp_path, capsys, key):
    def perturb(data):
        entry = data[key]
        target = entry if "target" in entry else entry["charts"][0]
        target["target"] += " + 1"

    tag = catalog.load("unfoldings")[key]["tag"]
    root = catalog_copy(tmp_path, "unfoldings", perturb)
    code, out, _ = run_cli(capsys, "--catalog", root, "unfold", tag)
    assert code == 1
    assert "FAIL  unfold-" in out


def test_copied_twist_entry_is_certified(tmp_path):
    # the twist case list follows the table, so a new entry gets both
    # twist certificates with no code change
    def copy(data):
        data["twists"]["PIII_D6copy"] = data["twists"]["PIII_D6"]

    catalog.set_catalog_root(catalog_copy(tmp_path, "lambdas", copy))
    certs = {c.id: c.passed for c in verify.run(["twists"])}
    assert certs["twist-PIII_D6copy"] and certs["twist-frozen-PIII_D6copy"]
    assert len(certs) == 2 * (len(TWISTS) + 1)


def test_copied_unfolding_entry_checks_its_own_key(tmp_path, capsys):
    # every unfolding certificate reads the entry it was derived from, so a
    # perturbed copy of d4 fails under its own id while d4 still passes
    def copy(data):
        entry = json.loads(json.dumps(data["d4"]))
        entry["target"] += " + 1"
        data["d4copy"] = entry

    root = catalog_copy(tmp_path, "unfoldings", copy)
    code, out, _ = run_cli(capsys, "--catalog", root, "verify", "unfolding")
    assert code == 1
    assert "FAIL  unfold-d4copy " in out
    assert "PASS  unfold-d4 " in out and "PASS  unfold-d4copy-params " in out
    assert out.count("unfold-d4-params ") == 1


def test_copied_corank3_entry_states_its_own_value_at_zero(tmp_path, capsys):
    # the value of the hat parameters at w = 0 is read from the entry, so a
    # copy of d4 with + 1 on wh4 (and - 1 on its target) passes once it
    # states (-8, 0, 8, 5), and fails when the stated value is off by one
    def copy(value_at_zero):
        def edit(data):
            entry = json.loads(json.dumps(data["d4"]))
            entry["hat_params"]["wh4"] += " + 1"
            entry["target"] += " - 1"
            entry["hat_params_at_zero"] = value_at_zero
            data["d4copy"] = entry
        return edit

    root = catalog_copy(tmp_path, "unfoldings", copy([-8, 0, 8, 5]))
    code, out, _ = run_cli(capsys, "--catalog", root, "verify", "unfolding")
    assert code == 0
    assert "PASS  unfold-d4copy " in out
    assert "PASS  unfold-d4copy-params " in out and "value at 0 is (-8, 0, 8, 5)" in out

    root = catalog_copy(tmp_path, "unfoldings", copy([-8, 0, 8, 6]))
    code, out, _ = run_cli(capsys, "--catalog", root, "verify", "unfolding")
    assert code == 1
    assert "PASS  unfold-d4copy " in out and "FAIL  unfold-d4copy-params " in out


def test_copied_arc_catalog_keeps_its_signature(tmp_path, capsys):
    # the signature an arc catalog is counted against is a field of its entry
    def copy(data):
        data["catalogs"]["PIII_tilde_copy"] = data["catalogs"]["PIII_tilde"]

    root = catalog_copy(tmp_path, "lambdas", copy)
    code, out, _ = run_cli(capsys, "--catalog", root, "verify", "signatures")
    assert code == 0
    assert "PASS  lamination-count-PIII_tilde_copy " in out


def put(path: tuple, value):
    """An edit that sets ``value`` at ``path``, a tuple of keys and list indices."""
    def edit(data):
        for key in path[:-1]:
            data = data[key]
        data[path[-1]] = value
    return edit


@pytest.mark.parametrize("name, path, value, where", [
    pytest.param("charts", ("charts", "PVI", "x1"), "s1 +* (", "charts.json charts.PVI",
                 id="charts.PVI.x1"),
    pytest.param("cubics", ("cubics", "PVI", "omega", 0), "G1 +* (", "cubics.json cubics.PVI",
                 id="cubics.PVI.omega[0]"),
    pytest.param("lambdas", ("catalogs", "PV", "entries", "a"), "e[k1 +* (",
                 "lambdas.json catalogs.PV", id="catalogs.PV.entries.a"),
    pytest.param("cubics", ("cubics", "PIV", "table1_residue"), "x1 +* (",
                 "cubics.json cubics.PIV", id="cubics.PIV.table1_residue"),
    pytest.param("lambdas", ("catalogs", "PV", "xexprs", "x1"), "a +* (",
                 "lambdas.json catalogs.PV", id="catalogs.PV.xexprs.x1"),
    pytest.param("lambdas", ("catalogs", "PV", "casimirs", 2), "d*e^x",
                 "lambdas.json catalogs.PV", id="catalogs.PV.casimirs[2]"),
    pytest.param("arrows", ("arrows", 0, "shift", "p3"), "minus two", "arrows.json arrows[0]",
                 id="arrows[0].shift"),
    pytest.param("signatures", ("signatures", "PV", "dim"), "seven",
                 "signatures.json signatures.PV", id="signatures.PV.dim"),
    pytest.param("unfoldings", ("a3", "target"), "x1 +* (", "unfoldings.json a3",
                 id="a3.target"),
    pytest.param("arrows", ("embeddings", 0, "images", "a"), "a*b +* (",
                 "arrows.json embeddings[0]", id="embeddings[0].images.a"),
    pytest.param("charts", ("charts", "PVI", "x1"), "-e[s1/0+s2+s3] - G3*e[s2+p2/2]",
                 "charts.json charts.PVI", id="charts.PVI.x1-zero-divisor"),
    pytest.param("lambdas", ("pv_to_piii", "log_brackets", "s1,zz"), "1",
                 "lambdas.json pv_to_piii", id="pv_to_piii.log_brackets-stray"),
    pytest.param("lambdas", ("arc_trace", "arc"), "zz", "lambdas.json arc_trace",
                 id="arc_trace.arc"),
    pytest.param("charts", ("charts", "PI", "normalization_subst", "s3", "power"), "hlaf",
                 "charts.json charts.PI", id="charts.PI.normalization_subst.s3.power"),
    pytest.param("arrows", ("arrows", 5, "secondary"), "no", "arrows.json arrows[5]",
                 id="arrows[5].secondary"),
    pytest.param("cubics", ("cubics", "PVI", "omega"), ["G1", "G2", "G3"],
                 "cubics.json cubics.PVI", id="cubics.PVI.omega-three"),
])
def test_malformed_entry_names_its_file_and_key(tmp_path, capsys, name, path, value, where):
    root = catalog_copy(tmp_path, name, put(path, value))
    code, out, err = run_cli(capsys, "--catalog", root, "verify-all")
    assert code == 2 and out == ""
    assert err.startswith(f"error: {where}: ") and len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


WRONG_TYPES = [None, [], {}, 1.5, "zz+"]
NOT_STRINGS = WRONG_TYPES[:-1]  # a text field takes any string

# (id, catalog, path, group, where, the wrong values to try)
WRONG_TYPED_FIELDS = [
    ("signatures.PV.holes[2]", "signatures", ("signatures", "PV", "holes", 2), "signatures",
     "signatures.json signatures.PV", WRONG_TYPES),
    ("cubics.PV.table1_status", "cubics", ("cubics", "PV", "table1_status"), "cubics",
     "cubics.json cubics.PV", WRONG_TYPES),
    ("cubics.PIII_D6.table1_flip[0]", "cubics", ("cubics", "PIII_D6", "table1_flip", 0), "cubics",
     "cubics.json cubics.PIII_D6", WRONG_TYPES),
    ("arrows[3].src", "arrows", ("arrows", 3, "src"), "confluence", "arrows.json arrows[3]",
     WRONG_TYPES),
    ("arrows[3].dst", "arrows", ("arrows", 3, "dst"), "confluence", "arrows.json arrows[3]",
     WRONG_TYPES),
    ("embeddings[2].sub", "arrows", ("embeddings", 2, "sub"), "confluence",
     "arrows.json embeddings[2]", WRONG_TYPES),
    ("embeddings[2].ambient", "arrows", ("embeddings", 2, "ambient"), "confluence",
     "arrows.json embeddings[2]", WRONG_TYPES),
    ("charts.PVI.normalization", "charts", ("charts", "PVI", "normalization"), "charts",
     "charts.json charts.PVI", NOT_STRINGS),
    ("charts.PV.normalization_residual", "charts", ("charts", "PV", "normalization_residual"),
     "charts", "charts.json charts.PV", NOT_STRINGS),
    ("cubics.PV.table1", "cubics", ("cubics", "PV", "table1"), "cubics", "cubics.json cubics.PV",
     NOT_STRINGS),
    ("cubics.PIV.table1_residue", "cubics", ("cubics", "PIV", "table1_residue"), "cubics",
     "cubics.json cubics.PIV", NOT_STRINGS),
    ("cubics.PV.theta_doc", "cubics", ("cubics", "PV", "theta_doc"), "cubics",
     "cubics.json cubics.PV", NOT_STRINGS),
    ("a1_pii.tag", "unfoldings", ("a1_pii", "tag"), "unfolding", "unfoldings.json a1_pii",
     NOT_STRINGS),
    ("a3.singularity", "unfoldings", ("a3", "singularity"), "unfolding", "unfoldings.json a3",
     NOT_STRINGS),
    ("catalogs.PV.table.a,b", "lambdas", ("catalogs", "PV", "table", "a,b"), "lambda",
     "lambdas.json catalogs.PV", WRONG_TYPES + [True, 0.1, "1/0"]),
    ("cubics.PVI.omega[0]", "cubics", ("cubics", "PVI", "omega", 0), "cubics",
     "cubics.json cubics.PVI", WRONG_TYPES),
    ("catalogs.PV.shear_generators[0]", "lambdas", ("catalogs", "PV", "shear_generators", 0),
     "lambda", "lambdas.json catalogs.PV", WRONG_TYPES),
    ("charts.PVI.x1", "charts", ("charts", "PVI", "x1"), "charts", "charts.json charts.PVI",
     WRONG_TYPES),
    ("catalogs.PV.entries.a", "lambdas", ("catalogs", "PV", "entries", "a"), "lambda",
     "lambdas.json catalogs.PV", WRONG_TYPES),
    ("cubics.PV.specialization.Ginf", "cubics", ("cubics", "PV", "specialization", "Ginf"),
     "cubics", "cubics.json cubics.PV", WRONG_TYPES),
    *((f"{key}.{'.'.join(map(str, path))}", "unfoldings", (key, *path), "unfolding",
       f"unfoldings.json {key}", WRONG_TYPES) for key, path in [
        ("d4", ("tail",)), ("d4", ("post_shift_x1",)), ("d4", ("target",)),
        ("d4", ("diffeo", "x3")), ("d4", ("hat_params", "wh2")), ("a3", ("omega", "w1")),
        ("a3", ("substitution", "x2")), ("a3", ("relation_lhs",)), ("a3", ("relation_rhs",)),
        ("a3", ("target",)), ("a3", ("param_generators", 0)), ("a1_pii", ("cubic",)),
        ("a1_pvdeg", ("charts", 1, "target")), ("a1_pvdeg", ("charts", 0, "substitution", "x3")),
        ("a1_pvdeg", ("param_generators", 1))]),
    # fields that are references or values, read by their loader or their one check
    ("catalogs.PIII_D7.subset_of", "lambdas", ("catalogs", "PIII_D7", "subset_of"), "casimirs",
     "lambdas.json catalogs.PIII_D7", NOT_STRINGS),
    ("catalogs.PIII_D7.subset[0]", "lambdas", ("catalogs", "PIII_D7", "subset", 0), "casimirs",
     "lambdas.json catalogs.PIII_D7", WRONG_TYPES),
    ("catalogs.PIII_hat.table_ref", "lambdas", ("catalogs", "PIII_hat", "table_ref"), "lambda",
     "lambdas.json catalogs.PIII_hat", NOT_STRINGS),
    ("catalogs.PV.params[0]", "lambdas", ("catalogs", "PV", "params", 0), "lambda",
     "lambdas.json catalogs.PV", WRONG_TYPES),
    ("catalogs.PIV.grafts.s2[1]", "lambdas", ("catalogs", "PIV", "grafts", "s2", 1), "lambda",
     "lambdas.json catalogs.PIV", WRONG_TYPES),
    ("twists.PV.arcs", "lambdas", ("twists", "PV", "arcs"), "twists", "lambdas.json twists.PV",
     NOT_STRINGS),
    ("twists.PVdeg.generators[0]", "lambdas", ("twists", "PVdeg", "generators", 0), "twists",
     "lambdas.json twists.PVdeg", NOT_STRINGS),
    ("twists.PV.invariants.G_gamma", "lambdas", ("twists", "PV", "invariants", "G_gamma"),
     "twists", "lambdas.json twists.PV", NOT_STRINGS),
    ("pvi_from_pv.xexprs.x1", "lambdas", ("pvi_from_pv", "xexprs", "x1"), "commutant",
     "lambdas.json pvi_from_pv", NOT_STRINGS),
    ("pvi_from_pv.identifications.G3", "lambdas", ("pvi_from_pv", "identifications", "G3"),
     "commutant", "lambdas.json pvi_from_pv", NOT_STRINGS),
    ("arc_trace.catalog", "lambdas", ("arc_trace", "catalog"), "arcs", "lambdas.json arc_trace",
     NOT_STRINGS),
    ("pv_to_piii.images.s1", "lambdas", ("pv_to_piii", "images", "s1"), "atlas",
     "lambdas.json pv_to_piii", NOT_STRINGS),
    ("embeddings[0].param_images.G1", "arrows", ("embeddings", 0, "param_images", "G1"),
     "confluence", "arrows.json embeddings[0]", NOT_STRINGS),
    ("embeddings[0].central_images.G2", "arrows", ("embeddings", 0, "central_images", "G2"),
     "confluence", "arrows.json embeddings[0]", NOT_STRINGS),
    ("d4.pre_shift", "unfoldings", ("d4", "pre_shift"), "unfolding", "unfoldings.json d4",
     WRONG_TYPES),
    ("d4.hat_params_at_zero[0]", "unfoldings", ("d4", "hat_params_at_zero", 0), "unfolding",
     "unfoldings.json d4", WRONG_TYPES),
    ("a1_pvdeg.singular_fibre", "unfoldings", ("a1_pvdeg", "singular_fibre"), "unfolding",
     "unfoldings.json a1_pvdeg", [v for v in WRONG_TYPES if v != {}]),
    ("a1_pvdeg.singular_fibre.singular_points[0][1]", "unfoldings",
     ("a1_pvdeg", "singular_fibre", "singular_points", 0, 1), "unfolding",
     "unfoldings.json a1_pvdeg", WRONG_TYPES),
    ("a1_pvdeg.singular_fibre.regular_probe[0]", "unfoldings",
     ("a1_pvdeg", "singular_fibre", "regular_probe", 0), "unfolding", "unfoldings.json a1_pvdeg",
     WRONG_TYPES),
]


@pytest.mark.parametrize("name, path, group, where, value", [
    pytest.param(name, path, group, where, value, id=f"{field}-{json.dumps(value)}")
    for field, name, path, group, where, values in WRONG_TYPED_FIELDS for value in values])
def test_wrong_typed_value_names_its_file_and_key(tmp_path, capsys, name, path, group, where,
                                                  value):
    root = catalog_copy(tmp_path, name, put(path, value))
    code, out, err = run_cli(capsys, "--catalog", root, "verify", group)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {where}: ") and len(err.strip().splitlines()) == 1
    # a value of the wrong JSON type is named with its field, down to its last
    # key and item index (a string a text field fails to parse is a parse error)
    field = [key for key in path if isinstance(key, str)][-1]
    assert isinstance(value, str) or re.match(
        rf"error: {re.escape(where)}: \S*{re.escape(field)}(\[\d+\])* is ", err), err


@pytest.mark.parametrize("name, path, value, message", [
    ("signatures", ("signatures", "PV", "holes", 2), -1,
     "signatures.json signatures.PV: holes is [0, 0, -1], not counts of cusps"),
    ("signatures", ("signatures", "PV", "holes", 2), True,
     "signatures.json signatures.PV: holes[2] is True, not an integer"),
    ("cubics", ("cubics", "PV", "table1_status"), "exactly",
     "cubics.json cubics.PV: table1_status is 'exactly', not one of "
     "exact, exact_rational, exact_after_sign_flip, documented_mismatch"),
    ("cubics", ("cubics", "PIII_D6", "table1_flip", 0), "x4",
     "cubics.json cubics.PIII_D6: table1_flip[0] is 'x4', not one of "
     "x1, x2, x3, G1, G2, G3, Ginf"),
    ("arrows", ("arrows", 3, "dst"), "PIII_D9",
     "arrows.json arrows[3]: dst is 'PIII_D9', not a chart tag"),
    ("signatures", ("signatures", "PV", "dim"), 7.9,
     "signatures.json signatures.PV: dim is 7.9, not an integer"),
    ("signatures", ("signatures", "PV", "dim"), True,
     "signatures.json signatures.PV: dim is True, not an integer"),
    ("signatures", ("signatures", "PI", "phantom_hole"), "no",
     "signatures.json signatures.PI: phantom_hole is 'no', not true or false"),
    ("cubics", ("cubics", "PVI", "eps", 0), 1.5,
     "cubics.json cubics.PVI: eps[0] is 1.5, not one of 0, 1"),
    ("cubics", ("cubics", "PVI", "eps", 0), True,
     "cubics.json cubics.PVI: eps[0] is True, not one of 0, 1"),
    ("cubics", ("cubics", "PVI", "eps", 0), 2,
     "cubics.json cubics.PVI: eps[0] is 2, not one of 0, 1"),
    ("lambdas", ("catalogs", "PV", "leaf_dim"), 4.5,
     "lambdas.json catalogs.PV: leaf_dim is 4.5, not an integer"),
    ("lambdas", ("catalogs", "PV", "leaf_dim"), "4",
     "lambdas.json catalogs.PV: leaf_dim is '4', not an integer"),
    ("unfoldings", ("a1_pvdeg", "singular_fibre", "params", "w1"), -2.5,
     "unfoldings.json a1_pvdeg: w1 is -2.5, not an integer"),
    ("arrows", ("embeddings", 0, "sub"), "PIII_D9",
     "arrows.json embeddings[0]: sub is 'PIII_D9', not an arc catalog tag"),
    ("arrows", ("embeddings", 0, "images", "a"), "a + b",
     "arrows.json embeddings[0]: embedding image of a is not a monomial"),
    ("lambdas", ("catalogs", "PV", "cusp_indices", "b", 0), [1],
     "lambdas.json catalogs.PV: cusp_indices is {'b': [[1], [1, 4]], 'd': [[2, 1], [1, 8]]}, "
     "not two (hole, order) pairs per arc"),
    ("cubics", ("cubics", "PVI", "eps"), [1, 1],
     "cubics.json cubics.PVI: eps is [1, 1], not three of 0 and 1"),
    ("cubics", ("cubics", "PVI", "eps"), "11",
     "cubics.json cubics.PVI: eps is '11', not an array"),
    ("lambdas", ("arc_trace", "word"), ["Q"], "lambdas.json arc_trace: bad word letter 'Q'"),
    ("lambdas", ("arc_trace", "word"), [], "lambdas.json arc_trace: empty word"),
    ("lambdas", ("twists", "PVdeg", "table", "a,a"), "1",
     "lambdas.json twists.PVdeg: table key is 'a,a', not a pair of a, b, d, G1, G2"),
    ("lambdas", ("twists", "PVdeg", "table", "b,a"), "5",
     "lambdas.json twists.PVdeg: conflicting pairing on (b,a)"),
    ("arrows", ("embeddings", 6, "expected_mismatches", "b,b"), "0",
     "arrows.json embeddings[6]: expected_mismatches key is 'b,b', not a pair of different names"),
    ("lambdas", ("catalogs", "PV", "table", "a,b"), True,
     "lambdas.json catalogs.PV: table.a,b is True, not an integer or a fraction in a string"),
    ("lambdas", ("catalogs", "PV", "table", "a,b"), 0.1,
     "lambdas.json catalogs.PV: table.a,b is 0.1, not an integer or a fraction in a string"),
    ("cubics", ("cubics", "PVI", "omega", 0), None,
     "cubics.json cubics.PVI: omega[0] is None, not a string"),
    ("lambdas", ("catalogs", "PV", "shear_generators", 0), [],
     "lambdas.json catalogs.PV: shear_generators[0] is [], not a string"),
    ("charts", ("charts", "PVI", "x1"), None, "charts.json charts.PVI: x1 is None, not a string"),
    ("lambdas", ("catalogs", "PV", "entries", "a"), None,
     "lambdas.json catalogs.PV: entries.a is None, not a string"),
    ("cubics", ("cubics", "PV", "specialization", "Ginf"), None,
     "cubics.json cubics.PV: specialization.Ginf is None, not a string"),
    ("unfoldings", ("d4", "tail"), None, "unfoldings.json d4: tail is None, not a string"),
    ("unfoldings", ("a1_pvdeg", "charts", 1, "target"), [],
     "unfoldings.json a1_pvdeg: charts.1.target is [], not a string"),
    ("lambdas", ("catalogs", "PII_JM", "identifications"), {"G1": "x +* ("},
     "lambdas.json catalogs.PII_JM: identifications is {'G1': 'x +* ('}, "
     "not allowed without xexprs"),
    ("lambdas", ("catalogs", "PIV", "grafts", "s2", 1), "kz",
     "lambdas.json catalogs.PIV: grafts.s2[1] is 'kz', not one of s1, s2, s3, p1, k1, k2, k3, k4"),
    # a graft on the perimeter p1 pairs it, so no shear generator carries G1
    ("lambdas", ("catalogs", "PIV", "grafts"), {"s3": ["k1", "k2"], "p1": ["k3", "k4"]},
     "lambdas.json catalogs.PIV: central shear is [], not one per parameter of ['G1']"),
    ("lambdas", ("catalogs", "PV", "grafts", "s3"), ["k1", "k2", "s1"],
     "lambdas.json catalogs.PV: grafts.s3 is ['k1', 'k2', 's1'], not a cusp pair"),
    ("lambdas", ("theta", "s1,zz"), "1",
     "lambdas.json: theta key is 's1,zz', not a pair of s1, s2, s3, p1, p2, k1, k2"),
], ids=["negative-holes", "bool-holes", "unknown-status", "unknown-flip", "unknown-arrow-tag",
        "float-dim", "bool-dim", "string-phantom-hole", "float-eps", "bool-eps", "eps-2",
        "float-leaf-dim", "string-leaf-dim", "float-fibre-param", "unknown-embedding-tag",
        "embedding-image-sum", "short-cusp-pair", "short-eps", "string-eps", "bad-word-letter",
        "empty-word", "diagonal-twist-pair", "conflicting-twist-pair",
        "diagonal-expected-mismatch", "bool-table-coefficient", "float-table-coefficient",
        "null-omega-entry", "list-shear-generator", "null-chart-coordinate", "null-arc-entry",
        "null-specialization", "null-unfolding-tail", "list-unfolding-chart-target",
        "identifications-without-xexprs", "misnamed-graft-generator", "perimeter-graft",
        "graft-of-three", "misnamed-theta-key"])
def test_out_of_range_value_is_exit_2(tmp_path, capsys, name, path, value, message):
    root = catalog_copy(tmp_path, name, put(path, value))
    code, out, err = run_cli(capsys, "--catalog", root, "verify-all")
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("name, path, value, argv, group, where", [
    pytest.param("cubics", ("cubics", "PV", "table1"), "x1 +* (", ("show", "PV"), "cubics",
                 "cubics.json cubics.PV", id="cubics.PV.table1"),
    pytest.param("charts", ("charts", "PV", "normalization_subst", "p3", "image"), "e[p1 +* (",
                 ("chart", "PV"), "charts", "charts.json charts.PV",
                 id="charts.PV.normalization_subst.p3.image"),
    pytest.param("lambdas", ("catalogs", "PV", "xexprs", "x1"), "a +* (", ("lambda", "PV"),
                 "commutant", "lambdas.json catalogs.PV", id="catalogs.PV.xexprs.x1"),
    pytest.param("lambdas", ("catalogs", "PV", "casimirs", 2), "d*e^x", ("lambda", "PV"),
                 "casimirs", "lambdas.json catalogs.PV", id="catalogs.PV.casimirs[2]"),
])
def test_a_field_only_a_check_reads_is_parsed_by_that_check(tmp_path, capsys, name, path, value,
                                                            argv, group, where):
    # the loader keeps the text, so a verb that never reads it runs; the check
    # parses it inside the entry, so a malformed one is still exit 2 naming it
    root = catalog_copy(tmp_path, name, put(path, value))
    code, out, err = run_cli(capsys, "--catalog", root, *argv)
    assert (code, err) == (0, "") and out
    code, out, err = run_cli(capsys, "--catalog", root, "verify", group)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {where}: ") and len(err.splitlines()) == 1


def drop(path: tuple):
    """An edit that deletes the key at ``path``, a tuple of keys."""
    def edit(data):
        for key in path[:-1]:
            data = data[key]
        del data[path[-1]]
    return edit


@pytest.mark.parametrize("name, path, group, message", [
    ("charts", ("charts", "PVI", "G", "G3"), "charts",
     "charts.json charts.PVI: generator 'G3' not in Ring(s1, s2, s3, p1, p2, p3)"),
    # PVI's texts name no Ginf, so its cubic is the first text to miss it
    ("charts", ("charts", "PVI", "G", "Ginf"), "charts",
     "charts.json charts.PVI: generator 'Ginf' not in Ring(s1, s2, s3, p1, p2, p3)"),
    ("cubics", ("cubics", "PV", "table1_params", "w3"), "cubics",
     "cubics.json cubics.PV: table1 names w3, which table1_params does not define"),
    ("unfoldings", ("d4", "hat_params", "wh4"), "unfolding",
     "unfoldings.json d4: unknown symbol 'wh4' in '-2*x1^3 + x1*x2^2/2 + wh1*x1 + wh2*x2 "
     "+ wh3*x1^2 + wh4'"),
], ids=["chart-x", "chart-cubic", "reference-row", "unfolding-target"])
def test_a_text_naming_a_parameter_its_entry_does_not_define_is_exit_2(tmp_path, capsys, name,
                                                                       path, group, message):
    # a chart text is read over a ring holding every parameter name, so the
    # name left after substituting PVI's stated G is refused by the target ring
    # (a derived chart has all four G); a reference row names its missing
    # w-symbol; the unfolding target's ring holds the entry's own hat names,
    # so the parser refuses it
    root = catalog_copy(tmp_path, name, drop(path))
    code, out, err = run_cli(capsys, "--catalog", root, "verify", group)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_a_wrong_typed_unfolding_field_stops_the_unfold_verb_before_it_prints(tmp_path, capsys):
    root = catalog_copy(tmp_path, "unfoldings", put(("d4", "diffeo"), None))
    code, out, err = run_cli(capsys, "--catalog", root, "unfold", "PVI")
    assert (code, out, err) == (2, "", "error: unfoldings.json d4: diffeo is None, "
                                       "not a JSON object\n")


def test_a_casimir_that_is_not_a_string_stops_the_lambda_verb(tmp_path, capsys):
    # the loader keeps the Casimirs as text that the verb prints, so it checks their type
    root = catalog_copy(tmp_path, "lambdas", put(("catalogs", "PV", "casimirs", 0), None))
    code, out, err = run_cli(capsys, "--catalog", root, "lambda", "PV")
    assert (code, out) == (2, "")
    assert err == "error: lambdas.json catalogs.PV: casimirs[0] is None, not a string\n"


@pytest.mark.parametrize("argv", [("lambda", "PV"), ("bracket", "PV", "a", "b"), ("verify-all",)])
def test_pair_listed_in_both_orders_must_be_opposite(tmp_path, capsys, argv):
    # the arc catalog checks its table at load, before any structure is built
    root = catalog_copy(tmp_path, "lambdas", put(("catalogs", "PV", "table", "b,a"), "5"))
    assert run_cli(capsys, "--catalog", root, *argv) == (
        2, "", "error: lambdas.json catalogs.PV: conflicting pairing on (b,a)\n")
    root = catalog_copy(tmp_path, "lambdas", put(("catalogs", "PV", "table", "b,a"), -1))
    assert run_cli(capsys, "--catalog", root, *argv)[0] == 0


@pytest.mark.parametrize("field", ["sub", "ambient"])
def test_embedding_end_that_is_not_a_tag_stops_export_inclusions(tmp_path, capsys, field):
    root = catalog_copy(tmp_path, "arrows", put(("embeddings", 0, field), ["x"]))
    code, out, err = run_cli(capsys, "--catalog", root, "export", "inclusions")
    assert (code, out) == (2, "")
    assert err == f"error: arrows.json embeddings[0]: {field} is ['x'], not an arc catalog tag\n"


def test_unreadable_catalog_file_is_exit_2(tmp_path, capsys):
    root = catalog_copy(tmp_path, "cubics", lambda data: None)
    (tmp_path / "cubics.json").unlink()
    code, out, err = run_cli(capsys, "--catalog", root, "show", "PV")
    assert (code, out) == (2, "")
    assert err == (f"error: cannot read catalog 'cubics': [Errno 2] No such file or directory: "
                   f"'{tmp_path / 'cubics.json'}'\n")


def test_catalog_that_is_not_an_object_is_exit_2(tmp_path, capsys):
    root = catalog_copy(tmp_path, "signatures", lambda data: None)
    (tmp_path / "signatures.json").write_text("[]")
    code, out, err = run_cli(capsys, "--catalog", root, "signature", "PV")
    assert (code, out, err) == (2, "", "error: catalog 'signatures' is not a JSON object\n")


@pytest.mark.parametrize("shift, message", [
    ({"q7": -2}, "shift key is 'q7', not one of s1, s2, s3, p1, p2, p3"),
    ({"p3": "1/3"}, "shift.p3 is '1/3', not an integer"),
    ({"p3": -2.0}, "shift.p3 is -2.0, not an integer"),
], ids=["unknown-coordinate", "fraction", "float"])
def test_bad_arrow_shift_names_its_file_and_key(tmp_path, capsys, shift, message):
    root = catalog_copy(tmp_path, "arrows", put(("arrows", 0, "shift"), shift))
    code, out, err = run_cli(capsys, "--catalog", root, "verify", "confluence")
    assert code == 2 and out == ""
    assert err == f"error: arrows.json arrows[0]: {message}\n"


def renamed(path: tuple, key: str):
    """An edit that renames ``key`` of the object at ``path`` to ``key + "zz"``, in place."""
    def edit(data):
        for part in path:
            data = data[part]
        items = [(k + "zz" if k == key else k, v) for k, v in data.items()]
        data.clear()
        data.update(items)
    return edit


@pytest.mark.parametrize("name, path, key, message", [
    ("charts", ("charts", "PVI", "G"), "Ginf",
     "charts.json charts.PVI: G key is 'Ginfzz', not one of G1, G2, G3, Ginf"),
    ("charts", ("charts", "PI", "normalization_subst"), "s3",
     "charts.json charts.PI: normalization_subst key is 's3zz', not one of s1, s2, s3, p1, p2, p3"),
    ("charts", ("charts", "PV", "normalization_targets"), "Ginf",
     "charts.json charts.PV: normalization_targets key is 'Ginfzz', not one of G1, G2, G3, Ginf"),
    ("lambdas", ("catalogs", "PV", "identifications"), "Ginf",
     "lambdas.json catalogs.PV: identifications key is 'Ginfzz', not one of G1, G2, G3, Ginf"),
    ("lambdas", ("catalogs", "PV", "xexprs"), "x1",
     "lambdas.json catalogs.PV: xexprs key is 'x1zz', not one of x1, x2, x3"),
    ("lambdas", ("catalogs", "PV", "cusp_indices"), "b",
     "lambdas.json catalogs.PV: cusp_indices key is 'bzz', not one of a, b, c, d, e"),
    # without its grafts, PV's structure is its three quoted brackets, which
    # leave s1 and s2 central beside the perimeters
    ("lambdas", ("catalogs", "PV"), "grafts",
     "lambdas.json catalogs.PV: central shear is ['s1', 's2', 'p1', 'p2'], "
     "not one per parameter of ['G1', 'G2']"),
    ("lambdas", ("catalogs", "PIV", "grafts"), "s2",
     "lambdas.json catalogs.PIV: grafts key is 's2zz', not one of s1, s2, s3, p1, k1, k2, k3, k4"),
    ("lambdas", ("catalogs", "PV", "stated_log_brackets"), "k1,k2",
     "lambdas.json catalogs.PV: stated_log_brackets key is 'k1,k2zz', "
     "not a pair of s1, s2, s3, p1, p2, k1, k2"),
    ("arrows", ("embeddings", 2, "images"), "a",
     "arrows.json embeddings[2]: images key is 'azz', not one of a, b, c, d, e, f, h"),
    ("lambdas", ("twists", "PV", "steps", 0), "a",
     "lambdas.json twists.PV: steps[0] key is 'azz', not one of a, b"),
], ids=["chart-G", "normalization-subst", "normalization-targets", "identifications", "xexprs",
        "cusp-indices", "central-shear", "graft-edge", "stated-log-brackets", "embedding-images",
        "twist-step"])
def test_misnamed_key_names_its_file_and_key(tmp_path, capsys, name, path, key, message):
    # a key the code looks a name up by, misspelt: exit 2 naming the entry,
    # not a RingError or KeyError from deep inside a certificate
    root = catalog_copy(tmp_path, name, renamed(path, key))
    code, out, err = run_cli(capsys, "--catalog", root, "verify-all")
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_half_power_on_a_full_power_generator_takes_its_monomial_root(tmp_path, capsys):
    # G1 at e[p1/2] needs g_p1^1, whose normalisation image is now given for
    # g_p1^2: the image is a monomial, so its square root is taken and the PI
    # normalisation fails on the changed parameter instead of the run erroring
    root = catalog_copy(tmp_path, "charts", put(("charts", "PI", "normalization_subst", "p1"),
                                                {"power": "full", "image": "e[s1]"}))
    code, out, err = run_cli(capsys, "--catalog", root, "verify-all")
    failed = [line.split()[1] for line in out.splitlines() if line.startswith("FAIL")]
    assert code == 1 and err == ""
    assert failed == ["chart-normalization-PI"]


def derive_from(moves: dict):
    """An edit that gives arrow i of arrows.json the source ``moves[i]``."""
    def edit(data):
        for i, src in moves.items():
            data["arrows"][i]["src"] = src
    return edit


@pytest.mark.parametrize("argv, message", [
    (("show", "PIII_D7"), "cubics.json cubics.PIII_D7: "
                          "arrows.json arrows has no primary arrow -> PIII_D7"),
    (("chart", "PIII_D8"), "charts.json charts.PIII_D7: "
                           "arrows.json arrows has no primary arrow -> PIII_D7"),
    (("verify-all",), "charts.json charts.PIII_D7: "
                      "arrows.json arrows has no primary arrow -> PIII_D7"),
], ids=["show", "chart-below", "verify-all"])
def test_a_tag_that_states_no_cubic_needs_a_primary_arrow_into_it(tmp_path, capsys, argv,
                                                                 message):
    # only the secondary PVdeg -> PIII_D7 is left, so PIII_D7 has nothing to derive from
    assert catalog.load("arrows")["arrows"][4] == {"src": "PIII_D6", "dst": "PIII_D7",
                                                   "shift": {"s3": -1}}
    root = catalog_copy(tmp_path, "arrows", lambda data: data["arrows"].pop(4))
    assert run_cli(capsys, "--catalog", root, *argv) == (2, "", f"error: {message}\n")


def test_a_second_primary_arrow_into_a_tag_is_exit_2(tmp_path, capsys):
    # PIII_D7 is derived along the first primary arrow into it, so a second one,
    # perturbed or not, would be certified against that one's limit
    def make_primary(data):
        del data["arrows"][5]["secondary"]

    assert catalog.load("arrows")["arrows"][5]["src"] == "PVdeg"
    root = catalog_copy(tmp_path, "arrows", make_primary)
    assert run_cli(capsys, "--catalog", root, "verify", "confluence") == (
        2, "", "error: arrows.json arrows: PVdeg -> PIII_D7 is a second primary arrow "
               "into PIII_D7\n")


@pytest.mark.parametrize("argv, cycle", [
    (("show", "PI"), "PVdeg -> PI -> PVdeg"), (("chart", "Weierstrass"), "PI -> PVdeg -> PI"),
    (("verify-all",), "PI -> PVdeg -> PI"), (("export", "catalog"), "PI -> PVdeg -> PI"),
    (("confluence", "PI", "PVdeg"), "PVdeg -> PI -> PVdeg"),
], ids=["show", "chart", "verify-all", "export-catalog", "confluence"])
def test_a_cycle_of_primary_arrows_is_exit_2(tmp_path, capsys, argv, cycle):
    # PV -> PVdeg becomes PI -> PVdeg and PII_JM -> PI becomes PVdeg -> PI; the
    # cycle is named from the first tag whose limit meets it
    arrows = catalog.load("arrows")["arrows"]
    assert [(arrows[i]["src"], arrows[i]["dst"]) for i in (1, 10)] == [("PV", "PVdeg"),
                                                                      ("PII_JM", "PI")]
    root = catalog_copy(tmp_path, "arrows", derive_from({1: "PI", 10: "PVdeg"}))
    assert run_cli(capsys, "--catalog", root, *argv) == (
        2, "", f"error: arrows.json arrows: primary arrows form a cycle {cycle}\n")


@pytest.mark.parametrize("argv, arrow, part", [
    (("verify-all",), "PV -> PVdeg", "-x2 * G2 * Ginf + x2^2 + Ginf^2"),
    (("show", "PVdeg"), "PV -> PVdeg", "-x2 * G2 * Ginf + x2^2 + Ginf^2"),
    (("chart", "PI"), "PII_JM -> PI", "-x2 * G2 * Ginf + Ginf^2"),
], ids=["verify-all", "show", "chart"])
def test_a_limit_that_is_not_a_cubic_is_exit_2(tmp_path, capsys, argv, arrow, part):
    # PVI's x1 loses its term e[s2+s3+p2/2+p3/2], so the least-weight part of a
    # derived phi lacks x1 x2 x3 and eps and omega read off it would be no cubic's;
    # before the shape check, six derived chart-* certificates failed instead
    def drop_first_term(data):
        x1 = data["charts"]["PVI"]["x1"]
        assert x1.startswith("-e[s2+s3+p2/2+p3/2] - ")
        data["charts"]["PVI"]["x1"] = x1.removeprefix("-e[s2+s3+p2/2+p3/2] ")

    root = catalog_copy(tmp_path, "charts", drop_first_term)
    assert run_cli(capsys, "--catalog", root, *argv) == (
        2, "", f"error: arrows.json arrows: along {arrow} the least-weight part of phi is "
               f"{part}, not of the form x1 x2 x3 + sum eps_i x_i^2 + sum omega_i x_i + omega_4\n")


def appended(path: tuple, text: str):
    """An edit that appends ``text`` to the string at ``path``."""
    def edit(data):
        for key in path[:-1]:
            data = data[key]
        data[path[-1]] += text
    return edit


@pytest.mark.parametrize("name, edit, failed", [
    # PIII_D6's cubic and chart are the limit along PV -> PIII_D6, and PIII_D7's and
    # PIII_D8's follow from them: their reference rows and texts fail, and so does
    # the route through PIII_D6, which no longer meets the one through PVdeg
    pytest.param("arrows", put(("arrows", 3, "shift", "s1"), 1),
                 ["table1-PIII_D6", "table1-PIII_D7", "table1-PIII_D8",
                  "confluence-PIII_D6-PIII_D7", "confluence-PIII_D7-PIII_D8",
                  "confluence-PV-PIII_D6", "confluence-two-route"], id="primary-shift"),
    pytest.param("arrows", put(("arrows", 9, "shift", "s1"), 1), ["confluence-PVdeg-PII_FN"],
                 id="secondary-shift"),
    # PI's chart is the limit of PII_JM's; its texts are checked by both arrows into it
    pytest.param("charts", appended(("charts", "PI", "x1"), " + 1"),
                 ["confluence-PII_FN-PI", "confluence-PII_JM-PI"], id="derived-chart-text"),
])
def test_a_perturbed_arrow_or_derived_text_fails_exactly_its_certificates(tmp_path, capsys, name,
                                                                          edit, failed):
    root = catalog_copy(tmp_path, name, edit)
    code, out, err = run_cli(capsys, "--catalog", root, "verify-all")
    assert (code, err) == (1, "")
    assert [line.split()[1] for line in out.splitlines() if line.startswith("FAIL")] == failed


def test_zero_chart_coordinate_has_no_confluence_limit(tmp_path, capsys):
    root = catalog_copy(tmp_path, "charts", put(("charts", "PVI", "x1"), "0"))
    code, out, err = run_cli(capsys, "--catalog", root, "verify", "confluence")
    assert code == 2 and out == ""
    assert err == "error: charts.json charts.PVI: x1 is zero, so it has no leading part\n"


ARC_CATALOGS = "PV, PVdeg, PIV, PIII_hat, PIII_tilde, PIII_D7, PIII_D8, PII_JM, PII_FN"


def test_lookup_error_in_an_entry_is_its_own_sentence(tmp_path, capsys):
    # an entry's reference to another entry is a lookup, named by the entry
    for tag, field in (("PIII_D7", "subset_of"), ("PIII_hat", "table_ref")):
        root = catalog_copy(tmp_path, "lambdas", put(("catalogs", tag, field), "NOPE"))
        code, out, err = run_cli(capsys, "--catalog", root, "verify-all")
        assert (code, out) == (2, "")
        assert err == (f"error: lambdas.json catalogs.{tag}: "
                       f"lambdas.json catalogs has no 'NOPE' (have {ARC_CATALOGS})\n")


@pytest.mark.parametrize("argv, name, edit", [
    pytest.param(("show", "PX"), "cubics", None, id="show"),
    pytest.param(("chart", "PX"), "charts", None, id="chart"),
    pytest.param(("lambda", "PX"), "lambdas", None, id="lambda"),
    pytest.param(("signature", "PX"), "signatures", None, id="signature"),
    pytest.param(("twist", "PX"), "lambdas", None, id="twist"),
    pytest.param(("unfold", "PX"), "unfoldings", None, id="unfold"),
    pytest.param(("lambda", "PIII_D7"), "lambdas",
                 put(("catalogs", "PIII_D7", "subset_of"), "NOPE"), id="subset_of"),
    pytest.param(("twist", "PV"), "lambdas", lambda data: data.pop("twists"), id="no-section"),
    pytest.param(("twist", "PV"), "lambdas", put(("twists",), []), id="list-section"),
    pytest.param(("verify", "lambda"), "lambdas",
                 lambda data: data.update(catalogs=list(data["catalogs"].values())),
                 id="list-catalogs"),
    pytest.param(("export", "confluence"), "arrows", lambda data: data.pop("arrows"),
                 id="no-arrows-section"),
    pytest.param(("verify", "twists"), "lambdas", lambda data: data.pop("twists"),
                 id="verify-no-twists-section"),
    pytest.param(("verify", "charts"), "cubics", lambda data: data.pop("tags"), id="no-tags"),
    pytest.param(("verify", "unfolding"), "unfoldings", put(("a3",), ["x"]),
                 id="unfolding-entry-not-an-object"),
    pytest.param(("verify", "lambda"), "lambdas", put(("catalogs", "PV"), 5),
                 id="arc-catalog-not-an-object"),
    pytest.param(("verify", "commutant"), "lambdas",
                 lambda data: data["catalogs"]["PV"]["xexprs"].pop("x1"), id="xexprs-without-x1"),
    pytest.param(("verify", "charts"), "charts",
                 lambda data: data["charts"]["PVI"]["G"].pop("Ginf"), id="chart-G-without-Ginf"),
    pytest.param(("unfold", "PII_JM"), "unfoldings", put(("a1_pii", "tag"), None),
                 id="unfold-tag-not-a-string"),
    # the two-route and composite checks look up PVdeg -> PIII_D7 and PV in PIV
    pytest.param(("verify", "confluence"), "arrows", lambda data: data["arrows"].pop(5),
                 id="deleted-arrow"),
    pytest.param(("verify", "confluence"), "arrows", lambda data: data["embeddings"].pop(0),
                 id="deleted-embedding"),
])
def test_unknown_key_names_its_file(tmp_path, capsys, argv, name, edit):
    root = catalog_copy(tmp_path, name, edit or (lambda data: None))
    code, out, err = run_cli(capsys, "--catalog", root, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {name}.json") and len(err.splitlines()) == 1


def test_stray_expected_mismatch_is_exit_2(tmp_path, capsys):
    # a documented mismatch that names no pair of the imaged sub-table is a
    # catalog error, not a silently ignored key
    path = ("embeddings", 6, "expected_mismatches", "a,z")
    assert catalog.load("arrows")["embeddings"][6]["sub"] == "PII_FN"
    root = catalog_copy(tmp_path, "arrows", put(path, "5"))
    code, out, err = run_cli(capsys, "--catalog", root, "verify", "confluence")
    assert code == 2 and out == ""
    assert err.startswith("error: arrows.json embeddings[6]: expected_mismatches a,z ")
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err


def without_shear_structure(tag: str):
    """An edit that drops the log brackets of catalog ``tag``, and its parameters,
    whose central shear generators a structure would carry."""
    def edit(data):
        for field in ("grafts", "stated_log_brackets", "params"):
            data["catalogs"][tag].pop(field, None)
    return edit


def test_pv_without_log_brackets_is_exit_2(tmp_path, capsys):
    root = catalog_copy(tmp_path, "lambdas", without_shear_structure("PV"))
    code, out, err = run_cli(capsys, "--catalog", root, "verify", "atlas")
    assert code == 2 and out == ""
    assert err == ("error: lambdas.json pv_to_piii: "
                   "the PV arc catalog has no shear-level structure\n")


def test_table_without_log_brackets_names_its_catalog(tmp_path, capsys):
    root = catalog_copy(tmp_path, "lambdas", without_shear_structure("PV"))
    code, out, err = run_cli(capsys, "--catalog", root, "verify", "lambda")
    assert code == 2 and out == ""
    assert err == ("error: lambdas.json catalogs.PV: "
                   "PV has no shear-level structure to verify against\n")


def test_missing_field_reads_missing_key(tmp_path, capsys):
    def drop_shift(data):
        del data["arrows"][0]["shift"]

    root = catalog_copy(tmp_path, "arrows", drop_shift)
    code, out, err = run_cli(capsys, "--catalog", root, "verify-all")
    assert code == 2 and out == ""
    assert err == "error: arrows.json arrows[0]: missing key 'shift'\n"


MISMATCH_DETAIL = {
    "theta":
        "unique solution; differs from frozen matrix; quoted coordinate brackets reproduced",
    "stated_log_brackets":
        "unique solution; matches frozen matrix; quoted coordinate brackets not reproduced",
}


@pytest.mark.parametrize("table, key, value, residue", [
    ("theta", "s1,s2", "5", "('s1', 's2', 'solved 1, catalog 5')"),
    ("stated_log_brackets", "k1,k2", "3", "('k1', 'k2', 'solved 1, catalog 3')"),
])
def test_quoted_log_bracket_mismatch_is_named(tmp_path, capsys, table, key, value, residue):
    # the theta bracket is shared at the top level; the quoted brackets are PV's own
    path = ("theta", key) if table == "theta" else ("catalogs", "PV", table, key)
    root = catalog_copy(tmp_path, "lambdas", put(path, value))
    code, out, _ = run_cli(capsys, "--catalog", root, "verify", "lambda")
    line = next(line for line in out.splitlines() if " lambda-solve-PV " in line)
    assert code == 1 and line.startswith("FAIL")
    assert f"[{MISMATCH_DETAIL[table]}]  residue: [{residue}]" in line


def test_failed_solve_says_what_failed(tmp_path, capsys):
    # arc b equal to arc a makes {a, b} = c a b unsolvable for c != 0
    root = catalog_copy(tmp_path, "lambdas", put(("catalogs", "PV", "entries", "b"), PV_ARC_A))
    code, out, _ = run_cli(capsys, "--catalog", root, "verify", "lambda")
    line = next(line for line in out.splitlines() if " lambda-solve-PV " in line)
    assert code == 1 and line.startswith("FAIL")
    assert "[no solution: the table is inconsistent]  residue: ['{a,b} = 1*a*b']" in line
    assert "matches" not in line


def test_underdetermined_solve_names_its_free_pairs(tmp_path, capsys):
    def thin(data):
        table = data["catalogs"]["PV"]["table"]
        data["catalogs"]["PV"]["table"] = dict(list(table.items())[:2])

    root = catalog_copy(tmp_path, "lambdas", thin)
    code, out, _ = run_cli(capsys, "--catalog", root, "verify", "lambda")
    line = next(line for line in out.splitlines() if " lambda-solve-PV " in line)
    assert code == 1 and line.startswith("FAIL")
    assert "[no unique solution: 8 pairs left free]  residue: [('s1', 'k1'), " in line


@pytest.mark.parametrize("tag, edit", [
    ("PIII_hat", put(("catalogs", "PIII_hat", "casimirs"), ["a"])),
    ("PIV", without_shear_structure("PIV")),
], ids=["sum-entries", "no-shear-structure"])
def test_casimirs_without_a_monomial_shear_structure_are_exit_2(tmp_path, capsys, tag, edit):
    root = catalog_copy(tmp_path, "lambdas", edit)
    code, out, err = run_cli(capsys, "--catalog", root, "verify", "casimirs")
    assert code == 2 and out == ""
    assert err == (f"error: lambdas.json catalogs.{tag}: "
                   f"{tag} has Casimirs but no monomial shear-level structure\n")


GRAFTED = [tag for tag, entry in catalog.load("lambdas")["catalogs"].items() if "grafts" in entry]


def failed_lambda_certificates(tmp_path, capsys, edit) -> set:
    root = catalog_copy(tmp_path, "lambdas", edit)
    code, out, _ = run_cli(capsys, "--catalog", root, "verify", "lambda")
    assert code == 1
    return {line.split()[1] for line in out.splitlines() if line.startswith("FAIL")}


def test_a_graft_moved_to_another_edge_fails_both_lambda_certificates(tmp_path, capsys):
    def move(data):
        grafts = data["catalogs"]["PIV"]["grafts"]
        grafts["s1"] = grafts.pop("s3")

    assert failed_lambda_certificates(tmp_path, capsys, move) == {"lambda-table-PIV",
                                                                  "lambda-solve-PIV"}


def test_a_changed_theta_bracket_fails_every_grafted_catalog(tmp_path, capsys):
    # PIII_tilde states its structure and PIII_hat quotes its own, so both still pass
    failed = failed_lambda_certificates(tmp_path, capsys, put(("theta", "s2,s3"), "2"))
    assert GRAFTED == ["PV", "PVdeg", "PIV", "PII_JM", "PII_FN"]
    assert failed == {f"lambda-{kind}-{tag}" for tag in GRAFTED for kind in ("table", "solve")}


@pytest.mark.parametrize("name, path, value, group, cid", [
    pytest.param("lambdas", ("catalogs", "PV", "table", "a,b"), "2", "lambda",
                 "lambda-table-PV", id="table-coefficient"),
    pytest.param("arrows", ("embeddings", 0, "images", "a"), "a*b^3", "confluence",
                 "embedding-PV-in-PIV", id="embedding-exponent"),
    pytest.param("arrows", ("embeddings", 6, "expected_mismatches", "d,f"), "1/2", "confluence",
                 "embedding-PII_FN-in-PIV", id="documented-mismatch"),
    pytest.param("lambdas", ("catalogs", "PV", "xexprs", "x1"), "-e*a/c + d*b/c", "commutant",
                 "commutant-PV", id="xexprs-sign"),
    pytest.param("lambdas", ("twists", "PVdeg", "table", "a,d"), "1", "twists",
                 "twist-frozen-PVdeg", id="twist-frozen-pair"),
    pytest.param("signatures", ("signatures", "PV", "dim"), 8, "signatures",
                 "signature-PV", id="signature-dim"),
    pytest.param("lambdas", ("pv_to_piii", "log_brackets", "s2,p2"), "-2", "atlas",
                 "pv-to-piii-change", id="pv-to-piii-log-bracket"),
    pytest.param("lambdas", ("arc_trace", "word"), ARC_WORD[:-1], "arcs",
                 "arc-trace-b", id="arc-trace-letter-dropped"),
    pytest.param("lambdas", ("catalogs", "PV", "entries", "b"), PV_ARC_A, "lambda",
                 "lambda-solve-PV", id="duplicated-arc-entry"),
    pytest.param("unfoldings", ("a3", "relation_rhs"), A3_RELATION_RHS + " + x1", "unfolding",
                 "unfold-a3", id="unfolding-relation"),
    pytest.param("cubics", ("cubics", "PIII_D6", "table1_status"), "exact", "cubics",
                 "table1-PIII_D6", id="table1-flip-undocumented"),
])
def test_value_perturbation_fails(tmp_path, capsys, name, path, value, group, cid):
    root = catalog_copy(tmp_path, name, put(path, value))
    code, out, _ = run_cli(capsys, "--catalog", root, "verify", group)
    assert code == 1 and f"FAIL  {cid} " in out


@pytest.fixture(scope="module")
def copies(tmp_path_factory):
    return catalog_mutations.Copies(tmp_path_factory.mktemp("mutants"))


# each example resets the catalog root itself, so the autouse reset may stay function-scoped
@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(catalog_mutations.mutants(catalog_mutations.wrong_type)))
def test_wrong_typed_leaf_is_a_verdict_or_a_named_error(copies, mutant):
    # one leaf set to None, [], {}, 1.5 or "zz+": the run ends in a verdict or
    # in exit 2 naming its file, never in an exception out of main
    code, err = copies.run(*mutant)
    assert code in (0, 1, 2), code
    assert code != 2 or (".json" in err and len(err.splitlines()) == 1), err
