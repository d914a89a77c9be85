"""Perturbations of the catalogs make their certificates fail, and malformed
entries exit 2 naming their file and key.

Each test edits a copy of the catalogs under ``tmp_path`` and points the
CLI (``--catalog``) or the library at it.
"""

import json
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
    certs = {c.cid: c.passed for c in verify.run(["twists"])}
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
    pytest.param("cubics", ("cubics", "PV", "omega", 0), "G1 +* (", "cubics.json cubics.PV",
                 id="cubics.PV.omega[0]"),
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
    pytest.param("cubics", ("cubics", "PV", "omega"), ["G1", "G2", "G3"], "cubics.json cubics.PV",
                 id="cubics.PV.omega-three"),
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
    ("cubics", ("cubics", "PV", "eps", 0), 1.5,
     "cubics.json cubics.PV: eps[0] is 1.5, not one of 0, 1"),
    ("cubics", ("cubics", "PV", "eps", 0), True,
     "cubics.json cubics.PV: eps[0] is True, not one of 0, 1"),
    ("cubics", ("cubics", "PV", "eps", 0), 2,
     "cubics.json cubics.PV: eps[0] is 2, not one of 0, 1"),
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
    ("cubics", ("cubics", "PV", "eps"), [1, 1],
     "cubics.json cubics.PV: eps is [1, 1], not three of 0 and 1"),
    ("cubics", ("cubics", "PV", "eps"), "11", "cubics.json cubics.PV: eps is '11', not an array"),
    ("lambdas", ("arc_trace", "word"), ["Q"], "lambdas.json arc_trace: bad word letter 'Q'"),
    ("lambdas", ("arc_trace", "word"), [], "lambdas.json arc_trace: empty word"),
    ("lambdas", ("twists", "PVdeg", "table", "a,a"), "1",
     "lambdas.json twists.PVdeg: table key is 'a,a', not a pair of a, b, d, G1, G2"),
    ("lambdas", ("twists", "PVdeg", "table", "b,a"), "5",
     "lambdas.json twists.PVdeg: conflicting pairing on (b,a)"),
    ("arrows", ("embeddings", 6, "expected_mismatches", "b,b"), "0",
     "arrows.json embeddings[6]: expected_mismatches key is 'b,b', not a pair of different names"),
], ids=["negative-holes", "bool-holes", "unknown-status", "unknown-flip", "unknown-arrow-tag",
        "float-dim", "bool-dim", "string-phantom-hole", "float-eps", "bool-eps", "eps-2",
        "float-leaf-dim", "string-leaf-dim", "float-fibre-param", "unknown-embedding-tag",
        "embedding-image-sum", "short-cusp-pair", "short-eps", "string-eps", "bad-word-letter",
        "empty-word", "diagonal-twist-pair", "conflicting-twist-pair",
        "diagonal-expected-mismatch"])
def test_out_of_range_value_is_exit_2(tmp_path, capsys, name, path, value, message):
    root = catalog_copy(tmp_path, name, put(path, value))
    code, out, err = run_cli(capsys, "--catalog", root, "verify-all")
    assert (code, out, err) == (2, "", f"error: {message}\n")


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
    ("charts", ("charts", "PV", "G"), "Ginf",
     "charts.json charts.PV: G key is 'Ginfzz', not one of G1, G2, G3, Ginf"),
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
    ("lambdas", ("catalogs", "PV"), "central_shear",
     "lambdas.json catalogs.PV: central_shear is [], not one per parameter"),
    ("lambdas", ("catalogs", "PV", "stated_log_brackets"), "k1,k2",
     "lambdas.json catalogs.PV: stated_log_brackets key is 'k1,k2zz', "
     "not a pair of s1, s2, s3, p1, p2, k1, k2"),
    ("arrows", ("embeddings", 2, "images"), "a",
     "arrows.json embeddings[2]: images key is 'azz', not one of a, b, c, d, e, f, h"),
    ("lambdas", ("twists", "PV", "steps", 0), "a",
     "lambdas.json twists.PV: steps[0] key is 'azz', not one of a, b"),
], ids=["chart-G", "normalization-subst", "normalization-targets", "identifications", "xexprs",
        "cusp-indices", "central-shear", "stated-log-brackets", "embedding-images", "twist-step"])
def test_misnamed_key_names_its_file_and_key(tmp_path, capsys, name, path, key, message):
    # a key the code looks a name up by, misspelt: exit 2 naming the entry,
    # not a RingError or KeyError from deep inside a certificate
    root = catalog_copy(tmp_path, name, renamed(path, key))
    code, out, err = run_cli(capsys, "--catalog", root, "verify-all")
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_half_power_on_a_full_power_generator_takes_its_monomial_root(tmp_path, capsys):
    # Ginf at e[s3/2] needs g_s3^1, whose normalisation image is given for
    # g_s3^2: the image is a monomial, so its square root is taken and the PI
    # certificates fail on the changed parameter instead of the run erroring
    def halve(data):
        G = data["charts"]["PI"]["G"]
        G["Ginf"] = G["Ginf"].replace("s3", "s3/2")

    root = catalog_copy(tmp_path, "charts", halve)
    code, out, err = run_cli(capsys, "--catalog", root, "verify-all")
    failed = [line.split()[1] for line in out.splitlines() if line.startswith("FAIL")]
    assert code == 1 and err == ""
    assert failed == ["chart-PI", "chart-normalization-PI"]


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


def test_pv_without_log_brackets_is_exit_2(tmp_path, capsys):
    def drop(data):
        for table in ("solved_log_brackets", "stated_log_brackets"):
            del data["catalogs"]["PV"][table]

    root = catalog_copy(tmp_path, "lambdas", drop)
    code, out, err = run_cli(capsys, "--catalog", root, "verify", "atlas")
    assert code == 2 and out == ""
    assert err == ("error: lambdas.json pv_to_piii: "
                   "the PV arc catalog has no shear-level structure\n")


def test_table_without_log_brackets_names_its_catalog(tmp_path, capsys):
    def drop(data):
        for table in ("solved_log_brackets", "stated_log_brackets"):
            del data["catalogs"]["PV"][table]

    root = catalog_copy(tmp_path, "lambdas", drop)
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
    "solved_log_brackets":
        "unique solution; differs from frozen matrix; quoted coordinate brackets reproduced",
    "stated_log_brackets":
        "unique solution; matches frozen matrix; quoted coordinate brackets not reproduced",
}


@pytest.mark.parametrize("table, key, value, residue", [
    ("solved_log_brackets", "s1,s2", "5", "('s1', 's2', 'solved 1, catalog 5')"),
    ("stated_log_brackets", "k1,k2", "3", "('k1', 'k2', 'solved 1, catalog 3')"),
])
def test_quoted_log_bracket_mismatch_is_named(tmp_path, capsys, table, key, value, residue):
    root = catalog_copy(tmp_path, "lambdas", put(("catalogs", "PV", table, key), value))
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
    ("PIII_hat", lambda entry: entry.update(casimirs=["a"])),
    ("PIV", lambda entry: entry.pop("solved_log_brackets")),
], ids=["sum-entries", "no-shear-structure"])
def test_casimirs_without_a_monomial_shear_structure_are_exit_2(tmp_path, capsys, tag, edit):
    root = catalog_copy(tmp_path, "lambdas", lambda data: edit(data["catalogs"][tag]))
    code, out, err = run_cli(capsys, "--catalog", root, "verify", "casimirs")
    assert code == 2 and out == ""
    assert err == (f"error: lambdas.json catalogs.{tag}: "
                   f"{tag} has Casimirs but no monomial shear-level structure\n")


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
