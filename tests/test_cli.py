"""Command-line behaviour: output shapes, determinism, exit codes, in
process and in fresh interpreters, and the freeze at interpreter exit."""

import ast
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from painleve_cubics.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


CUBIC_TAGS = "PVI, PV, PVdeg, PIV, PIII_D6, PIII_D7, PIII_D8, PII_JM, PII_FN, PI, Weierstrass"
NO_CUBIC_P99 = f"error: cubics.json cubics has no 'P99' (have {CUBIC_TAGS})\n"


def test_show_pi(capsys):
    code, out, _ = run_cli(capsys, "show", "PI")
    assert code == 0
    assert out.strip() == "x1 x2 x3 - x1 - x2 + 1"


def test_show_unknown_tag_exits_2(capsys):
    code, _, err = run_cli(capsys, "show", "P99")
    assert code == 2
    assert err == NO_CUBIC_P99


def test_signature_pv(capsys):
    code, out, _ = run_cli(capsys, "signature", "PV")
    assert code == 0
    assert "s=3 n=2 dim=7 katz=0,0,1" in out


def test_chart_output(capsys):
    code, out, _ = run_cli(capsys, "chart", "PIII_D8")
    assert code == 0
    assert "x2 = -e[s3-s1+p3/2-p1/2]" in out


def test_chart_json_is_the_catalog_chart(capsys):
    from painleve_cubics import catalog, parse_poly
    from painleve_cubics.shear import chart

    code, out, _ = run_cli(capsys, "--format", "json", "chart", "PVI")
    printed, ch, raw = json.loads(out), chart("PVI"), catalog.load("charts")["charts"]["PVI"]
    assert code == 0 and printed["tag"] == "PVI"
    assert printed["normalization"] == raw["normalization"]
    assert printed["x_symbols"] == {n: raw[n] for n in ("x1", "x2", "x3")}
    assert [parse_poly(printed["x"][n], ch.ring) for n in ("x1", "x2", "x3")] == list(ch.x)
    assert {n: parse_poly(text, ch.ring) for n, text in printed["G"].items()} == ch.G
    assert set(printed["G"]) == set(raw["G"])


def test_lambda_json_is_the_catalog_table(capsys):
    from fractions import Fraction
    from painleve_cubics import catalog, parse_poly
    from painleve_cubics.arcs import lambda_catalog

    code, out, _ = run_cli(capsys, "--format", "json", "lambda", "PV")
    printed, cat = json.loads(out), lambda_catalog("PV")
    raw = catalog.load("lambdas")["catalogs"]["PV"]
    assert code == 0 and printed["tag"] == "PV"
    ring = cat.shear_ring
    assert {n: parse_poly(text, ring) for n, text in printed["entries"].items()} == cat.entries
    for name, terms in printed["entry_terms"].items():
        rebuilt = sum((Fraction(t["c"]) * ring.monomial({g: int(e) for g, e in t["e"].items()})
                       for t in terms), ring.zero())
        assert rebuilt == cat.entries[name], name
    assert {tuple(k.split(",")): Fraction(c) for k, c in printed["table"].items()} == cat.table
    assert printed["table"].keys() == raw["table"].keys()
    assert printed["frozen"] == raw["frozen"] and printed["casimirs"] == raw["casimirs"]
    assert printed["leaf_dim"] == raw["leaf_dim"]
    assert printed["cusp_indices"] == raw["cusp_indices"]
    assert printed["shear_structure"] == cat.shear_structure.to_json()


def test_lambda_and_bracket(capsys):
    code, out, _ = run_cli(capsys, "lambda", "PV")
    assert code == 0
    assert "casimirs: G1, G2, d*e" in out
    code, out, _ = run_cli(capsys, "bracket", "PV", "a", "d")
    assert code == 0
    assert "{a,d} = -1/2 * a * d" in out


def test_bracket_prints_the_structure_pairing(capsys):
    # the verb reads the table; the structure built from it gives the same pairing
    from painleve_cubics import catalog
    from painleve_cubics.arcs import lambda_catalog

    for tag in catalog.load("lambdas")["catalogs"]:
        cat = lambda_catalog(tag)
        for u in cat.lambda_ring.names:
            for v in cat.lambda_ring.names:
                assert run_cli(capsys, "bracket", tag, u, v) == (
                    0, f"{{{u},{v}}} = {cat.structure.pair(u, v)} * {u} * {v}\n", "")


def test_confluence_command(capsys):
    code, out, _ = run_cli(capsys, "confluence", "PVI", "PV")
    assert code == 0
    assert "p3 -= 2 log eps" in out
    code, _, err = run_cli(capsys, "confluence", "PI", "PVI")
    assert code == 2


def test_mutate_command(capsys):
    code, out, _ = run_cli(capsys, "mutate", "PVI", "12")
    assert code == 0
    assert "laurent: yes" in out
    code, _, err = run_cli(capsys, "mutate", "PVI", "14")
    assert code == 2


@pytest.mark.parametrize("sequence", ["", ","])
def test_mutate_without_a_mutation_is_exit_2(capsys, sequence):
    # zero mutations would print "laurent: yes" for nothing
    code, out, err = run_cli(capsys, "mutate", "PVI", sequence)
    assert (code, out, err) == (2, "", "error: no mutation given (use 1, 2, 3)\n")


def test_mutate_unknown_tag_is_exit_2(capsys):
    code, out, err = run_cli(capsys, "mutate", "NOSUCHTAG", "1")
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    assert "NOSUCHTAG" in err


@pytest.mark.parametrize("tag", CUBIC_TAGS.split(", ")[1:])
def test_mutate_refuses_a_tag_whose_cubic_is_not_the_four_hole_form(capsys, tag):
    # the exchange relation shifts the eps (1, 1, 1) cubic, so PV 121 is no PVI 121
    code, out, err = run_cli(capsys, "mutate", tag, "121")
    assert (code, out) == (2, "") and len(err.splitlines()) == 1
    assert err.startswith(f"error: mutate takes a tag whose cubic has eps (1, 1, 1); {tag} has (")


def test_twist_unknown_case_lists_the_table(capsys):
    code, out, err = run_cli(capsys, "twist", "PVII")
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    assert "PV, PVdeg, PIII_D6, PIII_D8" in err


@pytest.mark.parametrize("argv, message", [
    (("twist", "PVII"), "error: lambdas.json twists has no 'PVII' (have PV, PVdeg, PIII_D6, PIII_D8)"),
    (("lambda", "PX"), "error: lambdas.json catalogs has no 'PX' (have PV, PVdeg, PIV, PIII_hat, "
                       "PIII_tilde, PIII_D7, PIII_D8, PII_JM, PII_FN)"),
    (("signature", "PX"), "error: signatures.json signatures has no 'PX' (have PVI, PV, PVdeg, "
                          "PIV, PIII_D6, PIII_D7, PIII_D8, PII_FN, PII_JM, PI, Weierstrass, Airy)"),
    (("confluence", "PI", "PVI"), "error: arrows.json arrows has no PI -> PVI"),
    (("unfold", "PX"), "error: unfoldings.json has no tag 'PX' (have PVI, PV, PIV, PVdeg, PII_JM)"),
    (("bracket", "PV", "a", "z"), "error: unknown arc 'z' in PV"),
    (("mutate", "PVI", "14"), "error: bad mutation index '4' (use 1, 2, 3)"),
    (("export", "nothing"), "error: unknown export 'nothing' (confluence, inclusions, catalog)"),
])
def test_lookup_error_is_one_unquoted_error_line(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", message + "\n")


def test_twist_command(capsys):
    code, out, _ = run_cli(capsys, "twist", "PIII_D8", "--repeat", "2")
    assert code == 0
    assert "PASS" in out


def test_unfold_command(capsys):
    code, out, _ = run_cli(capsys, "unfold", "PVI")
    assert code == 0
    assert "unfold-d4" in out


def test_export_dot_and_json(capsys):
    code, out, _ = run_cli(capsys, "--format", "dot", "export", "confluence")
    assert code == 0
    assert 'label="p3 -= 2 log eps"' in out
    code, out, _ = run_cli(capsys, "--format", "json", "export", "confluence")
    assert code == 0
    json.loads(out)


def test_verify_group_json_and_determinism(capsys):
    code, out1, _ = run_cli(capsys, "--format", "json", "verify", "signatures")
    assert code == 0
    records = json.loads(out1)
    assert all(r["passed"] for r in records)
    assert all(set(r) == {"id", "title", "anchor", "passed", "detail", "residue"}
               for r in records)
    code, out2, _ = run_cli(capsys, "--format", "json", "verify", "signatures")
    assert out1 == out2


def test_verify_unknown_group(capsys):
    code, out, err = run_cli(capsys, "verify", "nonsense")
    assert code == 2 and out == ""
    assert err.startswith("error: unknown suite group(s) ['nonsense']; have ('charts', ")


# -- the command line ---------------------------------------------------------


@pytest.mark.parametrize("argv, message", [
    pytest.param((), "no verb given (see --help)", id="no-verb"),
    pytest.param(("nosuchverb", "PV"), "unknown verb 'nosuchverb' (see --help)", id="unknown-verb"),
    pytest.param(("show",), "show takes TAG, got none", id="too-few"),
    pytest.param(("bracket", "PV", "a", "d", "e"), "bracket takes TAG FIRST SECOND, got PV a d e",
                 id="too-many"),
    pytest.param(("verify-all", "charts"), "verify-all takes no argument, got charts",
                 id="verify-all-argument"),
    pytest.param(("show", "PV", "--depth", "3"), "unknown option --depth for show",
                 id="option-of-another-verb"),
    pytest.param(("--depth", "3", "verify-all"), "unknown option --depth", id="option-before-verb"),
    pytest.param(("--verbose", "show", "PV"), "unknown option --verbose", id="unknown-option"),
    pytest.param(("-v", "show", "PV"), "unknown option -v", id="unknown-short-option"),
    pytest.param(("--form", "json", "show", "PV"), "unknown option --form", id="no-abbreviation"),
    pytest.param(("verify-all", "--depth"), "--depth needs a value", id="missing-value"),
    pytest.param(("show", "PV", "--catalog"), "--catalog needs a value", id="missing-catalog"),
    pytest.param(("--catalog=", "show", "PI"), "--catalog needs a value", id="empty-catalog"),
    pytest.param(("--catalog", "", "show", "PI"), "--catalog needs a value", id="empty-catalog-word"),
    pytest.param(("--format=", "show", "PI"), "--format needs a value", id="empty-format"),
    pytest.param(("verify-all", "--depth="), "--depth needs a value", id="empty-depth"),
    pytest.param(("verify-all", "--depth", "four"), "--depth takes an integer, got 'four'",
                 id="non-integer"),
    pytest.param(("twist", "PV", "--repeat=1.5"), "--repeat takes an integer, got '1.5'",
                 id="non-integer-equals"),
    pytest.param(("--format", "xml", "show", "PV"), "show has no --format xml (it prints text, json)",
                 id="bad-format"),
    pytest.param(("--format", "dot", "verify-all"),
                 "verify-all has no --format dot (it prints text, json)", id="dot-verify-all"),
    pytest.param(("--format", "dot", "export", "catalog"),
                 "export catalog has no --format dot (it prints text, json)", id="dot-export-catalog"),
])
def test_usage_error_is_one_error_line(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("verb", ["bracket", "signature", "confluence", "mutate", "twist"])
@pytest.mark.parametrize("fmt", ["json", "dot"])
def test_a_format_the_verb_does_not_print_is_exit_2(capsys, verb, fmt):
    args = {"bracket": ("PV", "a", "d"), "signature": ("PV",), "confluence": ("PVI", "PV"),
            "mutate": ("PVI", "12"), "twist": ("PV",)}[verb]
    code, out, err = run_cli(capsys, "--format", fmt, verb, *args)
    assert (code, out, err) == (2, "", f"error: {verb} has no --format {fmt} (it prints text)\n")


@pytest.mark.parametrize("argv", [("show", "PV"), ("chart", "PV"), ("lambda", "PV"),
                                  ("unfold", "PVI"), ("verify", "signatures")])
def test_dot_is_printed_by_export_only(capsys, argv):
    code, out, err = run_cli(capsys, "--format=dot", *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {argv[0]} has no --format dot (it prints text, json)")


@pytest.mark.parametrize("repeat", ["0", "-1"])
def test_repeat_below_one_is_exit_2(capsys, repeat):
    code, out, err = run_cli(capsys, "twist", "PV", "--repeat", repeat)
    assert (code, out, err) == (2, "", f"error: --repeat must be at least 1, got {repeat}\n")


def test_option_value_after_an_equals_sign(capsys):
    assert run_cli(capsys, "twist", "PIII_D8", "--repeat=2") == \
        run_cli(capsys, "twist", "PIII_D8", "--repeat", "2")
    assert run_cli(capsys, "--format=json", "show", "PV") == \
        run_cli(capsys, "--format", "json", "show", "PV")


def test_global_options_may_follow_the_verb(capsys):
    assert run_cli(capsys, "show", "PV", "--format", "json") == \
        run_cli(capsys, "--format", "json", "show", "PV")


@pytest.mark.parametrize("flag", ["--help", "-h"])
def test_help_lists_every_verb_group_and_format(capsys, flag):
    from painleve_cubics import verify
    from painleve_cubics.cli import VERBS

    code, out, err = run_cli(capsys, "show", flag)
    assert code == 0 and err == ""
    assert out.startswith("usage: painleve-cubics ")
    verbs = [line.split()[0] for line in out.splitlines() if line.startswith("  ")]
    assert verbs == list(VERBS)
    assert f"GROUP is one of {', '.join(verify.GROUPS)}." in out
    assert "(text, json, dot)" in out and "(text)" in out


def test_catalog_override_failure_is_exit_2(tmp_path, capsys):
    (tmp_path / "cubics.json").write_text("{ not json")
    code, _, err = run_cli(capsys, "--catalog", str(tmp_path), "show", "PI")
    assert code == 2
    assert "catalog" in err
    # restore default catalogs for later tests
    from painleve_cubics import catalog
    catalog.set_catalog_root(None)


@pytest.mark.parametrize("module, name, which, cid", [
    ("shear", "pv_to_piii_change", [], "atlas.pv_to_piii_change()"),
    ("shear", "verify_chart", ["PV"], "charts.verify_chart(PV)"),
    ("confluence", "confluent_limit", [("PVI", "PV")], "confluence.confluent_limit(PVI-PV)"),
    ("confluence", "embedding_check", [("PV", "PIV")], "confluence.embedding_check(PV-PIV)"),
])
def test_a_check_that_raises_fails_only_its_own_certificate(monkeypatch, capsys, module, name,
                                                            which, cid):
    import functools
    import importlib
    from painleve_cubics.ring import RingError
    checks = importlib.import_module(f"painleve_cubics.checks.{module}")
    real = getattr(checks, name)

    @functools.wraps(real)
    def broken(*args):
        if [a if isinstance(a, str) else a[:2] for a in args] == which:
            raise RingError("boom")
        return real(*args)

    monkeypatch.setattr(checks, name, broken)
    code, out, err = run_cli(capsys, "verify-all")
    lines = out.splitlines()
    assert (code, err) == (1, "")
    assert [line for line in lines if not line.startswith("PASS  ")] == [
        f"ERROR  {cid:34s} the check raised  [RingError: boom]", "159/160 certificates passed"]


@pytest.mark.parametrize("argv", [
    pytest.param(("verify", "cluster", "--depth", "0"), id="0"),
    pytest.param(("verify", "cluster", "--depth", "-3"), id="-3"),
    pytest.param(("verify-all", "--depth", "0"), id="verify-all-0"),
])
def test_depth_below_one_is_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


def test_malformed_catalog_expression_is_exit_2(tmp_path, capsys):
    import shutil
    from importlib import resources
    src = resources.files("painleve_cubics.data")
    for name in ("cubics", "charts", "lambdas", "arrows", "signatures", "unfoldings"):
        shutil.copy(str(src / f"{name}.json"), tmp_path / f"{name}.json")
    data = json.loads((tmp_path / "charts.json").read_text())
    data["charts"]["PVI"]["x1"] = "s1 +* ("
    (tmp_path / "charts.json").write_text(json.dumps(data))
    code, _, err = run_cli(capsys, "--catalog", str(tmp_path), "chart", "PVI")
    assert code == 2
    assert err.startswith("error: charts.json charts.PVI: ") and "s1 +* (" in err
    assert "Traceback" not in err


# -- fresh processes ------------------------------------------------------------

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "painleve_cubics"
LAUNCHER = "import sys; from painleve_cubics.cli import main; sys.exit(main())"


def package_env() -> dict:
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def run_python(*args):
    """A fresh interpreter running ``args``, with the package on its path."""
    return subprocess.run([sys.executable, *args], env=package_env(),
                          capture_output=True, text=True)


def test_objects_alive_at_exit_are_frozen():
    # atexit runs its handlers last in, first out, so this hook, registered
    # before the CLI module registers gc.freeze, runs after the freeze
    done = run_python("-c", "import atexit, gc\n"
                            "atexit.register(lambda: print(gc.get_freeze_count() > 0))\n"
                            "import painleve_cubics.cli\n")
    assert (done.returncode, done.stdout, done.stderr) == (0, "True\n", "")


def test_process_show_pi():
    done = run_python("-c", LAUNCHER, "show", "PI")
    assert (done.returncode, done.stdout, done.stderr) == (0, "x1 x2 x3 - x1 - x2 + 1\n", "")


def test_process_unknown_tag_exits_2():
    done = run_python("-c", LAUNCHER, "show", "P99")
    assert (done.returncode, done.stdout, done.stderr) == (2, "", NO_CUBIC_P99)


def test_process_usage_error_and_help():
    done = run_python("-c", LAUNCHER, "--format", "json", "signature", "PV")
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == "error: signature has no --format json (it prints text)\n"
    done = run_python("-c", LAUNCHER, "--help")
    assert (done.returncode, done.stderr) == (0, "") and "signature TAG" in done.stdout


def test_process_perturbed_chart_exits_1(tmp_path):
    root = tmp_path / "catalogs"
    shutil.copytree(PACKAGE / "data", root, ignore=shutil.ignore_patterns("*.py", "__pycache__"))
    data = json.loads((root / "charts.json").read_text())
    data["charts"]["PI"]["x1"] += " + 1"
    (root / "charts.json").write_text(json.dumps(data))
    # PI's chart is the limit of PII_JM's, so its texts fail the two arrows into it
    done = run_python("-c", LAUNCHER, "--catalog", str(root), "verify-all")
    assert done.returncode == 1 and done.stderr == ""
    lines = done.stdout.splitlines()
    assert [line.split()[1] for line in lines if line.startswith("FAIL")] == [
        "confluence-PII_FN-PI", "confluence-PII_JM-PI"]
    assert lines[-1] == f"{len(lines) - 3}/{len(lines) - 1} certificates passed"


@pytest.mark.parametrize("argv", [("verify", "charts"), ("--format", "json", "verify-all")])
def test_closed_stdout_exits_141_without_a_traceback(argv):
    # the reader is gone before the first write, as with ``| head -0``
    proc = subprocess.Popen([sys.executable, "-c", LAUNCHER, *argv], env=package_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=120), err) == (141, b"")


def test_nothing_in_the_package_needs_a_finalizer_at_exit():
    """Objects frozen at exit are never collected, so no package object may
    need finalizing: no ``__del__``, no ``weakref``, no ``open`` outside ``with``."""
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text())
        managed = {id(item.context_expr) for node in ast.walk(tree) if isinstance(node, ast.With)
                   for item in node.items}
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                assert node.name != "__del__", path.name
            elif isinstance(node, ast.Import):
                assert "weakref" not in {alias.name for alias in node.names}, path.name
            elif isinstance(node, ast.ImportFrom):
                assert node.module != "weakref", path.name
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "open":
                assert id(node) in managed, f"{path.name}:{node.lineno}"
