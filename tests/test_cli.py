"""Command-line behaviour: output shapes, determinism, exit codes."""

import json

import pytest

from painleve_cubics.cli import main


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse rejects unknown verbs/choices with code 2
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def test_show_pi(capsys):
    code, out, _ = run_cli(capsys, "show", "PI")
    assert code == 0
    assert out.strip() == "x1 x2 x3 - x1 - x2 + 1"


def test_show_unknown_tag_exits_2(capsys):
    code, _, err = run_cli(capsys, "show", "P99")
    assert code == 2
    assert "unknown" in err


def test_signature_pv(capsys):
    code, out, _ = run_cli(capsys, "signature", "PV")
    assert code == 0
    assert "s=3 n=2 dim=7 katz=0,0,1" in out


def test_chart_output(capsys):
    code, out, _ = run_cli(capsys, "chart", "PIII_D8")
    assert code == 0
    assert "x2 = -e[s3-s1+p3/2-p1/2]" in out


def test_lambda_and_bracket(capsys):
    code, out, _ = run_cli(capsys, "lambda", "PV")
    assert code == 0
    assert "casimirs: G1, G2, d*e" in out
    code, out, _ = run_cli(capsys, "bracket", "PV", "a", "d")
    assert code == 0
    assert "{a,d} = -1/2 * a * d" in out


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


def test_mutate_unknown_tag_is_exit_2(capsys):
    code, out, err = run_cli(capsys, "mutate", "NOSUCHTAG", "1")
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    assert "NOSUCHTAG" in err


def test_twist_unknown_case_lists_the_table(capsys):
    code, out, err = run_cli(capsys, "twist", "PVII")
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    assert "PV, PVdeg, PIII_D6, PIII_D8" in err


@pytest.mark.parametrize("argv, message", [
    (("twist", "PVII"), "error: unknown twist case 'PVII' (have PV, PVdeg, PIII_D6, PIII_D8)"),
    (("lambda", "PX"), "error: no lambda catalog for 'PX' (have ['PIII_D7', "),
    (("signature", "PX"), "error: no signature for 'PX'"),
    (("confluence", "PI", "PVI"), "error: no confluence arrow PI -> PVI"),
    (("unfold", "PX"), "error: no unfolding case for 'PX' (have ['PII_JM', "),
    (("bracket", "PV", "a", "z"), "error: unknown arc 'z' in PV"),
    (("mutate", "PVI", "14"), "error: bad mutation index '4' (use 1, 2, 3)"),
    (("export", "nothing"), "error: unknown export 'nothing' (confluence, inclusions, catalog)"),
])
def test_lookup_error_is_one_unquoted_error_line(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(message)
    assert len(err.strip().splitlines()) == 1


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
    code, _, err = run_cli(capsys, "verify", "nonsense")
    assert code == 2


def test_catalog_override_failure_is_exit_2(tmp_path, capsys):
    (tmp_path / "cubics.json").write_text("{ not json")
    code, _, err = run_cli(capsys, "--catalog", str(tmp_path), "show", "PI")
    assert code == 2
    assert "catalog" in err
    # restore default catalogs for later tests
    from painleve_cubics import catalog
    catalog.set_catalog_root(None)


def test_catalog_env_override(tmp_path, monkeypatch, capsys):
    import shutil
    from importlib import resources
    from painleve_cubics import catalog
    src = resources.files("painleve_cubics.data")
    for name in ("cubics", "charts", "lambdas", "arrows", "signatures", "unfoldings"):
        shutil.copy(str(src / f"{name}.json"), tmp_path / f"{name}.json")
    data = json.loads((tmp_path / "cubics.json").read_text())
    data["cubics"]["PI"]["table1"] = "x1*x2*x3 - x1 - x2 + 1"
    (tmp_path / "cubics.json").write_text(json.dumps(data))
    monkeypatch.setenv(catalog.ENV_VAR, str(tmp_path))
    catalog.clear_caches()
    code, out, _ = run_cli(capsys, "show", "PI")
    assert code == 0 and "x1 x2 x3" in out
    monkeypatch.delenv(catalog.ENV_VAR)
    catalog.clear_caches()


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
