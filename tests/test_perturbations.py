"""Perturbations of the twist and unfolding tables make their certificates fail.

Each test edits a copy of the catalogs under ``tmp_path`` and points the
CLI (``--catalog``) or the library at it.
"""

import json
import shutil
from importlib import resources

import pytest

from painleve_cubics import catalog, verify
from painleve_cubics.cli import main

TWISTS = list(catalog.load("lambdas")["twists"])
UNFOLD_KEYS = [key for key, entry in catalog.load("unfoldings").items()
               if isinstance(entry, dict)]


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
