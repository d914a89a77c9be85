"""``unfold``: the normal-form certificates of one tag's unfolding."""

from __future__ import annotations

from .. import catalog
from ..certificates import report
from ..checks.unfolding import checks
from ..unfolding import cases


def unfold(fmt, tag) -> int:
    entries = cases()
    with catalog.context("unfoldings.json"):
        keys = {catalog.typed(entries, f"{key}.tag", str): key for key in entries}
    if tag not in keys:
        raise catalog.UnknownEntry(f"unfoldings.json has no tag {tag!r} (have {', '.join(keys)})")
    entry = entries[keys[tag]]
    if fmt != "json":
        for field in ("substitution", "diffeo"):
            if field in entry:
                for name, text in entry[field].items():
                    print(f"  {name} -> {text}")
        if "relation_lhs" in entry:
            print(f"  relation: {entry['relation_lhs']} = {entry['relation_rhs']}")
        if "target" in entry:
            print(f"  reduced form: {entry['target']}")
        if "hat_params" in entry:
            for name, text in entry["hat_params"].items():
                print(f"  {name} = {text}")
    return report([fn(*fargs) for fn, fargs in checks(keys[tag])], fmt)
