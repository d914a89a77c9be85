"""Machine-checked certificates and their report formats."""

from __future__ import annotations

import json
from typing import NamedTuple


class Certificate(NamedTuple):
    cid: str
    title: str
    anchor: str          # which catalog identity this audits
    passed: bool
    detail: str = ""
    residue: str = ""    # digest of the offending polynomial on failure

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        text = f"{status}  {self.cid:34s} {self.anchor}"
        if self.detail:
            text += f"  [{self.detail}]"
        if not self.passed and self.residue:
            text += f"  residue: {self.residue}"
        return text

    def to_json(self) -> dict:
        return {
            "id": self.cid,
            "title": self.title,
            "anchor": self.anchor,
            "passed": self.passed,
            "detail": self.detail,
            "residue": self.residue,
        }


def digest(obj, limit: int = 200) -> str:
    text = str(obj)
    if len(text) > limit:
        return text[: limit - 3] + "..."
    return text


def certify(cid: str, title: str, anchor: str, ok: bool,
            detail: str = "", residue: object = "") -> Certificate:
    return Certificate(cid, title, anchor, bool(ok), detail,
                       "" if ok else digest(residue))


def report(certs: list, fmt: str) -> int:
    """Print ``certs`` as text lines and a tally, or as JSON; 0 if all pass, else 1."""
    if fmt == "json":
        print(json.dumps([c.to_json() for c in certs], indent=1, sort_keys=True))
    else:
        for c in certs:
            print(c.line())
        print(f"{sum(c.passed for c in certs)}/{len(certs)} certificates passed")
    return 0 if all(c.passed for c in certs) else 1
