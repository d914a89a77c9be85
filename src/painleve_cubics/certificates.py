"""Machine-checked certificates and their report formats."""

from __future__ import annotations

import json
from collections import namedtuple


# the title of a certificate whose check raised instead of deciding
ERROR = "check raised an exception"


# anchor:  which catalog identity this audits
# residue: digest of the offending polynomial on failure
class Certificate(namedtuple("Certificate", "id title anchor passed detail residue",
                             defaults=("", ""))):
    __slots__ = ()

    def line(self) -> str:
        status = "PASS" if self.passed else "ERROR" if self.title == ERROR else "FAIL"
        text = f"{status}  {self.id:34s} {self.anchor}"
        if self.detail:
            text += f"  [{self.detail}]"
        if not self.passed and self.residue:
            text += f"  residue: {self.residue}"
        return text


def digest(obj, limit: int = 200) -> str:
    text = str(obj)
    if len(text) > limit:
        return text[: limit - 3] + "..."
    return text


def certify(cid: str, title: str, anchor: str, ok: bool,
            detail: str = "", residue: object = "") -> Certificate:
    return Certificate(cid, title, anchor, bool(ok), detail,
                       "" if ok else digest(residue))


def error(cid: str, exc: Exception) -> Certificate:
    """The failing certificate ``cid`` of a check that raised ``exc``."""
    return Certificate(cid, ERROR, "the check raised", False, digest(f"{type(exc).__name__}: {exc}"))


def report(certs: list, fmt: str) -> int:
    """Print ``certs`` as text lines and a tally, or as JSON; 0 if all pass, else 1."""
    if fmt == "json":
        print(json.dumps([c._asdict() for c in certs], indent=1, sort_keys=True))
    else:
        for c in certs:
            print(c.line())
        print(f"{sum(c.passed for c in certs)}/{len(certs)} certificates passed")
    return 0 if all(c.passed for c in certs) else 1
