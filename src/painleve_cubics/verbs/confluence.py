"""``confluence``: one confluence limit and its certificate."""

from __future__ import annotations

from ..checks.confluence import arrow_limit, confluent_limit, leading_degrees
from ..confluence import arrow


def confluence(fmt, src, dst) -> int:
    a = arrow(src, dst)
    cert = confluent_limit(a)  # the limit is cached, so the degrees below reuse it
    print(f"substitution: {a.label}")
    print(f"leading eps-degrees: {', '.join(map(str, leading_degrees(arrow_limit(a))))}")
    print(cert.line())
    return 0 if cert.passed else 1
