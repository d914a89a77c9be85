"""``confluence``: one confluence limit and its certificate."""

from __future__ import annotations

from ..checks.confluence import limit_certificate, limit_chart_coords
from ..confluence import arrow


def confluence(fmt, src, dst) -> int:
    a = arrow(src, dst)
    degrees, leads = limit_chart_coords(a)
    cert = limit_certificate(a, degrees, leads)
    print(f"substitution: {a.label}")
    print(f"leading eps-degrees: {', '.join(str(d) for d in degrees)}")
    print(cert.line())
    return 0 if cert.passed else 1
