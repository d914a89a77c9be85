"""Certificates of the braid action, the exchange mutations and the Dehn twists.

The braid generators act on the cubic's coordinates as Vieta involutions
composed with transpositions; with the parameters transported alongside
(w_j <-> w_k) the cubic is preserved as an exact polynomial identity.
The exchange polynomial is read through the ``cluster`` module, so that
a replaced ``cluster.exchange_polynomial`` is the one every check sees.
"""

from __future__ import annotations

from .. import cluster
from ..catalog import X_NAMES
from ..certificates import Certificate, certify
from ..cluster import CLUSTER_RING, base_values, dehn_twist, initial_cluster, mutate, twist_case
from ..cubics import W_NAMES, W_RING, braid, cubic, cubic_form
from ..division import divide_exact
from ..ring import LaurentPoly, Ring


def braid_images(i: int) -> dict:
    """``cubics.braid`` on the generators of ``W_RING``, with w_j <-> w_k."""
    w = tuple(W_RING.gen(n) for n in W_NAMES)
    images = dict(zip(X_NAMES, braid(i, tuple(W_RING.gen(n) for n in X_NAMES), w)))
    j, k = (t for t in (1, 2, 3) if t != i)
    images[f"w{j}"], images[f"w{k}"] = w[k - 1], w[j - 1]
    return images


def braid_preserves_cubic(i: int) -> Certificate:
    phi = cubic_form(tuple(W_RING.gen(n) for n in X_NAMES), (1, 1, 1),
                     tuple(W_RING.gen(n) for n in W_NAMES))
    res = phi.substitute(braid_images(i)).as_poly() - phi
    return certify(f"braid-{i}", "braid preserves the cubic",
                   f"braid generator {i} on the four-hole cubic", res.is_zero(),
                   detail="with parameter transport w_j <-> w_k", residue=res)


def braid_involution_check(i: int) -> Certificate:
    m = braid_images(i)
    twice = {n: e.substitute(m).as_poly() for n, e in m.items()}
    ok = all(twice[n] == W_RING.gen(n) for n in twice)
    return certify(f"braid-involution-{i}", "braid squared is the identity",
                   f"braid generator {i}", ok)


def shifted_cubic(ring: Ring) -> LaurentPoly:
    """y1 y2 y3 + sum y_i^2 + G1 y2 y3 + G2 y1 y3 + G3 y1 y2 over the generators of ``ring``."""
    y1, y2, y3, G1, G2, G3 = (ring.gen(n) for n in ("y1", "y2", "y3", "G1", "G2", "G3"))
    return (y1 * y2 * y3 + y1 ** 2 + y2 ** 2 + y3 ** 2
            + G1 * y2 * y3 + G2 * y1 * y3 + G3 * y1 * y2)


def shifted_cubic_check() -> Certificate:
    """At Ginf = 2 the shift y_i = x_i - G_i kills linear and constant terms of the PVI cubic."""
    ring = Ring(("y1", "y2", "y3", "G1", "G2", "G3", "Ginf"))
    x = {f"x{i}": ring.gen(f"y{i}") + ring.gen(f"G{i}") for i in (1, 2, 3)}
    shifted = cubic("PVI").phi.substitute({**x, "Ginf": ring.const(2)}, ring).as_poly()
    target = shifted_cubic(ring)
    res = shifted - target
    return certify("shifted-cubic", "puncture normalisation of the cluster form",
                   "shifted cubic at Ginf = 2", res.is_zero(),
                   detail="linear and constant terms vanish identically", residue=res)


def surface_invariance(i: int) -> Certificate:
    """The mutated cubic's numerator is exactly divisible by the cubic."""
    cl = initial_cluster()
    mutated = mutate(i, cl)
    phi = shifted_cubic(CLUSTER_RING)
    value = phi.substitute({f"y{t}": mutated[t] for t in (1, 2, 3)})
    numerator = (value * (cl[i] ** 2)).as_poly()
    q = divide_exact(numerator, phi)
    expected = cluster.exchange_polynomial(i, cl).as_poly()
    ok = q is not None and q == expected
    return certify(f"mutation-surface-{i}", "mutation maps the surface to itself",
                   f"exchange mutation {i} on the shifted cubic", ok,
                   detail="numerator = exchange polynomial times the cubic",
                   residue="not divisible" if q is None else "")


def mutation_involution_check(i: int) -> Certificate:
    cl = initial_cluster()
    back = mutate(i, mutate(i, cl))
    ok = all(back[t] == cl[t] for t in (1, 2, 3))
    return certify(f"mutation-involution-{i}", "exchange relation is involutive",
                   f"exchange mutation {i}", ok)


def reduced_words(max_depth: int) -> list:
    words = []

    def grow(prefix: tuple, depth: int):
        if depth == 0:
            words.append(prefix)
            return
        for i in (1, 2, 3):
            if prefix and prefix[-1] == i:
                continue
            grow(prefix + (i,), depth - 1)

    for d in range(1, max_depth + 1):
        grow((), d)
    return words


def run_sequence(word: tuple) -> dict:
    cl = initial_cluster()
    for i in word:
        cl = mutate(i, cl)
    return cl


def relabelling_failures() -> list:
    """Transpositions tau of {1, 2, 3} that break tau(E_i) = E_tau(i).

    tau relabels the y and G generators together, and E_i is the exchange
    polynomial of the initial cluster; each failure names tau and its i.
    """
    ring = CLUSTER_RING
    cl = initial_cluster()
    bad = []
    for a, b in ((1, 2), (1, 3), (2, 3)):
        tau = {1: 1, 2: 2, 3: 3, a: b, b: a}
        images = {f"{s}{t}": ring.gen(f"{s}{tau[t]}") for s in ("y", "G") for t in tau}
        broken = [f"E_{i}" for i in (1, 2, 3)
                  if cluster.exchange_polynomial(i, cl).substitute(images)
                  != cluster.exchange_polynomial(tau[i], cl)]
        if broken:
            bad.append(f"({a} {b}) breaks {', '.join(broken)}")
    return bad


def orbit_representatives(max_depth: int) -> list:
    """One reduced word per S3 relabelling orbit: it starts 1, then 2."""
    return [w for w in reduced_words(max_depth) if w[:2] in ((1,), (1, 2))]


def laurent_check(max_depth: int = 4) -> Certificate:
    """Every mutation sequence of length <= max_depth yields Laurent variables.

    First the exchange polynomials are certified equivariant under the
    relabellings of {1, 2, 3}; then the variables of a relabelled word are
    the relabelled variables of the word, so one word per orbit is run.
    Certification is by exact division during expression normalisation
    (monomial content stripping plus trial division); a variable that stays
    a genuine quotient is reported with its denominator.
    """
    if max_depth < 1:
        raise ValueError(f"max_depth must be at least 1, got {max_depth}")
    anchor = f"all {len(reduced_words(max_depth))} reduced sequences of length <= {max_depth}"
    asymmetric = relabelling_failures()
    if asymmetric:
        return certify("laurent-phenomenon", "iterated mutations stay Laurent", anchor,
                       False, detail="relabelling symmetry fails", residue=asymmetric)
    witnesses = []
    for word in orbit_representatives(max_depth):
        cl = run_sequence(word)
        for i in (1, 2, 3):
            if not cl[i].is_poly():
                witnesses.append((word, i, str(cl[i].den)[:80]))
    return certify("laurent-phenomenon", "iterated mutations stay Laurent", anchor,
                   not witnesses, residue=witnesses[:3])


def twist_invariants(case_name: str) -> Certificate:
    case = twist_case(case_name)
    before = base_values(case)
    after = dehn_twist(case, before)
    bad = []
    for label, inv in case.invariants.items():
        moved = inv.substitute({n: after[n] for n in case.variables})
        if moved != inv:
            bad.append((label, "not invariant"))
    return certify(f"twist-{case_name}", "twist invariants are preserved",
                   f"{case_name} Dehn twist", not bad,
                   detail=f"invariants: {', '.join(case.invariants)}",
                   residue=bad)


def twist_frozen_commutation(case_name: str) -> Certificate:
    """Twisted variables keep log-canonical brackets with the frozen arcs."""
    case = twist_case(case_name)
    S = case.structure
    after = dehn_twist(case, base_values(case))
    images = {**{v: after[v] for v in case.variables},
              **{f: case.ring.gen(f) for f in case.frozen}}
    table = {(v, f): S.pair(v, f) for v in case.variables for f in case.frozen}
    bad = [(v, f) for v, f, _ in S.table_residues(images, table)]
    return certify(f"twist-frozen-{case_name}", "twists respect the frozen brackets",
                   f"{case_name} Dehn twist vs frozen arcs", not bad,
                   detail="twisted variables bracket like the originals", residue=bad)
