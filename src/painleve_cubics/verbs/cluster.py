"""``mutate`` and ``twist``: cluster mutations and Dehn twists."""

from __future__ import annotations

from .. import catalog, cluster, cubics


def mutate(fmt, tag, sequence) -> int:
    # the exchange relation is the shifted cubic with eps (1, 1, 1); an unknown tag exits 2
    eps = cubics.cubic(tag).eps
    if eps != (1, 1, 1):
        raise catalog.UnknownEntry(f"mutate takes a tag whose cubic has eps (1, 1, 1); "
                                   f"{tag} has {eps}")
    word = []
    for ch in sequence.replace(",", ""):
        if ch not in "123":
            raise catalog.UnknownEntry(f"bad mutation index {ch!r} (use 1, 2, 3)")
        word.append(int(ch))
    if not word:
        raise catalog.UnknownEntry("no mutation given (use 1, 2, 3)")
    cluster.exchanges()  # read the exchange matrix and polynomials before any output
    cl = cluster.initial_cluster()
    print("start: " + ", ".join(f"y{i} = {cl[i]}" for i in (1, 2, 3)))
    for step, i in enumerate(word, start=1):
        cl = cluster.mutate(i, cl)
        print(f"after mutation {i} (step {step}):")
        for t in (1, 2, 3):
            print(f"  y{t} = {cl[t]}")
    laurent = all(cl[t].is_poly() for t in (1, 2, 3))
    print(f"laurent: {'yes' if laurent else 'NO'}")
    return 0 if laurent else 1


def twist(fmt, name, repeat=1) -> int:
    from ..checks import cluster as cluster_checks
    case = cluster.twist_case(name)
    vals = cluster.base_values(case)
    for _ in range(repeat):
        vals = cluster.dehn_twist(case, vals)
    for var in case.variables:
        print(f"{var} -> {vals[var]}")
    certs = [cluster_checks.twist_invariants(name),
             cluster_checks.twist_frozen_commutation(name)]
    for c in certs:
        print(c.line())
    return 0 if all(c.passed for c in certs) else 1
