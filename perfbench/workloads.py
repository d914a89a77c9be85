"""Workload inputs drawn from the seed, and the checks on every unit's output.

Each workload repeats one *unit* in a closed loop with a single client:
the next unit starts only after the previous one has exited.

* ``suite``: one fresh ``painleve-cubics --format json verify-all``
  process.  It has no inputs to draw; the seed only sets PYTHONHASHSEED.
* ``cli-cold``: one pass of 16 fresh CLI processes.  The seed draws tags
  only for verbs whose cost is flat across tags, and the order.

Candidate tags are fixed here, not read from the catalogs, so the inputs of
a seed stay the same when the catalogs grow.
"""

from __future__ import annotations

import hashlib
import itertools
import random

WORKLOADS = ("suite", "cli-cold")

CUBIC_TAGS = ("PVI", "PV", "PVdeg", "PIV", "PIII_D6", "PIII_D7", "PIII_D8",
              "PII_JM", "PII_FN", "PI", "Weierstrass")
SIGNATURE_TAGS = CUBIC_TAGS + ("Airy",)
LAMBDA_ARCS = {
    "PV": "abcde", "PVdeg": "abc", "PIV": "abcdefh", "PIII_hat": "abcdefgh",
    "PIII_tilde": "abcdefgh", "PIII_D7": "abcfgh", "PIII_D8": "abch",
    "PII_JM": "abcdefghi", "PII_FN": "abdfh",
}
ARROWS = (("PVI", "PV"), ("PV", "PVdeg"), ("PV", "PIV"), ("PV", "PIII_D6"),
          ("PIII_D6", "PIII_D7"), ("PVdeg", "PIII_D7"), ("PIII_D7", "PIII_D8"),
          ("PIV", "PII_JM"), ("PIV", "PII_FN"), ("PVdeg", "PII_FN"),
          ("PII_JM", "PI"), ("PII_FN", "PI"), ("PI", "Weierstrass"))
# verbs whose cost depends on the argument keep one fixed argument
FIXED_CALLS = (
    ("twist", "PV", "--repeat", "2"),
    ("unfold", "PVI"),
    ("export", "confluence"),
    ("export", "inclusions"),
    ("export", "catalog"),
    ("verify", "charts"),
    ("verify", "atlas"),
    ("verify", "twists"),
    ("verify", "confluence"),
)
MUTATE_CLASS = "1231"     # depth-4 word; relabelled by the seed
SUITE_ARGV = ("--format", "json", "verify-all")

PERMUTATIONS = tuple(itertools.permutations((1, 2, 3)))


def relabel(word: str, sigma: tuple) -> str:
    """Apply the relabelling i -> sigma[i-1] to a word over {1,2,3}."""
    return "".join(str(sigma[int(c) - 1]) for c in word)


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"perfbench:{workload}:{seed}")


def cli_candidates() -> list:
    """Every argv a cli-cold pass can contain, for recording golden digests."""
    argvs = [("show", t) for t in CUBIC_TAGS]
    argvs += [("chart", t) for t in CUBIC_TAGS]
    argvs += [("lambda", t) for t in LAMBDA_ARCS]
    argvs += [("bracket", t, a, b) for t, arcs in LAMBDA_ARCS.items()
              for a, b in itertools.combinations(arcs, 2)]
    argvs += [("signature", t) for t in SIGNATURE_TAGS]
    argvs += [("confluence", s, d) for s, d in ARROWS]
    argvs += [("mutate", "PVI", relabel(MUTATE_CLASS, p)) for p in PERMUTATIONS]
    argvs += list(FIXED_CALLS)
    return argvs


def cli_unit(seed: int) -> list:
    """The 16 argvs of one cli-cold pass, in run order."""
    rng = rng_for("cli-cold", seed)
    tag = rng.choice(sorted(LAMBDA_ARCS))
    a, b = sorted(rng.sample(LAMBDA_ARCS[tag], 2))
    calls = [
        ("show", rng.choice(CUBIC_TAGS)),
        ("chart", rng.choice(CUBIC_TAGS)),
        ("lambda", rng.choice(sorted(LAMBDA_ARCS))),
        ("bracket", tag, a, b),
        ("signature", rng.choice(SIGNATURE_TAGS)),
        ("confluence",) + rng.choice(ARROWS),
        ("mutate", "PVI", relabel(MUTATE_CLASS, rng.choice(PERMUTATIONS))),
    ] + list(FIXED_CALLS)
    rng.shuffle(calls)
    return calls


def argv_key(argv) -> str:
    return " ".join(argv)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# -- output checks: each returns a list of problems, empty when correct ---------


def check_call(argv, returncode: int, stdout: bytes, golden: dict) -> list:
    """A CLI call (including the suite's verify-all) against its golden digest."""
    key = argv_key(argv)
    problems = []
    if returncode != 0:
        problems.append(f"{key}: exit code {returncode}")
    expected = golden["calls"].get(key)
    if expected is None:
        problems.append(f"{key}: no golden digest")
    elif sha256(stdout) != expected:
        problems.append(f"{key}: stdout digest {sha256(stdout)[:12]} != golden {expected[:12]}")
    return problems
