"""Pin of the axiom matcher.

``tests/fixtures/axiom_matches.txt`` records, for each formula of a seeded
corpus, ``match_axiom``'s schema ids and bindings in order, one formula a
line.  The corpus is every schema's random instances, their one-sided
rewrites (bare, under ``?`` and under ``!``), random formulas and
implications between them, and the steps of the benchmark's built proofs.
Regenerate it, on purpose only, with

    PYTHONPATH=src python3 tests/test_axiom_matches.py
"""

import random
import sys
from pathlib import Path

from iqcl.calculus import AXIOM_IDS, match_axiom
from iqcl.syntax import IMPLIES, ODOT, Bin, Neg, Sqrt, print_formula
from test_calculus import mutate, random_instance
from util import built_proofs, random_formula

ROOT = Path(__file__).resolve().parents[1]
MATCH_FIXTURE = ROOT / "tests" / "fixtures" / "axiom_matches.txt"


def _rewrites(f):
    """The one-sided implications between the two sides of ``f``, bare and
    wrapped in ``?`` and ``!``."""
    if isinstance(f, Bin) and f.op == ODOT and isinstance(f.left, Bin) and f.left.op == IMPLIES:
        x, y = f.left.left, f.left.right
    elif isinstance(f, Bin) and f.op == IMPLIES:
        x, y = f.left, f.right
    else:
        return []
    return [Bin(IMPLIES, wrap(s1), wrap(s2)) for wrap in (lambda g: g, Sqrt, Neg) for s1, s2 in ((x, y), (y, x))]


def corpus(workloads) -> list:
    rng = random.Random(412)
    formulas = []
    for sid in AXIOM_IDS:
        for _ in range(12):
            instance = random_instance(rng, sid)
            formulas += [instance, *_rewrites(instance)]
    randoms = [random_formula(rng, ("p", "q"), depth=4) for _ in range(600)]
    formulas += randoms
    formulas += [Bin(IMPLIES, f, rng.choice(randoms)) for f in randoms]
    formulas += [Bin(IMPLIES, f, mutate(rng, f)) for f in randoms]
    formulas += [step.formula for _, proof in built_proofs(workloads) for step in proof.steps]
    return list(dict.fromkeys(formulas))


def axiom_match_text(workloads) -> str:
    memo = {}  # one memo for the file: see syntax.print_formula
    lines = []
    for f in corpus(workloads):
        matches = " | ".join(
            sid + "".join(f" {name}={print_formula(binding[name], memo)}" for name in sorted(binding))
            for sid, binding in match_axiom(f)
        )
        lines.append(f"{print_formula(f, memo)}\t{matches}")
    return "\n".join(lines) + "\n"


def test_axiom_matches_match_fixture(workloads):
    assert axiom_match_text(workloads).encode() == MATCH_FIXTURE.read_bytes()


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    MATCH_FIXTURE.write_bytes(axiom_match_text(workloads).encode())
