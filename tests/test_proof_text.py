"""The definitions form of a proof file: ``format_proof_definitions`` writes it,
and ``parse_proof`` reads it.

The reference is the plain form, each step's formula written out in full
(``format_proof``), which ``parse_proof`` reads as before.
"""

import random
import time
from pathlib import Path

import pytest

from iqcl.calculus import (
    _MAX_DEFINED_NODES,
    MemberRef,
    MpRef,
    Proof,
    ProofError,
    ProofStep,
    check_proof,
    deduction_transform,
    format_proof,
    format_proof_definitions,
    parse_proof,
)
from iqcl.cli import main
from iqcl.semantics import Theory
from iqcl.syntax import IMPLIES, Atom, Bin, Neg, Sqrt, parse, print_formula
from test_calculus import random_small_proof
from util import node_ids, random_formula

FIXTURES = Path(__file__).parent / "fixtures"


def subterms(*roots) -> set:
    """The distinct subterms of ``roots``, compared by value."""
    seen, stack = set(), list(roots)
    while stack:
        f = stack.pop()
        if f not in seen:
            seen.add(f)
            if isinstance(f, (Neg, Sqrt)):
                stack.append(f.arg)
            elif isinstance(f, Bin):
                stack += (f.left, f.right)
    return seen


def assert_one_object_per_subterm(proof):
    formulas = [step.formula for step in proof.steps]
    assert len(node_ids(*formulas)) == len(subterms(*formulas))


def verdict(theory, proof, goal):
    try:
        check_proof(theory, proof, goal)
    except ProofError as exc:
        return exc.step, exc.reason
    return "ok"


def corrupt(workloads, directory, text: str) -> str:
    """``text`` with the premises of its middle ``mp`` step swapped by the benchmark's ``_corrupt``."""
    valid, bad = directory / "valid.proof", directory / "bad.proof"
    valid.write_text(text)
    workloads._corrupt(str(valid), str(bad))
    return bad.read_text()


def built(workloads, uses):
    alpha = Atom("p")
    theory, proof = workloads._input_proof(alpha, Atom("q"), uses)
    return theory, deduction_transform(theory, alpha, proof)[1]


def random_proofs():
    rng = random.Random(431)
    for _ in range(40):
        theory = Theory([random_formula(rng, ("p", "q"), depth=2) for _ in range(rng.randint(1, 2))])
        alpha = random_formula(rng, ("p", "q"), depth=2)
        proof = random_small_proof(rng, theory, alpha)
        yield theory, proof
        yield theory, deduction_transform(theory, alpha, proof)[1]


def assert_both_forms_agree(workloads, directory, theory, proof):
    text, plain = format_proof_definitions(proof), format_proof(proof)
    parsed = parse_proof(text)
    assert parsed == proof
    assert_one_object_per_subterm(parsed)
    assert parse_proof(plain) == proof
    goal = proof.conclusion
    assert verdict(theory, parsed, goal) == verdict(theory, parse_proof(plain), goal)
    if "[mp " in plain:
        bad = parse_proof(corrupt(workloads, directory, text))
        bad_plain = parse_proof(corrupt(workloads, directory, plain))
        assert bad == bad_plain
        assert verdict(theory, bad, goal) == verdict(theory, bad_plain, goal)


@pytest.mark.parametrize("uses", range(1, 7))
def test_built_proofs_round_trip_in_both_forms(workloads, tmp_path, uses):
    theory, proof = built(workloads, uses)
    assert_both_forms_agree(workloads, tmp_path, theory, proof)
    text = format_proof_definitions(proof)
    assert text.startswith("$1 = ") and len(text) < len(format_proof(proof)) / 2
    assert verdict(theory, proof, proof.conclusion) == "ok"
    assert verdict(theory, parse_proof(corrupt(workloads, tmp_path, text)), proof.conclusion) != "ok"


def test_random_proofs_round_trip_in_both_forms(workloads, tmp_path):
    for theory, proof in random_proofs():
        assert_both_forms_agree(workloads, tmp_path, theory, proof)


def test_a_mixed_file_shares_every_subterm(workloads):
    _, proof = built(workloads, 2)
    rng = random.Random(5)
    lines = []
    for line in format_proof_definitions(proof).splitlines():
        if not line.startswith("$") and rng.random() < 0.5:  # the step's formula written out
            n = int(line.split(":")[0])
            line = f"{n}: {print_formula(proof.steps[n - 1].formula)} [{line.rpartition('[')[2]}"
        lines.append(line)
    mixed = parse_proof("\n".join(lines) + "\n")
    assert mixed == proof
    assert_one_object_per_subterm(mixed)
    # Spacing is free, a number may have leading zeros, and a subterm
    # defined twice, or also written out, is one object.
    text = "$1=p->q\n  $2 = !$01 # a comment\n$3 = p -> q\n1: $3 [hyp]\n2: !(p -> q) [hyp]\n3: $002 [hyp]\n"
    text += "4:  $2 [mp 1 2]\n 5:$1[axiom W1]\n"
    steps = [step.formula for step in parse_proof(text).steps]
    assert steps == [parse("p -> q"), parse("!(p -> q)"), parse("!(p -> q)"), parse("!(p -> q)"), parse("p -> q")]
    assert steps[0] is steps[1].arg is steps[4] and steps[1] is steps[2] is steps[3]


def test_a_chain_within_the_depth_bound_is_read():
    text = "$1 = !p\n" + "".join(f"${k} = ?${k - 1}\n" for k in range(2, 301))
    proof = parse_proof(text + "1: $300 [hyp]\n")
    assert proof.conclusion == parse("?" * 299 + "!p")


@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.proof")), ids=lambda p: p.name)
def test_fixture_proofs_read_as_before(path):
    text = path.read_text()
    proof = parse_proof(text)
    steps = [line for line in text.splitlines() if not line.startswith("#")]
    assert format_proof(proof) == "\n".join(steps) + "\n"
    assert parse_proof(format_proof_definitions(proof)) == proof


def doubling(k: int):
    """``p`` under ``k`` levels of ``X -> X``: 2**(k + 1) - 1 nodes, k + 1 distinct ones."""
    f = Atom("p")
    for _ in range(k):
        f = Bin(IMPLIES, f, f)
    return f


def test_a_formula_past_the_node_bound_is_written_out():
    assert 2**16 - 1 <= _MAX_DEFINED_NODES < 2**17 - 1
    at, past = doubling(15), doubling(16)
    proof = Proof((ProofStep(at, MemberRef()), ProofStep(past, MemberRef()), ProofStep(at, MpRef(1, 2))))
    text = format_proof_definitions(proof)
    lines = text.splitlines()
    assert lines[-3:] == ["1: $15 [hyp]", f"2: {print_formula(past)} [hyp]", "3: $15 [mp 1 2]"]
    assert lines[:-3] == ["$1 = p -> p"] + [f"${k} = ${k - 1} -> ${k - 1}" for k in range(2, 16)]
    parsed = parse_proof(text)
    assert parsed == proof
    assert_one_object_per_subterm(parsed)


def chain(lines: int, body) -> str:
    return "$1 = p -> p\n" + "".join(f"${k} = {body(k - 1)}\n" for k in range(2, lines + 1))


# (proof text, the line its error names, a phrase of the error)
REJECTED = {
    "forward reference": ("$1 = p -> $2\n$2 = p -> p\n1: $1 [hyp]\n", 1, "$2 is not defined above"),
    "undefined reference": ("$1 = p -> p\n$2 = $1 -> $0\n1: $2 [hyp]\n", 2, "$0 is not defined above"),
    "repeated": ("$1 = p -> p\n$1 = q -> q\n1: $1 [hyp]\n", 2, "$1 defined, expected $2"),
    "out of sequence": ("$1 = p -> p\n$3 = q -> q\n1: $1 [hyp]\n", 2, "$3 defined, expected $2"),
    "unknown connective": ("$1 = p -> p\n$2 = $1 ~ q\n1: $2 [hyp]\n", 2, "not a definition"),
    "equivalence": ("$1 = p <-> q\n1: $1 [hyp]\n", 1, "not a definition"),
    "compound operand": ("$1 = p -> q\n$2 = q -> r\n$3 = (p -> q) -> r\n1: $3 [hyp]\n", 3, "not a definition"),
    "self reference": ("$1 = !$1\n1: $1 [hyp]\n", 1, "$1 is not defined above"),
    "own number": ("$1 = p -> p\n$2 = $1 -> $2\n1: $2 [hyp]\n", 2, "$2 is not defined above"),
    "undefined step": ("$1 = p -> p\n1: $1 [hyp]\n2: $2 [mp 1 1]\n", 3, "$2 is not defined above"),
    "step out of sequence": ("$1 = p -> p\n1: $1 [hyp]\n3: $1 [mp 1 1]\n", 3, "step number 3, expected 2"),
    "doubling chain": (chain(64, lambda j: f"${j} -> ${j}") + "1: $64 [hyp]\n", 16, "more than 65536 nodes"),
    "deep chain": (chain(5000, lambda j: f"!${j}") + "1: $5000 [hyp]\n", None, "nested too deeply"),
}


@pytest.mark.parametrize("case", REJECTED)
def test_a_bad_definitions_file_exits_2_naming_its_line(tmp_path, capsys, case):
    text, lineno, phrase = REJECTED[case]
    start = time.perf_counter()
    with pytest.raises(ProofError) as err:
        parse_proof(text)
    assert err.value.step is None and phrase in err.value.reason
    if lineno is None:  # the depth bound depends on the interpreter's recursion limit
        lineno = int(err.value.reason.split(":")[0].removeprefix("line "))
        assert 2 <= lineno < 5000
    assert err.value.reason.startswith(f"line {lineno}: ")
    theory, proof = tmp_path / "t.thy", tmp_path / "bad.proof"
    theory.write_text("p\n")
    proof.write_text(text)
    code = main(["proof", "check", str(theory), str(proof), "p"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    if case != "deep chain":  # whose line depends on the call depth
        assert captured.err == f"proof format error: {err.value}\n"
    assert captured.err.startswith("proof format error: proof: line ") and phrase in captured.err
    assert time.perf_counter() - start < 2.0
