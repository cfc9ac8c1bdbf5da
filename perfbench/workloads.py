"""Seeded workloads for the iqcl benchmark, with an answer check per operation.

A workload is one *cycle*: a fixed mix of operation classes whose inputs
come from the seed.  The run repeats the cycle, so the class shares of a
run do not depend on how many repetitions fit into it.  The seed picks
atom names and constants but keeps each operation's cost: atoms are
named in the same sorted order whatever the seed (the searches visit
atoms in sorted order), and literal shapes are fixed per schema.

Each operation is a CLI command run in-process through ``iqcl.cli.main``
(proof building, which has no CLI command, calls ``calculus`` directly).
Every answer is checked against a value the benchmark knows without the
search under test: axiom-schema instances are tautologies, counterexamples
are re-evaluated exactly and through the gate fold, relevance values are
closed forms computed here with ``Fraction`` and ``math``, proofs must be
accepted and their corrupted copies rejected, and gate outputs are
compared with the closed Bloch forms.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

from iqcl import calculus, qmix, semantics
from iqcl.syntax import (
    IMPLIES,
    JOIN,
    MEET,
    ODOT,
    OPLUS,
    PRODUCT,
    Atom,
    Bin,
    Const,
    Formula,
    Neg,
    Sqrt,
    atoms,
    is_pmv_fragment,
    parse,
)
from iqcl.algebra import SConstant

# Tolerance pinned by acceptance criterion 4 for the physical oracle.
SIM_TOL = 1e-10
# Tolerance passed to every relevance command and used to grade it.
REL_TOL = 1e-6
# Budget of the sampled (3- and 4-atom) tautology items.
TAUT_BUDGET = 2000

# ROADMAP item 1: rows the optimizer gets wrong at the commit that added
# this benchmark.  They stay in the corpus and count as failed operations;
# they are listed so that only a *new* wrong answer makes a run incorrect.
KNOWN_WRONG_RELEVANCE = {
    ("half -> p . q", "p"): "ROADMAP item 1: coupled constraints stall coordinate descent",
    ("3/4 -> p . q", "p"): "ROADMAP item 1: coupled constraints stall coordinate descent",
    ("1/4 -> p * q", "p"): "ROADMAP item 1: coupled constraints stall coordinate descent",
}


# ---------------------------------------------------------------------------
# Formula text


def text(f: Formula) -> str:
    """Fully parenthesised concrete syntax (the CLI's printer is under test)."""
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, Const):
        return str(f.value)
    if isinstance(f, Neg):
        return f"!{text(f.arg)}"
    if isinstance(f, Sqrt):
        return f"?{text(f.arg)}"
    return f"({text(f.left)} {f.op} {text(f.right)})"


def size(f: Formula) -> int:
    """Number of AST nodes."""
    if isinstance(f, (Atom, Const)):
        return 1
    if isinstance(f, (Neg, Sqrt)):
        return 1 + size(f.arg)
    return 1 + size(f.left) + size(f.right)


def _imp(a: Formula, b: Formula) -> Formula:
    return Bin(IMPLIES, a, b)


def _iff(a: Formula, b: Formula) -> Formula:
    return Bin(ODOT, _imp(a, b), _imp(b, a))


def _c(value) -> Const:
    return Const(SConstant.from_fraction(Fraction(value)))


HALF = _c(Fraction(1, 2))
QUARTER = _c(Fraction(1, 4))
BOT, TOP = _c(0), _c(1)

_NAMES = ("p", "q", "r", "s", "x", "y", "z", "u", "v", "w", "n", "t", "k", "m")


def _literal(name: str, shape: int) -> Formula:
    return (Atom(name), Neg(Atom(name)), Sqrt(Atom(name)))[shape % 3]


def _dyadic(rng: random.Random, bits: int = 4) -> Fraction:
    return Fraction(rng.randint(0, 1 << bits), 1 << bits)


def schema_instance(rng: random.Random, sid: str, names: tuple[str, ...], shape: int = 0) -> Formula:
    """A seeded instance of axiom schema ``sid`` over the atoms ``names``.

    Metavariables become literals: atom, negated atom or root of an atom,
    in turn from ``shape``.  The seed picks the atoms and constants, so an
    instance's size, and its cost, do not depend on the seed.  The first
    two metavariables use the first two atoms.
    """
    a = _literal(names[0], shape)
    b = _literal(names[1 % len(names)], shape + 1)
    c = _literal(rng.choice(names), shape + 2)
    if sid == "W1":
        return _imp(a, _imp(b, a))
    if sid == "W2":
        return _imp(_imp(a, b), _imp(_imp(b, c), _imp(a, c)))
    if sid == "W3":
        return _imp(_imp(Neg(a), Neg(b)), _imp(b, a))
    if sid == "W4":
        return _imp(_imp(_imp(a, b), b), _imp(_imp(b, a), a))
    if sid == "E1":
        return _iff(Bin(ODOT, a, b), Neg(Bin(OPLUS, Neg(a), Neg(b))))
    if sid == "E2":
        return _iff(_imp(a, b), Neg(Bin(ODOT, a, Neg(b))))
    if sid == "E3":
        return _iff(Neg(a), _imp(a, BOT))
    if sid == "E4":
        return _iff(Bin(MEET, a, b), Bin(ODOT, a, _imp(a, b)))
    if sid == "E5":
        return _iff(Bin(JOIN, a, b), _imp(_imp(a, b), b))
    if sid == "E6":
        return _iff(Neg(BOT), TOP)
    if sid == "P1":
        return _imp(Bin(PRODUCT, a, b), Bin(PRODUCT, b, a))
    if sid == "P2":
        return _iff(Bin(PRODUCT, TOP, a), a)
    if sid == "P3":
        return _imp(Bin(PRODUCT, a, b), b)
    if sid == "P4":
        return _iff(Bin(PRODUCT, Bin(PRODUCT, a, b), c), Bin(PRODUCT, a, Bin(PRODUCT, b, c)))
    if sid == "P5":
        return _iff(
            Bin(PRODUCT, a, Bin(ODOT, b, Neg(c))),
            Bin(ODOT, Bin(PRODUCT, a, b), Neg(Bin(PRODUCT, a, c))),
        )
    if sid in ("S1", "S2", "S3"):
        op, fn = {
            "S1": (ODOT, lambda r, t: max(Fraction(0), r + t - 1)),
            "S2": (IMPLIES, lambda r, t: min(Fraction(1), 1 - r + t)),
            "S3": (PRODUCT, lambda r, t: r * t),
        }[sid]
        r, t = _dyadic(rng), _dyadic(rng)
        return _iff(Bin(op, _c(r), _c(t)), _c(fn(r, t)))
    if sid == "Q1":
        return _iff(Sqrt(Sqrt(a)), Neg(a))
    if sid == "Q2":
        return _iff(Sqrt(Neg(a)), Neg(Sqrt(a)))
    if sid == "Q3":
        op = rng.choice((OPLUS, ODOT, IMPLIES, PRODUCT, MEET, JOIN))
        return _iff(Sqrt(Bin(op, a, b)), HALF)
    if sid == "Q4":
        return _iff(Sqrt(_c(_dyadic(rng))), HALF)
    if sid == "Q5":
        s = rng.choice((Fraction(7, 16), Fraction(55, 128), Fraction(1, 2), Fraction(1)))
        return _imp(Bin(OPLUS, Bin(PRODUCT, QUARTER, a), Bin(PRODUCT, QUARTER, Sqrt(a))), _c(s))
    raise ValueError(sid)


# ---------------------------------------------------------------------------
# Exact models and Bloch states


def _disk_points() -> list[tuple[Fraction, Fraction]]:
    step = Fraction(1, 8)
    return [
        (i * step, j * step)
        for i in range(9)
        for j in range(9)
        if (1 - 2 * i * step) ** 2 + (1 - 2 * j * step) ** 2 <= 1
    ]


DISK_POINTS = _disk_points()


def bloch_of(model: semantics.ReducedModel) -> dict[str, qmix.BlochQmix]:
    """The Bloch states (r1 = 0) whose probability pairs are the model's."""
    return {
        name: qmix.BlochQmix(0.0, 1.0 - 2.0 * float(w), 1.0 - 2.0 * float(u))
        for name, (u, w) in model.assignment.items()
    }


def random_ball_point(rng: random.Random) -> qmix.BlochQmix:
    while True:
        r = [rng.uniform(-1.0, 1.0) for _ in range(3)]
        if r[0] * r[0] + r[1] * r[1] + r[2] * r[2] <= 1.0:
            return qmix.BlochQmix(*r)


# ---------------------------------------------------------------------------
# Operations


def machine_fields(out: str) -> dict[str, str]:
    fields = {}
    for line in out.splitlines():
        key, sep, value = line.partition("=")
        if sep:
            fields[key] = value
    return fields


@dataclass
class Op:
    """One operation: a CLI argv, or a direct call for proof building.

    ``check(code, output)`` returns None when the answer is right and a
    reason otherwise; ``output`` is captured stdout for CLI operations
    and the return value of ``call`` otherwise.  ``prepare`` runs untimed
    before the operation.
    """

    cls: str
    check: Callable[[int, object], str | None]
    argv: list[str] | None = None
    call: Callable[[], object] | None = None
    prepare: Callable[[], None] | None = None
    known_defect: str = ""
    expected: float | None = None  # closed-form value, relevance only
    label: str = ""  # how a failure names the operation; the argv by default

    @property
    def command(self) -> str:
        return self.argv[0] if self.argv else "build"


@dataclass
class Workload:
    name: str
    ops: list[Op] = field(default_factory=list)
    axiom_formulas: list[Formula] = field(default_factory=list)  # match_axiom probe inputs

    def class_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for op in self.ops:
            counts[op.cls] = counts.get(op.cls, 0) + 1
        return counts


# -- checks -----------------------------------------------------------------


def _expect_tautology(code: int, out: str) -> str | None:
    fields = machine_fields(out)
    if code != 0 or fields.get("verdict") != "tautology-no-counterexample":
        return f"axiom instance not accepted: exit {code}, verdict {fields.get('verdict')}"
    return None


def _expect_counterexample(f: Formula) -> Callable[[int, str], str | None]:
    def check(code: int, out: str) -> str | None:
        fields = machine_fields(out)
        if code != 1 or fields.get("verdict") != "counterexample":
            return f"non-tautology not refuted: exit {code}, verdict {fields.get('verdict')}"
        pairs = {}
        for name in atoms(f):
            try:
                pairs[name] = (Fraction(fields[f"model.{name}.u"]), Fraction(fields[f"model.{name}.w"]))
            except (KeyError, ValueError):
                return f"counterexample lacks atom {name}"
        try:
            model = semantics.ReducedModel(pairs)
        except ValueError as exc:
            return f"counterexample is not a model: {exc}"
        exact = semantics.eval_prob(model, f)[0]
        folded = semantics.eval_bloch(bloch_of(model), f)
        if not (exact < 1 and folded < 1.0):
            return f"counterexample evaluates to {exact} exactly and {folded} by the gate fold"
        return None

    return check


def _expect_fmt(f: Formula) -> Callable[[int, str], str | None]:
    def check(code: int, out: str) -> str | None:
        printed = machine_fields(out).get("formula", "")
        if code != 0 or parse(printed) != f:
            return f"fmt output {printed!r} does not re-parse to the input"
        return None

    return check


def _expect_eval(f: Formula, model: semantics.ReducedModel) -> Callable[[int, str], str | None]:
    bloch = bloch_of(model)
    want_u = semantics.eval_bloch(bloch, f)
    want_w = semantics.eval_bloch(bloch, Sqrt(f))

    def check(code: int, out: str) -> str | None:
        fields = machine_fields(out)
        try:
            u, w = Fraction(fields["value"]), Fraction(fields["root_value"])
        except (KeyError, ValueError):
            return f"eval printed no value pair (exit {code})"
        if code != 0 or abs(float(u) - want_u) > 1e-9 or abs(float(w) - want_w) > 1e-9:
            return f"eval gave ({u}, {w}), gate fold ({want_u}, {want_w})"
        return None

    return check


def _expect_translation(f: Formula, model: semantics.ReducedModel) -> Callable[[int, str], str | None]:
    want = semantics.eval_prob(model, f)[0]

    def check(code: int, out: str) -> str | None:
        printed = machine_fields(out).get("formula", "")
        try:
            t = parse(printed)
        except ValueError:
            return f"translation {printed!r} does not parse"
        if code != 0 or not is_pmv_fragment(t) or semantics.eval_prob(model, t)[0] != want:
            return f"translation {printed!r} is outside the fragment or changes the value"
        return None

    return check


def _expect_tq5(names: list[str]) -> Callable[[int, str], str | None]:
    def check(code: int, out: str) -> str | None:
        lines = out.splitlines()
        if code != 0 or len(lines) != 4 * len(names):
            return f"tq5 printed {len(lines)} members, expected {4 * len(names)}"
        for line in lines:
            member = parse(line)
            if atoms(member) - set(names):
                return f"tq5 member {line!r} mentions a foreign atom"
        return None

    return check


def _expect_relevance(expected: float | None) -> Callable[[int, str], str | None]:
    """Right value within the run's tolerance, and the right status.

    A feasible theory may report ``feasible`` or, when the evaluation
    budget ran out, ``tolerance-limited``; the value must be right either
    way.  An infeasible theory must report ``infeasible``.
    """

    def check(code: int, out: str) -> str | None:
        fields = machine_fields(out)
        status = fields.get("status")
        if code != 0:
            return f"relevance exited {code}"
        if expected is None:
            return None if status == "infeasible" else f"infeasible theory reported {status}"
        try:
            value = float(Fraction(fields["value"]))
        except (KeyError, ValueError):
            return "relevance printed no value"
        if status not in ("feasible", "tolerance-limited"):
            return f"feasible theory reported {status}"
        if abs(value - expected) > REL_TOL:
            return f"value {value!r}, closed form {expected!r}"
        return None

    return check


def relevance_value(out: str) -> float | None:
    try:
        return float(Fraction(machine_fields(out)["value"]))
    except (KeyError, ValueError):
        return None


def relevance_errors(outcomes) -> tuple[int, float]:
    """Failed relevance operations, and the largest |value - closed form|."""
    wrong, worst = 0, 0.0
    for outcome in outcomes:
        if outcome.op.command != "relevance":
            continue
        wrong += outcome.failure is not None
        value = relevance_value(outcome.output) if isinstance(outcome.output, str) else None
        if outcome.op.expected is not None and value is not None:
            worst = max(worst, abs(value - outcome.op.expected))
    return wrong, worst


def _expect_proof(ok: bool, steps_of: Callable[[], int]) -> Callable[[int, str], str | None]:
    def check(code: int, out: str) -> str | None:
        fields = machine_fields(out)
        if ok:
            if code != 0 or fields.get("verdict") != "ok" or fields.get("steps") != str(steps_of()):
                return f"valid proof: exit {code}, verdict {fields.get('verdict')}"
        elif code != 1 or fields.get("verdict") != "rejected":
            return f"corrupted proof: exit {code}, verdict {fields.get('verdict')}"
        return None

    return check


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= SIM_TOL


def _parse_point(textual: str) -> tuple[float, float, float]:
    rho = qmix.parse_qmix(textual)
    return (rho.r1, rho.r2, rho.r3) if isinstance(rho, qmix.BlochQmix) else (0.0, 0.0, 1.0 - 2.0 * rho.lam)


def _expect_gate(gate: str, points: list[tuple[float, float, float]]) -> Callable[[int, str], str | None]:
    """Closed Bloch forms of the single gates."""
    probs = [(1.0 - r3) / 2.0 for _, _, r3 in points]
    if gate == "not":
        r1, r2, r3 = points[0]
        want_bloch = (r1, -r2, -r3)
    elif gate == "sqrt_not":
        r1, r2, r3 = points[0]
        want_bloch = (r1, -r3, r2)
    elif gate in ("and", "iand"):
        want_bloch = (0.0, 0.0, 1.0 - 2.0 * probs[0] * probs[1])
    else:
        want_bloch = (0.0, 0.0, 1.0 - 2.0 * min(1.0, probs[0] + probs[1]))
    want_prob = (1.0 - want_bloch[2]) / 2.0

    def check(code: int, out: str) -> str | None:
        fields = machine_fields(out)
        try:
            prob = float(fields["probability"])
            bloch = _parse_point(fields["bloch"]) if gate != "and" else want_bloch
        except (KeyError, ValueError):
            return f"sim {gate} printed no result (exit {code})"
        if code != 0 or not _close(prob, want_prob) or not all(map(_close, bloch, want_bloch)):
            return f"sim {gate}: probability {prob!r}, closed form {want_prob!r}"
        return None

    return check


def _expect_prop34(trials: int) -> Callable[[int, str], str | None]:
    def check(code: int, out: str) -> str | None:
        fields = machine_fields(out)
        try:
            deviation = float(fields["max_deviation"])
        except (KeyError, ValueError):
            return f"prop34 printed no deviation (exit {code})"
        if code != 0 or fields.get("trials") != str(trials) or not deviation <= SIM_TOL:
            return f"prop34: exit {code}, max_deviation {deviation!r}"
        return None

    return check


# ---------------------------------------------------------------------------
# Workload builders


class _Files:
    """Writes generated input files into the run's work directory."""

    def __init__(self, root: Path):
        self.root = root
        self.count = 0

    def write(self, stem: str, content: str) -> str:
        self.count += 1
        path = self.root / f"{self.count:04d}-{stem}"
        path.write_text(content, encoding="utf-8")
        return str(path)


_MACHINE = ["--format", "machine"]

AXIOM_IDS = calculus.AXIOM_IDS
# Schemata instantiated over two atoms (a 61^2-point sweep each); the
# others use one atom or none.
TWO_ATOM_SCHEMATA = ("W1", "W2", "W3", "W4", "P1")

EARLY_EXIT = (
    "p -> q",
    "?p -> p",
    "(p -> (p -> q)) -> (p -> q)",
    "(p . q) -> (p * q)",
    "(p -> q) -> ((q -> r) -> (p . r))",
)


def _rename(f: Formula, mapping: dict[str, str]) -> Formula:
    if isinstance(f, Atom):
        return Atom(mapping.get(f.name, f.name))
    if isinstance(f, Const):
        return f
    if isinstance(f, Neg):
        return Neg(_rename(f.arg, mapping))
    if isinstance(f, Sqrt):
        return Sqrt(_rename(f.arg, mapping))
    return Bin(f.op, _rename(f.left, mapping), _rename(f.right, mapping))


def random_model(rng: random.Random, names) -> semantics.ReducedModel:
    return semantics.ReducedModel({name: rng.choice(DISK_POINTS) for name in sorted(names)})


def _model_text(model: semantics.ReducedModel) -> str:
    return "".join(f"{n} {u} {w}\n" for n, (u, w) in sorted(model.assignment.items()))


def _chain(names: list[str]) -> Formula:
    """(n0 -> n1) -> ((n1 -> n2) -> ... -> (n0 -> nk)), a tautology."""
    links = [_imp(Atom(a), Atom(b)) for a, b in zip(names, names[1:])]
    f = _imp(Atom(names[0]), Atom(names[-1]))
    for link in reversed(links):
        f = _imp(link, f)
    return f


def _names(rng: random.Random, count: int) -> list[str]:
    """Seeded atom names, sorted so that the searches visit them in a fixed order."""
    return sorted(rng.sample(_NAMES, count))


def _taut_ops(rng: random.Random, files: _Files, wl: Workload) -> list[Op]:
    ops: list[Op] = []
    items: list[tuple[str, Formula, list[str]]] = []
    for k, sid in enumerate(AXIOM_IDS):
        names = tuple(_names(rng, 2 if sid in TWO_ATOM_SCHEMATA else 1))
        f = schema_instance(rng, sid, names, k)
        items.append(("taut.exhaustive", f, []))
        wl.axiom_formulas.append(f)
    for length in (3, 4):
        items.append(("taut.budget", _chain(_names(rng, length)), ["--budget", str(TAUT_BUDGET)]))
    for source in EARLY_EXIT:
        f = parse(source)
        names = sorted(atoms(f))
        items.append(("taut.early_exit", _rename(f, dict(zip(names, _names(rng, len(names))))), []))
    for k, (cls, f, extra) in enumerate(items):
        src = text(f)
        check = _expect_tautology if cls != "taut.early_exit" else _expect_counterexample(f)
        ops.append(Op(cls, check, argv=["taut", src, *extra, *_MACHINE]))
        ops.append(Op("fmt", _expect_fmt(f), argv=["fmt", src, *_MACHINE]))
        model = random_model(rng, atoms(f))
        if k % 2:
            ops.append(Op("translate", _expect_translation(f, model), argv=["translate", src, *_MACHINE]))
        else:
            model_file = files.write("model", _model_text(model))
            ops.append(Op("eval", _expect_eval(f, model), argv=["eval", src, "--model", model_file, *_MACHINE]))
    for _ in range(2):
        names = rng.sample(_NAMES, 2)
        ops.append(Op("tq5", _expect_tq5(names), argv=["tq5", "--atoms", ",".join(names), "--s", "55/128"]))
    rng.shuffle(ops)
    return ops


def relevance_rows(rng: random.Random) -> list[tuple[list[str], str, float | None]]:
    """(theory lines, formula, closed-form value or None if infeasible).

    The seed picks atom names and the constants of the one-atom families;
    the constants of the families over several atoms are fixed, because
    the descent's cost on them swings with the constant.
    """
    rows: list[tuple[list[str], str, float | None]] = [
        (["half -> p . q"], "p", 0.5),
        (["3/4 -> p . q"], "p", 0.75),
        (["1/4 -> p * q"], "p", 0.25),
        (["p + q", "!p + q"], "q", 0.5),
        (["p"], "?p", 0.5),
        (["3/4 -> p", "p -> q", "q . r -> p"], "?q + r", (2.0 - math.sqrt(3.0)) / 4.0),
    ]
    p, q, r, t = _names(rng, 4)
    s, high = Fraction(rng.randint(1, 15), 16), Fraction(rng.randint(8, 15), 16)
    a, b, c = Fraction(5, 16), Fraction(3, 8), Fraction(5, 8)
    d, e = Fraction(13, 16), Fraction(11, 16)
    rows += [
        ([f"{s} -> {p}"], p, float(s)),
        ([f"{high} -> {p}"], f"?{p}", (1.0 - 2.0 * math.sqrt(high * (1 - high))) / 2.0),
        ([f"{a} -> {p}", f"{p} -> {q}"], q, float(a)),
        ([f"{b} -> {p}", f"{c} -> {q}"], f"{p} . {q}", float(b * c)),
        ([f"{d} -> {p}", f"{e} -> {q}"], f"{p} * {q}", float(max(Fraction(0), d + e - 1))),
        ([f"{d} -> {p}", f"{p} -> {q}", f"{q} -> {r}", f"{r} -> {t}"], t, float(d)),
        ([p, f"!{p}"], p, None),
        ([], p, 0.0),
    ]
    return rows


def _relevance_ops(rng: random.Random, files: _Files, wl: Workload) -> list[Op]:
    ops = []
    for theory, formula, expected in relevance_rows(rng):
        theory_file = files.write("thy", "".join(line + "\n" for line in theory))
        known = KNOWN_WRONG_RELEVANCE.get((theory[0] if theory else "", formula), "")
        for grid in ("1/32", "1/64"):
            argv = ["relevance", theory_file, formula, "--grid", grid, "--tol", str(REL_TOL), *_MACHINE]
            ops.append(Op("relevance", _expect_relevance(expected), argv=argv, known_defect=known,
                          expected=expected, label=f"{{{', '.join(theory)}}} |- {formula} at grid {grid}"))
    return ops


HYPOTHESIS_USES = (1, 2, 3, 4)


def _input_proof(alpha: Formula, beta: Formula, uses: int):
    """A proof of beta from {alpha -> ... -> alpha -> beta} + {alpha} using alpha ``uses`` times."""
    nested = beta
    for _ in range(uses):
        nested = _imp(alpha, nested)
    steps = [calculus.ProofStep(alpha, calculus.MemberRef()), calculus.ProofStep(nested, calculus.MemberRef())]
    current = nested
    for _ in range(uses):
        current = current.right
        steps.append(calculus.ProofStep(current, calculus.MpRef(1, len(steps))))
    return semantics.Theory([nested]), calculus.Proof(tuple(steps))


def _corrupt(valid_path: str, bad_path: str):
    """Swap the premises of the middle modus-ponens step: never a valid step.

    The position is fixed, not seeded: the checker stops at the bad step,
    so the position sets the operation's cost.
    """
    lines = Path(valid_path).read_text(encoding="utf-8").splitlines()
    mp_lines = [i for i, line in enumerate(lines) if "[mp " in line]
    i = mp_lines[len(mp_lines) // 2]
    head, _, just = lines[i].rpartition("[mp ")
    minor, major = just.rstrip("]").split()
    lines[i] = f"{head}[mp {major} {minor}]"
    Path(bad_path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _proof_ops(files: _Files, alpha: Formula, beta: Formula, uses: int) -> list[Op]:
    """Build a proof by the deduction theorem, check it, check a corrupted copy."""
    theory, proof = _input_proof(alpha, beta, uses)
    goal = _imp(calculus.formula_power(alpha, uses), beta)
    theory_file = files.write("thy", text(theory.members[0]) + "\n")
    valid_file = files.write("valid.proof", "")
    bad_file = files.write("bad.proof", "")
    built: dict[str, int] = {}

    def build():
        n, out = calculus.deduction_transform(theory, alpha, proof)
        Path(valid_file).write_text(calculus.format_proof(out), encoding="utf-8")
        built["steps"] = len(out)
        return n, out

    def check_build(code, result):
        n, out = result
        if n != uses or out.conclusion != goal:
            return f"deduction gave power {n} and a conclusion other than the goal"
        return None

    def steps_of():
        return built.get("steps", -1)

    def check_argv(proof_file):
        return ["proof", "check", theory_file, proof_file, text(goal), *_MACHINE]

    return [
        Op("build", check_build, call=build, label=f"deduction_transform, hypothesis used {uses} times"),
        Op("check.valid", _expect_proof(True, steps_of), argv=check_argv(valid_file)),
        Op("check.corrupted", _expect_proof(False, steps_of), argv=check_argv(bad_file),
           prepare=lambda: _corrupt(valid_file, bad_file)),
    ]


def _proof_roundtrip_ops(rng: random.Random, files: _Files, wl: Workload) -> list[Op]:
    ops = []
    for uses in HYPOTHESIS_USES:
        alpha, beta = (Atom(name) for name in _names(rng, 2))
        ops += _proof_ops(files, alpha, beta, uses)
    return ops


PROP34_TRIALS = (25, 50, 100, 200)


def _point_text(rng: random.Random) -> tuple[str, tuple[float, float, float]]:
    if rng.random() < 0.25:
        lam = rng.random()
        return f"rho({lam!r})", (0.0, 0.0, 1.0 - 2.0 * lam)
    b = random_ball_point(rng)
    return f"({b.r1!r}, {b.r2!r}, {b.r3!r})", (b.r1, b.r2, b.r3)


def _sim_ops(rng: random.Random, files: _Files, wl: Workload) -> list[Op]:
    ops = []
    for trials in PROP34_TRIALS:
        argv = ["sim", "prop34", "--trials", str(trials), "--seed", str(rng.randrange(1 << 30)), *_MACHINE]
        ops.append(Op("sim.prop34", _expect_prop34(trials), argv=argv))
    for _ in range(3):
        for gate, arity in (("not", 1), ("sqrt_not", 1), ("and", 2), ("iand", 2), ("oplus", 2)):
            operands = [_point_text(rng) for _ in range(arity)]
            argv = ["sim", gate, *(t for t, _ in operands), *_MACHINE]
            ops.append(Op("sim.gate", _expect_gate(gate, [p for _, p in operands]), argv=argv))
    rng.shuffle(ops)
    return ops


@dataclass(frozen=True)
class Spec:
    build_ops: Callable[[random.Random, _Files, Workload], list[Op]]
    # Percentile of all latency samples reported as op_tail_ms: the highest
    # with at least ten samples beyond it in a run of ``min_cycles`` cycles.
    tail_percentile: float
    min_cycles: int


WORKLOADS: dict[str, Spec] = {
    "taut-session": Spec(_taut_ops, 96.0, 3),  # 92 operations a cycle
    "relevance-closed-form": Spec(_relevance_ops, 88.0, 3),  # 28
    "proof-roundtrip": Spec(_proof_roundtrip_ops, 80.0, 5),  # 12
    "oracle-sim": Spec(_sim_ops, 98.0, 30),  # 19
}


def build(name: str, seed: int, workdir: Path) -> Workload:
    """Generate the workload's inputs from ``seed`` and write its files."""
    wl = Workload(name)
    wl.ops = WORKLOADS[name].build_ops(random.Random(f"{name}:{seed}"), _Files(workdir), wl)
    return wl


def probe_ops(seed: int, workdir: Path) -> list[Op]:
    """One small operation of each kind, for layers a workload leaves idle.

    The traced run appends these only for operation classes the workload
    does not contain, so every per-layer metric has a measured value.
    """
    rng = random.Random(f"probe:{seed}")
    files = _Files(workdir)
    x, y = rng.sample(_NAMES, 2)
    f1 = schema_instance(rng, "W1", (x,))
    fb = _chain([x, y, rng.choice([n for n in _NAMES if n not in (x, y)])])
    fe = _rename(parse("p -> q"), {"p": x, "q": y})
    model = random_model(rng, atoms(fb))
    model_file = files.write("model", _model_text(model))
    theory_file = files.write("thy", f"1/2 -> {x}\n")
    point, coords = _point_text(rng)
    return [
        Op("taut.exhaustive", _expect_tautology, argv=["taut", text(f1), *_MACHINE]),
        Op("taut.budget", _expect_tautology, argv=["taut", text(fb), "--budget", "200", *_MACHINE]),
        Op("taut.early_exit", _expect_counterexample(fe), argv=["taut", text(fe), *_MACHINE]),
        Op("fmt", _expect_fmt(f1), argv=["fmt", text(f1), *_MACHINE]),
        Op("eval", _expect_eval(fb, model), argv=["eval", text(fb), "--model", model_file, *_MACHINE]),
        Op("translate", _expect_translation(fb, model), argv=["translate", text(fb), *_MACHINE]),
        Op("relevance", _expect_relevance(0.5), argv=["relevance", theory_file, x, *_MACHINE], expected=0.5),
        *_proof_ops(files, Atom(x), Atom(y), 1),
        Op("sim.prop34", _expect_prop34(10), argv=["sim", "prop34", "--trials", "10", *_MACHINE]),
        Op("sim.gate", _expect_gate("sqrt_not", [coords]), argv=["sim", "sqrt_not", point, *_MACHINE]),
    ]
