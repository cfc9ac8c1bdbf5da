"""``parse_proof`` reads each span once; it must still give what the token parser gives.

The reference is ``parse_proof`` with the span reader declining every
line: each line then goes to ``parse_span`` whole, against one node table
for the file, from the same call depth.
"""

import contextlib
import random
import re
import time
from pathlib import Path

import pytest

from iqcl import syntax
from iqcl.calculus import _step_fields, format_proof, parse_proof
from iqcl.syntax import _LEVEL, _TOKEN_RE, IMPLIES, ODOT, Bin, Neg, SpanReader, Sqrt, print_formula
from util import built_proofs, random_formula

FIXTURES = Path(__file__).parent / "fixtures"
ALIAS = {"bot": "0", "top": "1", "half": "1/2"}
ATOMS = ("p", "q", "r1", "s_2")
# The step-line grammar that ``calculus._step_fields`` reads without a regex.
STEP_RE = re.compile(r"\s*([0-9]+):\s*(.*?)\s*\[([^\]]*)\]\s*$")


def outcome(text: str):
    """``('ok', proof)``, or the error's type, text, line and column."""
    try:
        return "ok", parse_proof(text)
    except ValueError as exc:
        return type(exc).__name__, str(exc), getattr(exc, "line", None), getattr(exc, "column", None)


@contextlib.contextmanager
def token_parser_only():
    """The reference: ``parse_proof`` leaves every line to ``parse_span``."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(SpanReader, "read", lambda self, text, start, end: None)
        yield


@pytest.fixture
def token_parser_chars(monkeypatch):
    """The length of each span handed to the token parser from now on."""
    lengths = []

    class Counting(syntax._Parser):
        def __init__(self, text, start, end, line, memo):
            lengths.append(end - start)
            super().__init__(text, start, end, line, memo)

    monkeypatch.setattr(syntax, "_Parser", Counting)
    return lengths


def assert_same_sharing(got: list, want: list):
    """Equal formulas whose nodes are shared the same way, across the whole list."""
    assert got == want
    pairs, stack = {}, list(zip(got, want))
    while stack:
        g, w = stack.pop()
        seen = id(g) in pairs
        if pairs.setdefault(id(g), id(w)) != id(w):
            raise AssertionError(f"{print_formula(g)}: one object here, two in the reference")
        if seen:
            continue
        if isinstance(g, (Neg, Sqrt)):
            stack.append((g.arg, w.arg))
        elif isinstance(g, Bin):
            stack += ((g.left, w.left), (g.right, w.right))
    assert len(set(pairs.values())) == len(pairs), "two objects here are one in the reference"


def assert_matches_reference(text: str):
    got = outcome(text)
    with token_parser_only():
        want = outcome(text)  # from the same depth, for "nested too deeply"
    assert got == want
    if got[0] == "ok":
        assert_same_sharing(
            [step.formula for step in got[1].steps], [step.formula for step in want[1].steps]
        )
    return got


def iff(a, b):
    return Bin(ODOT, Bin(IMPLIES, a, b), Bin(IMPLIES, b, a))


def is_iff(f: Bin) -> bool:
    return f.op == ODOT and isinstance(f.left, Bin) and f == iff(f.left.left, f.left.right)


def noisy(rng, f, min_level: int = 0) -> str:
    """Text of ``f`` with redundant parentheses, ``<->`` for some equivalences
    and other spellings of some constants."""
    if isinstance(f, (Neg, Sqrt)):
        text, level = ("!" if isinstance(f, Neg) else "?") + noisy(rng, f.arg, 7), 7
    elif not isinstance(f, Bin):
        text, level = print_formula(f), 7
        if rng.random() < 0.3:
            text = ALIAS.get(text, text)
    elif is_iff(f) and rng.random() < 0.7:
        text, level = f"{noisy(rng, f.left.left, 0)} <-> {noisy(rng, f.left.right, 1)}", 0
    else:
        level = _LEVEL[f.op]
        right_assoc = f.op == IMPLIES
        left = noisy(rng, f.left, level + right_assoc)
        right = noisy(rng, f.right, level + (not right_assoc))
        text = f"{left} {f.op} {right}"
    if level < min_level or rng.random() < 0.15:
        text = f"({text})"
    return text


def respaced(rng, text: str) -> str:
    """``text`` with its tokens joined by random whitespace, none included."""
    return "".join(tok + rng.choice(("", "", " ", "  ", "\t")) for tok in _TOKEN_RE.findall(text))


def random_proof_text(rng) -> str:
    """Proof lines that reuse earlier formulas and their parts, as built proofs do."""
    pool, lines = [], []
    for n in range(1, rng.randint(2, 20)):
        roll = rng.random()
        implications = [f for f in pool if isinstance(f, Bin) and f.op == IMPLIES]
        if pool and roll < 0.25:
            f = Bin(IMPLIES, rng.choice(pool), rng.choice(pool))
        elif implications and roll < 0.45:
            f = rng.choice(implications).right
        elif pool and roll < 0.6:
            f = rng.choice(pool)
        elif roll < 0.7:
            f = iff(random_formula(rng, ATOMS, 2), random_formula(rng, ATOMS, 2))
        else:
            f = random_formula(rng, ATOMS, rng.randint(0, 4))
        for _ in range(rng.choice((0, 0, 1, 3))):
            f = rng.choice((Neg, Sqrt))(f)
        pool.append(f)
        just = rng.choice(("axiom W1", "hyp", "hyp 2", f"mp {rng.randint(1, n)} {rng.randint(1, n)}"))
        gap = rng.choice(("", " ", "  ", "\t"))
        line = f"{gap}{n}:{gap}{respaced(rng, noisy(rng, f))}{gap}[{just}]"
        if rng.random() < 0.2:
            line += " # (p -> q"
        lines.append(line)
        if rng.random() < 0.15:
            lines.append(rng.choice(("", "# 9: p [hyp]", "   ")))
    return "\n".join(lines) + "\n"


CORRUPTIONS = (
    lambda rng, formula: formula[: (i := rng.randint(0, len(formula)))] + rng.choice("$@-<~") + formula[i:],
    lambda rng, formula: "p -> ",
    lambda rng, formula: "()",
    lambda rng, formula: f"{formula} -> -> q",
    lambda rng, formula: f"({formula}) q",
    lambda rng, formula: f"-> {formula}",
    lambda rng, formula: formula[: (i := rng.randint(0, len(formula)))] + "(" + formula[i:],
    lambda rng, formula: formula.replace(")", "", 1) if ")" in formula else formula + ")",
)


def corrupted(rng, text: str) -> str:
    """``text`` with the formula of one line made malformed."""
    lines = text.split("\n")
    candidates = [i for i, line in enumerate(lines) if STEP_RE.match(line.split("#", 1)[0])]
    i = rng.choice(candidates)
    m = STEP_RE.match(lines[i].split("#", 1)[0])
    start, end = m.span(2)
    lines[i] = lines[i][:start] + rng.choice(CORRUPTIONS)(rng, lines[i][start:end]) + lines[i][end:]
    return "\n".join(lines)


def assert_step_fields_match_the_regex(line: str):
    m = STEP_RE.match(line)
    assert _step_fields(line) == (m and (m[1], *m.span(2), m[3])), repr(line)


@pytest.mark.parametrize("seed", range(8))
def test_step_fields_match_the_regex_on_random_and_malformed_proofs(seed):
    rng = random.Random(2000 + seed)
    for _ in range(25):
        text = random_proof_text(rng)
        for proof in (text, corrupted(rng, text)):
            for raw in proof.splitlines():
                assert_step_fields_match_the_regex(raw)
                assert_step_fields_match_the_regex(raw.split("#", 1)[0])


def test_step_fields_match_the_regex_on_random_lines():
    # Short lines over the characters the grammar turns on, with Unicode
    # spaces and non-ASCII digits; a line never holds "\n".
    rng = random.Random(3)
    alphabet = "[]:19 p\t\u00a0\u3000\x1c\r\u2028\u0661-"
    heads = ("", "1:", " 12:", "\t3 :", "\u0661:", "7", ":", "\u00a01:\u3000", "1:]")
    tails = ("", "]", "] ", "]\u00a0\r", "]x", "[]", " [hyp]", "[a]]", "[ mp 1 2 ]\t")
    matched = 0
    for _ in range(20000):
        body = "".join(rng.choices(alphabet, k=rng.randint(0, 10)))
        line = rng.choice(heads) + body + rng.choice(tails)
        assert_step_fields_match_the_regex(line)
        matched += STEP_RE.match(line) is not None
    assert matched >= 2000
    for line in ("1: p [hyp]", "1:[hyp]", "  12 :p [hyp]", "1: p [a] [b]", "1: p [a]] ", "1: [", "1:]",
                 "1: p [hyp] x", "1: [[hyp]", "1: p] [hyp]", "\u0661: p [hyp]", ":p [hyp]", "1: p\u3000[hyp]\u00a0"):
        assert_step_fields_match_the_regex(line)


def nest(depth: int, inner: str) -> str:
    return "(" * depth + inner + ")" * depth


@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.proof")), ids=lambda p: p.name)
def test_fixture_proofs_match_the_reference(path):
    assert assert_matches_reference(path.read_text())[0] == "ok"


def test_built_proofs_match_the_reference(workloads):
    for _, built in built_proofs(workloads):
        assert assert_matches_reference(format_proof(built))[1] == built


@pytest.mark.parametrize("seed", range(8))
def test_random_proofs_match_the_reference(seed):
    rng = random.Random(seed)
    for _ in range(25):
        assert assert_matches_reference(random_proof_text(rng))[0] == "ok"


@pytest.mark.parametrize("seed", range(8))
def test_malformed_proofs_raise_the_reference_error(seed):
    rng = random.Random(1000 + seed)
    raised = 0
    for _ in range(25):
        raised += assert_matches_reference(corrupted(rng, random_proof_text(rng)))[0] != "ok"
    assert raised >= 20


def test_deep_parentheses_are_read_without_the_token_parser(token_parser_chars):
    text = f"1: {nest(800, 'p -> q')} [hyp]\n"
    assert_matches_reference(text)
    del token_parser_chars[:]
    parse_proof(text)
    assert token_parser_chars == [1, 1]  # p and q


def test_long_implication_chain_matches_the_reference():
    chain = " -> ".join(f"(p{i} -> q)" for i in range(300))
    assert_matches_reference(f"1: {chain} [hyp]\n2: {chain} -> q [axiom W1]\n")


def test_too_deep_a_line_raises_the_reference_error():
    got = assert_matches_reference(f"1: p [hyp]\n2: {nest(5000, 'p')} [hyp]\n")
    assert got[0] == "ParseError" and got[1].endswith("formula nested too deeply") and got[2] == 2


def test_a_known_span_lets_no_line_past_the_token_parser():
    # The deepest nesting the token parser reads here, found by bisection.
    low, high = 1, 5000
    while high - low > 1:
        mid = (low + high) // 2
        with token_parser_only():
            ok = outcome(f"1: {nest(mid, 'p')} [hyp]\n")[0] == "ok"
        low, high = (mid, high) if ok else (low, mid)
    known = nest(low - 70, "p -> q")
    results = []
    for extra in range(0, 100, 7):
        # Line 2 wraps line 1, whose text the span table then knows.
        text = f"1: {known} [hyp]\n2: {nest(extra, known)} [hyp]\n"
        results.append(assert_matches_reference(text)[0])
    assert results[0] == "ok" and results[-1] == "ParseError"


@pytest.mark.parametrize("seed", range(4))
def test_groups_about_as_deep_as_one_regex_match_reads_match_the_reference(seed):
    # _close matches a group nested up to _GROUP_DEPTH deep with one regex
    # call and scans a deeper one.  Lines mix both; some have a stray
    # parenthesis in the formula, and some a ')' in a comment after it.
    rng = random.Random(5000 + seed)
    depths = range(syntax._GROUP_DEPTH - 3, syntax._GROUP_DEPTH + 4)
    for _ in range(25):
        lines = []
        for n in range(1, 8):
            left, right = (nest(rng.choice(depths), rng.choice(("p", "p -> q", "!(q & r1)"))) for _ in "lr")
            formula = f"({left} -> {right}) -> {left}"
            if rng.random() < 0.3:
                i = rng.randrange(len(formula))
                formula = formula[:i] + rng.choice("()") + formula[i:]
            lines.append(f"{n}: {formula} [hyp]" + rng.choice(("", " # )", " # ))))")))
        assert_matches_reference("\n".join(lines) + "\n")


def test_deep_line_costs_at_most_20_times_the_token_parser():
    # A reader that counts parentheses again for each candidate '->' is
    # cubic in the depth: hundreds of times slower here.
    text = f"1: {nest(800, 'p -> q')} [hyp]\n"

    def best_of_3(run):
        times = []
        for _ in range(3):
            start = time.perf_counter()
            run(text)
            times.append(time.perf_counter() - start)
        return min(times)

    fast = best_of_3(parse_proof)
    with token_parser_only():
        assert fast <= 20 * best_of_3(parse_proof)


def test_token_parser_reads_under_1_percent_of_a_built_proof(workloads, token_parser_chars):
    # A work count, not a time: it repeats exactly, so a lost fast path fails here.
    _, built = list(built_proofs(workloads))[-1]
    text = format_proof(built)
    formula_chars = sum(len(STEP_RE.match(line)[2]) for line in text.splitlines())
    assert parse_proof(text) == built
    assert sum(token_parser_chars) <= formula_chars / 100
