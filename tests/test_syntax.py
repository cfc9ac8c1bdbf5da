import dataclasses
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given

from iqcl.algebra import SConstant
from iqcl.syntax import (
    IMPLIES,
    ODOT,
    OPLUS,
    Atom,
    Bin,
    Const,
    Neg,
    ParseError,
    Sqrt,
    atoms,
    complexity,
    is_pmv_fragment,
    parse,
    parse_theory_text,
    plain_frames,
    print_formula,
)
from iqcl import syntax
from util import formulas, node_ids, random_formula


def test_parse_examples():
    assert parse("!p1 + 3/8") == Bin(
        OPLUS, Neg(Atom("p1")), Const(SConstant(3, 3))
    )
    assert parse("?(p1 + p2)") == Sqrt(Bin(OPLUS, Atom("p1"), Atom("p2")))
    p1, p2 = Atom("p1"), Atom("p2")
    assert parse("p1 <-> p2") == Bin(
        ODOT, Bin(IMPLIES, p1, p2), Bin(IMPLIES, p2, p1)
    )


def test_aliases_and_constants():
    assert parse("bot") == Const(SConstant(0, 0))
    assert parse("top") == Const(SConstant(1, 0))
    assert parse("half") == Const(SConstant(1, 1))
    assert parse("1") == Const(SConstant(1, 0))
    assert parse("0") == Const(SConstant(0, 0))
    assert parse("2/4") == Const(SConstant(1, 1))


def test_precedence():
    # product binds tighter than odot, odot tighter than oplus, etc.
    assert parse("a . b * c") == Bin(ODOT, Bin(".", Atom("a"), Atom("b")), Atom("c"))
    assert parse("a + b & c") == Bin("&", Bin("+", Atom("a"), Atom("b")), Atom("c"))
    assert parse("a & b | c") == Bin("|", Bin("&", Atom("a"), Atom("b")), Atom("c"))
    assert parse("a -> b -> c") == Bin(
        IMPLIES, Atom("a"), Bin(IMPLIES, Atom("b"), Atom("c"))
    )
    assert parse("a + b + c") == Bin(OPLUS, Bin(OPLUS, Atom("a"), Atom("b")), Atom("c"))
    assert parse("!a + b") == Bin(OPLUS, Neg(Atom("a")), Atom("b"))
    assert parse("?a . b") == Bin(".", Sqrt(Atom("a")), Atom("b"))
    # <-> binds loosest and associates to the left
    a, b, c = Atom("a"), Atom("b"), Atom("c")
    assert parse("a -> b <-> c") == parse("(a -> b) <-> c")
    assert parse("a -> b <-> c") == Bin(
        ODOT, Bin(IMPLIES, Bin(IMPLIES, a, b), c), Bin(IMPLIES, c, Bin(IMPLIES, a, b))
    )
    assert parse("a <-> b <-> c") == parse("(a <-> b) <-> c")
    assert parse("a <-> b <-> c") != parse("a <-> (b <-> c)")


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse("p + ")
    assert err.value.line == 1 and err.value.column == 5
    with pytest.raises(ParseError):
        parse("(p")
    with pytest.raises(ParseError):
        parse("p $ q")
    with pytest.raises(ParseError) as err2:
        parse("p + 1/3")  # non-dyadic constant
    assert err2.value.column == 5
    with pytest.raises(ParseError):
        parse("5/4")  # above one


# (input, str(error), line, column): the parser's error contract.
PARSE_ERRORS = [
    ("p q", "line 1, column 3: unexpected trailing input 'q'", 1, 3),
    ("(p))", "line 1, column 4: unexpected trailing input ')'", 1, 4),
    ("p +\n q )", "line 2, column 4: unexpected trailing input ')'", 2, 4),
    ("(p", "line 1, column 3: expected ')'", 1, 3),
    ("p -> (q", "line 1, column 8: expected ')'", 1, 8),
    ("p +\n  $", "line 2, column 3: unexpected character '$'", 2, 3),
    ("p $ q", "line 1, column 3: unexpected character '$'", 1, 3),
    ("3/8/2", "line 1, column 4: unexpected character '/'", 1, 4),
    ("p + 1/3", "line 1, column 5: not a dyadic rational: 1/3", 1, 5),
    ("5/4", "line 1, column 1: unit-interval value out of range: 5/4", 1, 1),
    ("x_1 + 2", "line 1, column 7: unit-interval value out of range: 2", 1, 7),
    ("?", "line 1, column 2: expected a formula, found 'end of input'", 1, 2),
    ("p ! q", "line 1, column 3: unexpected trailing input '!'", 1, 3),
    ("-> q", "line 1, column 1: expected a formula, found '->'", 1, 1),
    ("p . . q", "line 1, column 5: expected a formula, found '.'", 1, 5),
    ("()", "line 1, column 2: expected a formula, found ')'", 1, 2),
    ("p <->", "line 1, column 6: expected a formula, found 'end of input'", 1, 6),
    ("p\n\n  -> ", "line 3, column 6: expected a formula, found 'end of input'", 3, 6),
    ("   ", "line 1, column 4: expected a formula, found 'end of input'", 1, 4),
    ("\n\n", "line 3, column 1: expected a formula, found 'end of input'", 3, 1),
    ("", "line 1, column 1: expected a formula, found 'end of input'", 1, 1),
]


@pytest.mark.parametrize("text, message, line, column", PARSE_ERRORS)
def test_parse_error_contract(text, message, line, column):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert (str(err.value), err.value.line, err.value.column) == (message, line, column)


def test_malformed_input_is_a_parse_error_not_a_crash():
    assert parse("(" * 300 + "p" + ")" * 300) == Atom("p")
    with pytest.raises(ParseError, match="nested too deeply") as err:
        parse("(" * 5000 + "p" + ")" * 5000)
    assert err.value.line == 1 and 1 <= err.value.column <= 5000
    with pytest.raises(ParseError) as err:
        parse("p + 1/0")
    assert (str(err.value), err.value.column) == ("line 1, column 5: zero denominator: 1/0", 5)


def test_print_examples():
    assert print_formula(Const(SConstant(1, 0))) == "top"
    a, b, c = Atom("a"), Atom("b"), Atom("c")
    assert print_formula(Bin(IMPLIES, a, Bin(IMPLIES, b, c))) == "a -> b -> c"
    assert print_formula(Bin(IMPLIES, Bin(IMPLIES, a, b), c)) == "(a -> b) -> c"
    assert print_formula(Neg(Bin(OPLUS, a, b))) == "!(a + b)"


def test_round_trip_random():
    rng = random.Random(100)
    for _ in range(2000):
        f = random_formula(rng, ("p", "q", "r"), depth=6)
        assert parse(print_formula(f)) == f


@given(formulas(("p", "q", "r")))
def test_round_trip_property(f):
    assert parse(print_formula(f)) == f


def test_complexity():
    assert complexity(Atom("p")) == 0
    assert complexity(Const(SConstant(1, 1))) == 0
    assert complexity(Neg(Atom("p"))) == 1
    assert complexity(parse("p + !q")) == 2
    assert complexity(parse("?(p . q)")) == 2


def test_complexity_decreases_on_children():
    rng = random.Random(101)
    for _ in range(300):
        f = random_formula(rng, depth=5)
        if isinstance(f, (Neg, Sqrt)):
            assert complexity(f.arg) < complexity(f)
        elif isinstance(f, Bin):
            assert complexity(f.left) < complexity(f)
            assert complexity(f.right) < complexity(f)


def test_atoms_and_fragment():
    assert atoms(parse("p1 + ?p2 -> bot")) == {"p1", "p2"}
    assert is_pmv_fragment(parse("?p1 + p2"))
    assert not is_pmv_fragment(parse("?(p1 . p2)"))
    assert is_pmv_fragment(parse("3/8 -> p"))
    assert not is_pmv_fragment(parse("??p"))
    assert not is_pmv_fragment(parse("?half"))


def test_theory_text():
    text = """
    # a comment
    p -> q

    3/8  # trailing comment
    """
    formulas = parse_theory_text(text)
    assert formulas == [parse("p -> q"), parse("3/8")]
    with pytest.raises(ParseError):
        parse_theory_text("p ->")
    # the position is stated once, with the column in the raw line
    with pytest.raises(ParseError) as err:
        parse_theory_text("p\n  q -> $\n")
    assert str(err.value) == "line 2, column 8: unexpected character '$'"
    assert (err.value.line, err.value.column) == (2, 8)
    with pytest.raises(ParseError) as err:
        parse_theory_text("# head\n\n  (p -> q  # open\n")
    assert (err.value.line, err.value.column) == (3, 10)


def test_ast_value_semantics():
    built = Bin(IMPLIES, Neg(Atom("p")), Bin(ODOT, Sqrt(Atom("q")), Const(SConstant(3, 3))))
    parsed = parse("!p -> ?q * 3/8")
    assert parsed == built and hash(parsed) == hash(built)
    assert parsed != parse("!p -> ?q * 1/8") and parsed != parse("!p -> ?q + 3/8")
    assert parse("p <-> q") == Bin(ODOT, parse("p -> q"), parse("q -> p"))
    assert hash(parse("p <-> q")) == hash(Bin(ODOT, parse("p -> q"), parse("q -> p")))
    rng = random.Random(7)
    for _ in range(200):
        f = random_formula(rng, ("p", "q", "r"), depth=5)
        again = parse(print_formula(f))
        assert again == f and hash(again) == hash(f)


def structurally_equal(f, g) -> bool:
    """The reference for ``==`` on formulas: one node type and equal fields, all the way down."""
    if type(f) is not type(g):
        return False
    if isinstance(f, (Neg, Sqrt)):
        return structurally_equal(f.arg, g.arg)
    if isinstance(f, Bin):
        return f.op == g.op and structurally_equal(f.left, g.left) and structurally_equal(f.right, g.right)
    return f == g  # a leaf


def rebuilt(f):
    """A copy of ``f`` that shares no compound node with it."""
    if isinstance(f, (Neg, Sqrt)):
        return type(f)(rebuilt(f.arg))
    if isinstance(f, Bin):
        return Bin(f.op, rebuilt(f.left), rebuilt(f.right))
    return f


def changed_deep(rng, f):
    """``f`` with its deepest leaf on a random path swapped for another leaf."""
    if isinstance(f, (Neg, Sqrt)):
        return type(f)(changed_deep(rng, f.arg))
    if isinstance(f, Bin):
        if rng.random() < 0.5:
            return Bin(f.op, changed_deep(rng, f.left), f.right)
        return Bin(f.op, f.left, changed_deep(rng, f.right))
    return Atom("r") if f != Atom("r") else Atom("s")


def compound_nodes(f):
    if isinstance(f, (Neg, Sqrt)):
        yield f
        yield from compound_nodes(f.arg)
    elif isinstance(f, Bin):
        yield f
        yield from compound_nodes(f.left)
        yield from compound_nodes(f.right)


def test_compound_nodes_hash_and_compare_by_structure():
    rng = random.Random(12)
    trees = [random_formula(rng, ("p", "q"), depth=6) for _ in range(150)]
    for f in trees:
        for node in compound_nodes(f):
            if isinstance(node, Bin):
                assert hash(node) == hash((node.op, node.left, node.right))
            else:
                assert hash(node) == hash((type(node), node.arg))
    p = Atom("p")
    collided = Bin(ODOT, p, Atom("q"))
    Bin.__dict__["_hash"].__set__(collided, hash(Bin(ODOT, p, p)))
    pairs = [(Bin(ODOT, p, p), collided), (Bin(IMPLIES, p, p), (IMPLIES, p, p)), (Neg(p), (Neg, p)),
             (Neg(p), Sqrt(p)), (Neg(p), p), (Bin(OPLUS, p, p), p), (Sqrt(p), Const(SConstant(1, 1)))]
    for f in trees:
        pairs += [(f, f), (f, rebuilt(f)), (f, changed_deep(rng, f)), (f, rng.choice(trees)), (f, p)]
    equal = 0
    for f, g in pairs:
        same = structurally_equal(f, g)
        assert (f == g) is same and (g == f) is same, (f, g)
        assert (f != g) is (not same) and (g != f) is (not same), (f, g)
        equal += same
    assert 300 <= equal < len(pairs) - 300


def test_ast_nodes_are_immutable():
    f = parse("!(p . q)")
    for node, name, value in ((f, "arg", Atom("p")), (f.arg, "op", "*"), (f.arg.left, "name", "r"),
                              (Const(SConstant(1, 1)), "value", SConstant(0, 0))):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(node, name, value)
    with pytest.raises(ValueError, match="unknown binary connective"):
        Bin("=>", Atom("p"), Atom("q"))


def test_ast_repr_shows_only_the_fields():
    assert repr(parse("!p -> ?q")) == (
        "Bin(op='->', left=Neg(arg=Atom(name='p')), right=Sqrt(arg=Atom(name='q')))"
    )


def test_parse_shares_equal_subterms():
    f = parse("(p -> !q) . (p -> !q) + (p <-> !q)")
    (left, right), iff = (f.left.left, f.left.right), f.right
    assert left is right
    assert iff.left is left and iff.right.right is left.left and iff.right.left is left.right
    # p, q, !q, p -> !q, !q -> p, the product, the iff's conjunction and the sum
    assert len(node_ids(f)) == 8
    # one table for a whole theory file, a new one for each call
    members = parse_theory_text("p -> (q . r)\n(q . r) + p\n")
    assert members[0].right is members[1].left
    assert parse("q . r") is not members[0].right


def test_printing_shares_one_memo():
    memo = {}
    texts = [print_formula(parse(t), memo) for t in ("(p -> q) . r", "!(p -> q)", "p -> q -> r")]
    assert texts == ["(p -> q) . r", "!(p -> q)", "p -> q -> r"]
    assert texts == [print_formula(parse(t)) for t in texts]


def test_unpickled_formula_hashes_like_a_parsed_one(tmp_path):
    # Each process has its own string hashes, so a node loaded from a
    # pickle must work its hash out anew, not keep the one it was saved with.
    text = "!p -> ?(q . r) + half"
    path = tmp_path / "formula.pickle"
    path.write_bytes(pickle.dumps(parse(text)))
    load = (
        "import pickle, sys; from iqcl.syntax import parse; "
        "f = pickle.loads(open(sys.argv[1], 'rb').read()); "
        "assert f == parse(sys.argv[2]) and f in {parse(sys.argv[2])}"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed}
        result = subprocess.run([sys.executable, "-c", load, str(path), text], env=env,
                                capture_output=True, text=True)
        assert result.returncode == 0, result.stderr


def _deepest(monkeypatch, module, name, run):
    """The most nested calls of ``module.name`` below the first, while ``run()`` runs."""
    depth, deepest, inner = [0], [0], getattr(module, name)

    def counted(*args):
        depth[0] += 1
        deepest[0] = max(deepest[0], depth[0])
        try:
            return inner(*args)
        finally:
            depth[0] -= 1

    with monkeypatch.context() as patch:
        patch.setattr(module, name, counted)
        run()
    return deepest[0] - 1


def test_plain_frames_bounds_the_printer_and_the_parser(monkeypatch):
    # plain_frames, built up from the operands as a definitions file does,
    # is at least the recursion that print_formula and the parser spend,
    # measured on random formulas, and equal to one of them on each chain
    # of one connective.  It may count more where the two differ by shape,
    # as on !(!(...) -> p) -> p, which each spends two frames a level on.
    def frames(f):
        if isinstance(f, (Neg, Sqrt)):
            return plain_frames(f, frames(f.arg))
        return plain_frames(f, frames(f.left), frames(f.right)) if isinstance(f, Bin) else 0

    rng = random.Random(231)
    cases = [random_formula(rng, ("p", "q"), depth=rng.randint(0, 7)) for _ in range(1500)]
    chains = [parse("p" + " + p" * 30), parse("p + (" * 30 + "p" + ")" * 30), parse("!" * 30 + "p"),
              parse("(" * 30 + "p" + " -> p)" * 30)]
    for f in cases + chains + [parse("!(" * 30 + "p" + " -> p)" * 30)]:
        text = print_formula(f)
        printed = _deepest(monkeypatch, syntax, "_render", lambda: print_formula(f))
        parsed = _deepest(monkeypatch, syntax._Parser, "expr", lambda: parse(text))
        assert frames(f) >= max(printed, parsed), (text, frames(f), printed, parsed)
        if f in chains:
            assert frames(f) == max(printed, parsed), (text, frames(f), printed, parsed)
