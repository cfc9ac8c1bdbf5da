import random
from fractions import Fraction

import pytest

from iqcl.algebra import SConstant, mv_implies, mv_odot, pmv_product
from iqcl.calculus import (
    _EQUATIONS,
    _PLAIN_SCHEMATA,
    AXIOM_IDS,
    AxiomRef,
    MemberRef,
    MpRef,
    Proof,
    ProofBuilder,
    ProofError,
    ProofStep,
    check_proof,
    consistency_probe,
    deduction_transform,
    finite_support,
    format_proof,
    formula_power,
    match_axiom,
    parse_proof,
    proof_degree,
    self_implication_proof,
)
from iqcl.semantics import (
    ReducedModel,
    Theory,
    _rational_disk_pool,
    check_tautology,
    eval_prob,
    is_model_of,
    random_rational_model,
)
from iqcl.syntax import (
    BINARY_OPS,
    IMPLIES,
    Atom,
    Bin,
    Const,
    Formula,
    Neg,
    ParseError,
    Sqrt,
    parse,
    print_formula,
)
from util import built_proofs, node_ids, random_formula


def subst(f: Formula, mapping):
    if isinstance(f, Atom):
        return mapping.get(f.name, f)
    if isinstance(f, Const):
        return f
    if isinstance(f, Neg):
        return Neg(subst(f.arg, mapping))
    if isinstance(f, Sqrt):
        return Sqrt(subst(f.arg, mapping))
    return Bin(f.op, subst(f.left, mapping), subst(f.right, mapping))


_SCHEMA_TEMPLATES = {
    "W1": "a -> (b -> a)",
    "W2": "(a -> b) -> ((b -> c) -> (a -> c))",
    "W3": "(!a -> !b) -> (b -> a)",
    "W4": "((a -> b) -> b) -> ((b -> a) -> a)",
    "E1": "(a * b) <-> !(!a + !b)",
    "E2": "(a -> b) <-> !(a * !b)",
    "E3": "!a <-> (a -> bot)",
    "E4": "(a & b) <-> (a * (a -> b))",
    "E5": "(a | b) <-> ((a -> b) -> b)",
    "E6": "!bot <-> top",
    "P1": "(a . b) -> (b . a)",
    "P2": "(top . a) <-> a",
    "P3": "(a . b) -> b",
    "P4": "((a . b) . c) <-> (a . (b . c))",
    "P5": "(a . (b * !c)) <-> ((a . b) * !(a . c))",
    "Q1": "??a <-> !a",
    "Q2": "?!a <-> !?a",
}


def random_instance(rng, sid):
    mapping = {
        name: random_formula(rng, ("p", "q"), depth=2) for name in ("a", "b", "c")
    }
    if sid in _SCHEMA_TEMPLATES:
        return subst(parse(_SCHEMA_TEMPLATES[sid]), mapping)
    if sid in ("S1", "S2", "S3"):
        op, fn = {"S1": ("*", mv_odot), "S2": ("->", mv_implies), "S3": (".", pmv_product)}[sid]
        r = SConstant.from_fraction(Fraction(rng.randint(0, 16), 16))
        t = SConstant.from_fraction(Fraction(rng.randint(0, 16), 16))
        v = SConstant.from_fraction(fn(r.value, t.value))
        lhs = Bin(op, Const(r), Const(t))
        return Bin("*", Bin(IMPLIES, lhs, Const(v)), Bin(IMPLIES, Const(v), lhs))
    if sid == "Q3":
        op = rng.choice(("+", "*", "->", ".", "&", "|"))
        body = Sqrt(Bin(op, mapping["a"], mapping["b"]))
        half = parse("half")
        return Bin("*", Bin(IMPLIES, body, half), Bin(IMPLIES, half, body))
    if sid == "Q4":
        s = Const(SConstant.from_fraction(Fraction(rng.randint(0, 16), 16)))
        half = parse("half")
        return Bin("*", Bin(IMPLIES, Sqrt(s), half), Bin(IMPLIES, half, Sqrt(s)))
    if sid == "Q5":
        s = rng.choice(
            [SConstant(7, 4), SConstant(1, 1), SConstant(55, 7), SConstant(1, 0)]
        )
        x = mapping["a"]
        body = Bin("+", Bin(".", parse("1/4"), x), Bin(".", parse("1/4"), Sqrt(x)))
        return Bin(IMPLIES, body, Const(s))
    raise AssertionError(sid)


def test_match_axiom_spec_examples():
    assert [sid for sid, _ in match_axiom(parse("p -> (q -> p)"))] == ["W1"]
    assert [sid for sid, _ in match_axiom(parse("(1/4 . p) + (1/4 . ?p) -> 7/16"))] == ["Q5"]
    assert match_axiom(parse("(1/4 . p) + (1/4 . ?p) -> 3/8")) == []


def test_match_axiom_substitution_reported():
    matches = match_axiom(parse("p -> (q -> p)"))
    assert matches[0][1] == {"a": Atom("p"), "b": Atom("q")}


def test_every_schema_is_matched_and_tautological():
    rng = random.Random(400)
    for sid in AXIOM_IDS:
        for _ in range(6):
            inst = random_instance(rng, sid)
            assert sid in {m for m, _ in match_axiom(inst)}, (sid, print_formula(inst))
            report = check_tautology(inst, budget=200)
            assert report.is_tautology, (sid, print_formula(inst))


def test_non_axioms_do_not_match():
    for text in ("p", "p -> q", "p -> (q -> q)", "(p . q) -> (p . p)"):
        assert match_axiom(parse(text)) == []


def test_every_schema_is_stated_by_table_rows():
    rows = {sid for sid, *_ in _PLAIN_SCHEMATA} | {sid for sid, *_ in _EQUATIONS}
    assert rows == set(AXIOM_IDS)


def test_constant_metavariable_never_binds_a_compound():
    assert match_axiom(parse("(1/4 . p) + (1/4 . ?p) -> (top . 7/16)")) == []
    assert match_axiom(parse("?(p . q) -> half"), "Q4") == []
    assert match_axiom(parse("?3/4 -> half"), "Q4") == [("Q4", {"s": parse("3/4")})]


def test_s_row_side_condition_checks_the_value():
    r, t = parse("half"), parse("3/4")
    assert match_axiom(parse("half * 3/4 -> 1/4"), "S1") == [("S1", {"r": r, "t": t, "u": parse("1/4")})]
    assert match_axiom(parse("half * 3/4 -> 1/2"), "S1") == []
    assert match_axiom(parse("half * 3/4 -> 1/2")) == []


def test_q3_is_not_pair_exact():
    assert match_axiom(parse("?(p + q) -> half")) == [("Q3", {"a": parse("p"), "b": parse("q")})]
    assert match_axiom(parse("?(?(p + q)) -> ?half"), "Q3") == []


def test_check_proof_member_and_mp():
    alpha, beta = parse("p"), parse("q")
    T = Theory([alpha, parse("p -> q")])
    proof = Proof(
        (
            ProofStep(alpha, MemberRef()),
            ProofStep(parse("p -> q"), MemberRef()),
            ProofStep(beta, MpRef(1, 2)),
        )
    )
    check_proof(T, proof, beta)


def test_check_proof_mp_shape_mismatch():
    alpha, beta = parse("p"), parse("q")
    T = Theory([alpha, parse("p -> q")])
    proof = Proof(
        (
            ProofStep(alpha, MemberRef()),
            ProofStep(parse("p -> q"), MemberRef()),
            ProofStep(beta, MpRef(2, 1)),  # swapped
        )
    )
    with pytest.raises(ProofError) as err:
        check_proof(T, proof, beta)
    assert err.value.step == 3
    assert "mp shape" in err.value.reason


def test_check_proof_errors():
    T = Theory([parse("p")])
    with pytest.raises(ProofError) as e1:
        check_proof(T, Proof((ProofStep(parse("q"), MemberRef()),)))
    assert e1.value.step == 1
    with pytest.raises(ProofError):
        check_proof(T, Proof((ProofStep(parse("p -> q"), AxiomRef("W1")),)))
    with pytest.raises(ProofError):
        check_proof(T, Proof((ProofStep(parse("p"), AxiomRef("W9")),)))
    with pytest.raises(ProofError) as e2:
        check_proof(T, Proof((ProofStep(parse("p"), MpRef(1, 1)),)))
    assert "earlier" in e2.value.reason
    with pytest.raises(ProofError) as e3:
        check_proof(T, Proof((ProofStep(parse("p"), MemberRef()),)), goal=parse("q"))
    assert "goal" in e3.value.reason


def test_derivation_of_top():
    builder = ProofBuilder()
    builder.top_intro()
    proof = builder.proof()
    check_proof(Theory(), proof, parse("top"))


def test_fixture_files_check(tmp_path):
    import pathlib

    fixtures = pathlib.Path(__file__).parent / "fixtures"
    top = parse_proof((fixtures / "top.proof").read_text())
    check_proof(Theory(), top, parse("top"))

    theory = Theory.from_text((fixtures / "certificate.thy").read_text())
    cert = parse_proof((fixtures / "certificate.proof").read_text())
    report = proof_degree(theory, parse("p"), [cert])
    assert report.lower_bound == Fraction(3, 4)
    assert not report.defects


def test_self_implication_machine_checked():
    f = parse("p + ?q")
    proof = self_implication_proof(f)
    check_proof(Theory(), proof, Bin(IMPLIES, f, f))


def test_proof_serialisation_round_trip():
    builder = ProofBuilder()
    builder.top_intro()
    proof = builder.proof()
    text = format_proof(proof)
    again = parse_proof(text)
    assert again == proof
    check_proof(Theory(), again, parse("top"))


def test_parse_proof_errors():
    with pytest.raises(ProofError):
        parse_proof("1: p [axiom W1]\n3: q [hyp]\n")  # bad numbering
    with pytest.raises(ProofError):
        parse_proof("1: p\n")  # no justification
    with pytest.raises(ProofError):
        parse_proof("")


@pytest.mark.parametrize("justification", ["hyp x", "mp 1 y", "hyp \u0661", "mp 1_0 2", "mp 1 +2"])
def test_justification_numbers_are_ascii_digits(justification):
    with pytest.raises(ProofError) as err:
        parse_proof(f"1: p [hyp]\n2: p [{justification}]\n")
    assert err.value.step is None
    assert err.value.reason == f"line 2: bad justification {justification!r}"


def test_step_numbers_are_ascii_digits():
    with pytest.raises(ProofError) as err:
        parse_proof("\u0661: p [hyp]\n")
    assert err.value.reason == "line 1: not a proof step: '\u0661: p [hyp]'"


def test_parse_proof_formula_error_points_at_the_file():
    text = "1: p [hyp]\n# comment\n  3: p -> $ [hyp]\n"
    with pytest.raises(ParseError) as err:
        parse_proof(text.replace("3:", "2:"))
    assert str(err.value) == "line 3, column 11: unexpected character '$'"
    assert (err.value.line, err.value.column) == (3, 11)
    with pytest.raises(ParseError) as err:
        parse_proof("1: p [hyp]\n2: q [hyp]\n3: (p . q [mp 1 2]\n")
    assert (err.value.line, err.value.column) == (3, 10)


def test_lemma_library_checks():
    builder = ProofBuilder()
    p, q, r = Atom("p"), Atom("q"), Atom("r")
    conclusions = [
        builder.l2(p, q),
        builder.l3(p, Sqrt(q)),
        builder.l5(p, q, r),
        builder.l6(p, q, r),
        builder.pair_intro(p, q),
        builder.mul_mono(p, q, r),
        builder.contrap_thm(Sqrt(p), Neg(q)),
        builder.dne_elim(Bin("+", p, q)),
        builder.exchange_thm(p, q, r),
        builder.assertion(q, r),
        builder.bot_elim(r),
        builder.top_intro(),
    ]
    proof = builder.proof()
    check_proof(Theory(), proof)
    assert builder.formula_at(conclusions[0]) == parse("p * q -> p")
    assert builder.formula_at(conclusions[2]) == parse("(p -> (q -> r)) -> ((p * q) -> r)")
    assert builder.formula_at(conclusions[4]) == parse("p -> (q -> (p * q))")
    assert builder.formula_at(conclusions[5]) == parse("(p -> q) -> ((p * r) -> (q * r))")
    rng = random.Random(401)
    for _ in range(20):
        model = random_rational_model(("p", "q", "r"), rng)
        for step in proof.steps:
            assert eval_prob(model, step.formula)[0] == 1, print_formula(step.formula)


def test_deduction_spec_examples():
    p, q = Atom("p"), Atom("q")
    imp = parse("p -> q")
    # [alpha hyp, alpha->beta member, beta mp] => n=1, T |- alpha->beta
    T = Theory([imp])
    proof = Proof(
        (ProofStep(p, MemberRef()), ProofStep(imp, MemberRef()), ProofStep(q, MpRef(1, 2)))
    )
    n, out = deduction_transform(T, p, proof)
    assert n == 1 and out.conclusion == imp

    # [beta member] => n=1 via W1 and MP
    T2 = Theory([q])
    n2, out2 = deduction_transform(T2, p, Proof((ProofStep(q, MemberRef()),)))
    assert n2 == 1 and out2.conclusion == imp

    # [alpha hyp] with beta=alpha => n=1, alpha->alpha
    n3, out3 = deduction_transform(Theory(), p, Proof((ProofStep(p, MemberRef()),)))
    assert n3 == 1 and out3.conclusion == parse("p -> p")


def test_deduction_needs_power_two():
    p, q = Atom("p"), Atom("q")
    T = Theory([parse("p -> (p -> q)")])
    proof = Proof(
        (
            ProofStep(p, MemberRef()),
            ProofStep(parse("p -> (p -> q)"), MemberRef()),
            ProofStep(parse("p -> q"), MpRef(1, 2)),
            ProofStep(q, MpRef(1, 3)),
        )
    )
    n, out = deduction_transform(T, p, proof)
    assert n == 2
    assert out.conclusion == Bin(IMPLIES, formula_power(p, 2), q)
    # n = 1 would be unsound here: p -> q fails at u_p = 1/2
    report = check_tautology(parse("(p -> (p -> q)) -> (p -> q)"))
    assert not report.is_tautology


def random_small_proof(rng, theory, alpha):
    pool = list(theory.members) + [alpha]
    steps = []
    formulas = []

    def add(f, just):
        steps.append(ProofStep(f, just))
        formulas.append(f)

    add(alpha, MemberRef())
    for _ in range(rng.randint(0, 2)):
        add(rng.choice(pool), MemberRef())
    for _ in range(rng.randint(1, 5)):
        roll = rng.random()
        if roll < 0.35:
            x = rng.choice(formulas)
            y = rng.choice(pool)
            add(Bin(IMPLIES, x, Bin(IMPLIES, y, x)), AxiomRef("W1"))
            add(Bin(IMPLIES, y, x), MpRef(formulas.index(x) + 1, len(steps)))
        elif roll < 0.6:
            # route an existing formula through the hypothesis so both
            # modus-ponens premises can depend on it
            x = rng.choice(formulas)
            add(Bin(IMPLIES, x, Bin(IMPLIES, alpha, x)), AxiomRef("W1"))
            add(Bin(IMPLIES, alpha, x), MpRef(formulas.index(x) + 1, len(steps)))
            add(x, MpRef(1, len(steps)))
        elif roll < 0.75:
            sid = rng.choice(AXIOM_IDS)
            add(random_instance(rng, sid), AxiomRef(sid))
        else:
            done = False
            for j, fj in enumerate(formulas):
                if isinstance(fj, Bin) and fj.op == IMPLIES and not done:
                    for i, fi in enumerate(formulas):
                        if fi == fj.left:
                            add(fj.right, MpRef(i + 1, j + 1))
                            done = True
                            break
    return Proof(tuple(steps))


def test_deduction_transform_randomised():
    rng = random.Random(402)
    for trial in range(25):
        members = [random_formula(rng, ("p", "q"), depth=2) for _ in range(rng.randint(1, 2))]
        theory = Theory(members)
        alpha = random_formula(rng, ("p", "q"), depth=2)
        proof = random_small_proof(rng, theory, alpha)
        n, out = deduction_transform(theory, alpha, proof)
        # deduction_transform already re-checks the output against the goal
        assert n >= 1
        assert out.conclusion == Bin(
            IMPLIES, formula_power(alpha, n), proof.conclusion
        )


def test_transformed_proof_sound_step_by_step():
    p, q = Atom("p"), Atom("q")
    T = Theory([parse("p -> (p -> q)")])
    proof = Proof(
        (
            ProofStep(p, MemberRef()),
            ProofStep(parse("p -> (p -> q)"), MemberRef()),
            ProofStep(parse("p -> q"), MpRef(1, 2)),
            ProofStep(q, MpRef(1, 3)),
        )
    )
    n, out = deduction_transform(T, p, proof)
    assert n == 2
    check_proof(T, out, parse("p * p -> q"), semantic_models=10, seed=9)


def test_soundness_under_sampled_models():
    T = Theory([parse("p"), parse("p -> q")])
    proof = Proof(
        (
            ProofStep(parse("p"), MemberRef()),
            ProofStep(parse("p -> q"), MemberRef()),
            ProofStep(parse("q"), MpRef(1, 2)),
            ProofStep(parse("q -> (r -> q)"), AxiomRef("W1")),
            ProofStep(parse("r -> q"), MpRef(3, 4)),
        )
    )
    check_proof(T, proof, parse("r -> q"), semantic_models=20, seed=7)


def test_consistency_probe_examples():
    found = consistency_probe(Theory([parse("p")]))
    assert found.verdict == "model-found"
    assert is_model_of(found.model, Theory([parse("p")]))

    clash = consistency_probe(Theory([parse("p"), parse("!p")]))
    assert clash.verdict == "no-model-at-budget"

    const = consistency_probe(Theory([parse("3/8")]))
    assert const.verdict == "no-model-at-budget"


def test_consistency_probe_finds_a_sparse_model():
    # p = q = r = 0, s = 1 is one point of a 61**4 product; the members !p,
    # !q and !r narrow it to 61 candidates.
    sparse = Theory.from_text("p + q + r + s\n!p\n!q\n!r")
    found = consistency_probe(sparse)
    assert found.verdict == "model-found"
    assert is_model_of(found.model, sparse, Fraction(0))


def test_consistency_probe_honours_budget():
    # Candidate 0 puts p at pool point (1, 1/2), where !p is 0; candidate 1
    # puts it at (0, 1/2), the first model.
    T = Theory([parse("!p")])
    assert consistency_probe(T, budget=1).verdict == "no-model-at-budget"
    found = consistency_probe(T, budget=2)
    assert found.verdict == "model-found"
    assert found.model == ReducedModel({"p": _rational_disk_pool()[1]})
    with pytest.raises(ValueError):
        consistency_probe(T, budget=0)


def test_proof_degree_examples():
    T = Theory([parse("3/4 -> p")])
    cert = Proof((ProofStep(parse("3/4 -> p"), MemberRef()),))
    report = proof_degree(T, parse("p"), [cert])
    assert report.lower_bound == Fraction(3, 4)
    assert abs(float(report.numeric.value) - 0.75) < 1e-3
    assert report.defects == []

    empty = proof_degree(T, parse("p"), [])
    assert empty.lower_bound == 0

    # a bogus certificate claiming 7/8 must be rejected as not checkable,
    # while a checkable one exceeding the numeric value raises a defect flag
    with pytest.raises(ProofError):
        bogus = Proof((ProofStep(parse("7/8 -> p"), MemberRef()),))
        proof_degree(T, parse("p"), [bogus])


def test_proof_degree_defect_flag():
    # theory proves 7/8 -> p outright, but a crippled search budget makes
    # the numeric value overshoot; the report must flag the contradiction
    from iqcl.semantics import RelevanceOptions

    T = Theory([parse("7/8 -> p"), parse("3/4 -> p")])
    cert = Proof((ProofStep(parse("7/8 -> p"), MemberRef()),))
    report = proof_degree(
        T, parse("p"), [cert], RelevanceOptions(budget=3, grid=Fraction(1, 2))
    )
    if float(report.numeric.value) < 7 / 8 - 1e-6:
        assert report.defects
    else:
        assert report.lower_bound == Fraction(7, 8)


def test_finite_support():
    members = [parse(f"p{i}") for i in range(1, 10)]
    T = Theory(members)
    proof = Proof(
        (
            ProofStep(parse("p1"), MemberRef()),
            ProofStep(parse("p3"), MemberRef()),
            ProofStep(parse("p3 -> (p5 -> p3)"), AxiomRef("W1")),
            ProofStep(parse("p5 -> p3"), MpRef(2, 3)),
        )
    )
    support = finite_support(T, proof)
    assert support.members == (parse("p1"), parse("p3"))
    check_proof(support, proof, parse("p5 -> p3"))

    axiom_only = Proof((ProofStep(parse("p1 -> (p2 -> p1)"), AxiomRef("W1")),))
    assert finite_support(T, axiom_only).members == ()


def mutate(rng, f: Formula) -> Formula:
    """``f`` with one subterm changed: a connective, a root for a negation
    or the other way round, or a small random formula."""
    if isinstance(f, Bin) and rng.random() < 0.7:
        if rng.random() < 0.5:
            return Bin(f.op, mutate(rng, f.left), f.right)
        return Bin(f.op, f.left, mutate(rng, f.right))
    if isinstance(f, (Neg, Sqrt)) and rng.random() < 0.7:
        return type(f)(mutate(rng, f.arg))
    if rng.random() < 0.5:
        if isinstance(f, Bin):
            return Bin(rng.choice([op for op in BINARY_OPS if op != f.op]), f.left, f.right)
        if isinstance(f, (Neg, Sqrt)):
            return (Sqrt if isinstance(f, Neg) else Neg)(f.arg)
    return random_formula(rng, ("p", "q"), depth=1)


def test_claimed_schema_match_is_the_full_match_filtered(workloads):
    rng = random.Random(410)
    formulas = [
        step.formula
        for _, proof in built_proofs(workloads)
        for step in proof.steps
        if isinstance(step.justification, AxiomRef)
    ]
    formulas += [random_instance(rng, sid) for sid in AXIOM_IDS for _ in range(8)]
    formulas += [random_formula(rng, ("p", "q"), depth=4) for _ in range(200)]
    formulas = list(dict.fromkeys(formulas))
    formulas += [mutate(rng, f) for f in formulas for _ in range(2)]
    claimed = 0
    for f in dict.fromkeys(formulas):
        full = match_axiom(f)
        for sid in AXIOM_IDS:
            only = match_axiom(f, sid)
            assert only == [m for m in full if m[0] == sid], (sid, print_formula(f))
            claimed += bool(only)
    assert claimed > 900  # 976 schema matches among 2 928 distinct formulas


def test_wrong_schema_label_is_rejected(workloads):
    rng = random.Random(411)
    theory, proof = next(built_proofs(workloads))
    for n, step in enumerate(proof.steps, start=1):
        if not isinstance(step.justification, AxiomRef):
            continue
        matched = {sid for sid, _ in match_axiom(step.formula)}
        wrong = rng.choice([sid for sid in AXIOM_IDS if sid not in matched])
        steps = list(proof.steps)
        steps[n - 1] = ProofStep(step.formula, AxiomRef(wrong))
        with pytest.raises(ProofError) as err:
            check_proof(theory, Proof(tuple(steps)))
        assert err.value.step == n
        assert err.value.reason == f"{print_formula(step.formula)} is not an instance of {wrong}"


def test_parse_proof_shares_nodes_across_lines(workloads):
    theory, built = list(built_proofs(workloads))[-1]
    assert len(built) == 1097
    parsed = parse_proof(format_proof(built))
    assert parsed == built
    assert len(node_ids(*(step.formula for step in parsed.steps))) <= 2000
    check_proof(theory, parsed, built.conclusion)


@pytest.mark.parametrize("index", [1, 7, 0, -2])
def test_hyp_index_must_name_the_member(index):
    theory = Theory.from_text("p\nq\n")
    with pytest.raises(ProofError) as err:
        check_proof(theory, parse_proof(f"1: q [hyp {index}]\n"))
    assert err.value.step == 1
    assert err.value.reason == f"q is not member {index} of the theory"


def test_hyp_index_counts_members_without_duplicates():
    theory = Theory.from_text("p\np\nq\n")
    check_proof(theory, parse_proof("1: q [hyp 2]\n2: p [hyp 1]\n3: q [hyp]\n"))
    with pytest.raises(ProofError) as err:
        check_proof(theory, parse_proof("1: q [hyp 3]\n"))
    assert err.value.reason == "q is not member 3 of the theory"
