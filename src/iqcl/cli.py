"""Command-line front end for parsing, evaluation, translation, relevance,
proof checking and the gate simulator.

Exit codes: 0 success, 1 semantic rejection (counterexample found, proof
rejected, oracle deviation), 2 usage or parse error.  Each command takes
only the options its handler reads; any other option is a usage error,
reported with that command's usage line.  ``sim`` reads ``--trials`` and
``--seed`` for gate ``prop34`` only, and rejects them for the others.

``--format machine`` applies to ``fmt``, ``eval``, ``taut``,
``relevance``, ``translate FORMULA``, ``proof check`` and ``sim``: they
emit deterministic ``key=value`` lines, byte-identical for identical
configuration and seed.  ``tq5`` and ``translate --theory`` print
theory-file lines instead, one formula per line, which is what
``relevance`` and ``proof check`` read back.
"""

from __future__ import annotations

import argparse
import random
import sys
from fractions import Fraction
from pathlib import Path

from . import calculus, qmix, semantics, translation
from .algebra import SConstant, fraction
# parse_theory_text is unused here but stays a module attribute, as the
# traced benchmark run (perfbench/tracing.py) wraps it by name.
from .syntax import ParseError, is_atom_name, parse, parse_theory_text, print_formula  # noqa: F401


def __getattr__(name: str):
    # nqubit_sim, and numpy with it, is imported on first use: only ``sim``
    # needs it.  It is still a module attribute, so callers can replace it.
    if name == "nqubit_sim":
        from . import nqubit_sim

        globals()[name] = nqubit_sim
        return nqubit_sim
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# prop34 trials per stack of density matrices: one call of each simulator
# function per batch, and memory bounded for any --trials.
PROP34_BATCH = 256

# The single gates and their operand counts.
_GATES = {"not": 1, "sqrt_not": 1, "and": 2, "iand": 2, "oplus": 2}


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _emit(fields: list[tuple[str, object]], fmt: str):
    if fmt == "machine":
        for key, value in fields:
            print(f"{key}={value}")
    else:
        for key, value in fields:
            print(f"{key}: {value}")


def _model_fields(model: semantics.ReducedModel | None) -> list[tuple[str, object]]:
    """Each atom's u and w lines, in atom order; none without a model."""
    pairs = {} if model is None else model.assignment
    return [(f"model.{name}.{key}", x) for name in sorted(pairs) for key, x in zip("uw", pairs[name])]


# The options that more than one command reads, each declared once.
_SHARED_OPTIONS = {
    "--format": {"choices": ("plain", "machine"), "default": "plain"},
    "--budget": {"type": int, "default": 100_000},
}


def _add_options(parser: argparse.ArgumentParser, *flags: str):
    for flag in flags:
        parser.add_argument(flag, **_SHARED_OPTIONS[flag])


class _CommandParser(argparse.ArgumentParser):
    """A command's parser: it reports arguments it does not take itself, so
    the error comes with the command's usage line, not the top-level one."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


class _Prop34Option(argparse.Action):
    """Stores the value and notes the flag: only ``sim prop34`` reads it."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.prop34_flags = (*namespace.prop34_flags, option_string)


def _cmd_fmt(args) -> int:
    _emit([("formula", print_formula(parse(args.formula)))], args.format)
    return 0


def _cmd_eval(args) -> int:
    f = parse(args.formula)
    model = semantics.parse_model_text(_read(args.model))
    try:
        u, w = semantics.eval_prob(model, f)
    except semantics.UnassignedAtomError as exc:
        raise ValueError(f"the model assigns no value to atom {exc.args[0]}") from None
    _emit([("value", u), ("root_value", w)], args.format)
    return 0


def _cmd_taut(args) -> int:
    f = parse(args.formula)
    result = semantics.check_tautology(f, budget=args.budget)
    _emit([("verdict", result.status)] + _model_fields(result.witness), args.format)
    return 0 if result.witness is None else 1


def _cmd_relevance(args) -> int:
    theory = semantics.Theory.from_text(_read(args.theory))
    f = parse(args.formula)
    if not Fraction(1, 2**52) <= args.grid <= 1:  # --grid steers nothing now; checked for the scripts passing it
        raise ValueError(f"grid must be in [2**-52, 1], got {semantics._six_digits(args.grid)}")
    options = semantics.RelevanceOptions(tol=args.tol, budget=args.budget)
    result = semantics.relevance_degree(theory, f, options)
    fields = [("value", result.value), ("status", result.status), ("evaluations", result.evaluations)]
    _emit(fields + _model_fields(result.witness), args.format)
    return 0


def _cmd_translate(args) -> int:
    if (args.formula is None) == (args.theory is None):
        raise ValueError("provide either a formula or --theory")
    if args.theory is not None:
        theory = semantics.Theory.from_text(_read(args.theory))
        for member in translation.translate_theory(theory):
            print(print_formula(member))
        return 0
    _emit([("formula", print_formula(translation.pmv_translate(parse(args.formula))))], args.format)
    return 0


def _parse_s(text: str) -> SConstant:
    return SConstant.from_fraction(fraction(text))


def _atom_name(name: str) -> str:
    """``name`` if it reads back as that atom, so ``tq5`` output parses."""
    if is_atom_name(name):
        return name
    raise ValueError(f"--atoms: {name!r} is not an atom name")


def _cmd_tq5(args) -> int:
    cfg = translation.Tq5Config(
        atoms=tuple(_atom_name(a) for a in args.atoms.split(",") if a),
        s_values=tuple(_parse_s(s) for s in args.s.split(",") if s)
        if args.s
        else (translation.DEFAULT_Q5_CONSTANT,),
        t5_formulas=tuple(parse(t) for t in args.t5),
        t5_s_values=tuple(_parse_s(s) for s in args.t5_s.split(",") if s)
        if args.t5_s
        else (translation.DEFAULT_T5_CONSTANT,),
    )
    for member in translation.generate_tq5(cfg):
        print(print_formula(member))
    return 0


def _cmd_proof(args) -> int:
    theory = semantics.Theory.from_text(_read(args.theory))
    proof = calculus.parse_proof(_read(args.proof))
    goal = parse(args.goal)
    try:
        calculus.check_proof(theory, proof, goal)
    except calculus.ProofError as exc:
        _emit([("verdict", "rejected"), ("reason", exc)], args.format)
        return 1
    _emit([("verdict", "ok"), ("steps", len(proof))], args.format)
    return 0


def _cmd_sim(args) -> int:
    nqubit_sim = sys.modules[__name__].nqubit_sim
    if args.gate == "prop34":
        if args.operands:
            raise ValueError("gate prop34 takes no operands")
        if args.trials < 1:
            raise ValueError(f"trials must be at least 1, got {args.trials}")
        import numpy as np  # loaded by nqubit_sim already

        rng = random.Random(args.seed)
        worst = 0.0
        for start in range(0, args.trials, PROP34_BATCH):
            count = min(PROP34_BATCH, args.trials - start)
            # Draw order tau_0, nu_0, tau_1, ...; stacked as (tau, nu).
            draws = [qmix.random_ball_coords(rng) for _ in range(2 * count)]
            coords = np.array(draws).reshape(count, 2, 3).swapaxes(0, 1)
            product = nqubit_sim.and_gate(*nqubit_sim.bloch_embed(coords))
            reduced = nqubit_sim.bloch_vectors(nqubit_sim.partial_trace(product, 1))
            tau, nu = coords
            direct = qmix.iand(qmix.BlochQmix(*tau.T), qmix.BlochQmix(*nu.T)).bloch
            # ndarray.max, unlike the builtin, keeps a NaN deviation.
            for got, want in zip(reduced.T, (direct.r1, direct.r2, direct.r3)):
                worst = float(abs(got - want).max(initial=worst))
        _emit([("trials", args.trials), ("max_deviation", repr(worst))], args.format)
        return 0 if worst < 1e-10 else 1

    if args.prop34_flags:
        flags = " or ".join(dict.fromkeys(args.prop34_flags))
        raise ValueError(f"gate {args.gate} takes no {flags}")
    operands = [qmix.parse_qmix(text) for text in args.operands]
    if args.gate not in _GATES:
        raise ValueError(f"unknown gate {args.gate!r}")
    arity = _GATES[args.gate]
    if len(operands) != arity:
        raise ValueError(f"gate {args.gate} takes {'one operand' if arity == 1 else 'two operands'}")
    blochs = [op.bloch if isinstance(op, qmix.DiagonalQmix) else op for op in operands]
    if args.gate in ("iand", "oplus"):
        result = (qmix.iand if args.gate == "iand" else qmix.luk_oplus)(*blochs)
        probability, bloch = qmix.prob(result), result.bloch
    elif args.gate == "and":
        probability, bloch = nqubit_sim.prob_n(nqubit_sim.and_gate(*map(nqubit_sim.bloch_embed, blochs))), None
    else:  # a unitary on one register
        gate = (nqubit_sim.not_j if args.gate == "not" else nqubit_sim.sqrt_not_j)(1, 1)
        out = gate @ nqubit_sim.bloch_embed(blochs[0]) @ gate.conj().T
        probability, bloch = nqubit_sim.prob_n(out), nqubit_sim.bloch_extract(out)
    fields = [("probability", repr(probability))]
    _emit(fields if bloch is None else [*fields, ("bloch", qmix.format_qmix(bloch))], args.format)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="iqcl")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)

    p_fmt = sub.add_parser("fmt", help="parse and reprint a formula")
    p_fmt.add_argument("formula")
    _add_options(p_fmt, "--format")
    p_fmt.set_defaults(run=_cmd_fmt)

    p_eval = sub.add_parser("eval", help="evaluate a formula under a model file")
    p_eval.add_argument("formula")
    p_eval.add_argument("--model", required=True)
    _add_options(p_eval, "--format")
    p_eval.set_defaults(run=_cmd_eval)

    p_taut = sub.add_parser("taut", help="search for a countermodel")
    p_taut.add_argument("formula")
    _add_options(p_taut, "--format", "--budget")
    p_taut.set_defaults(run=_cmd_taut)

    p_rel = sub.add_parser("relevance", help="relevance degree of a theory over a formula")
    p_rel.add_argument("theory")
    p_rel.add_argument("formula")
    p_rel.add_argument("--grid", type=fraction, default=Fraction(1, 32))
    p_rel.add_argument("--tol", type=float, default=1e-6)
    _add_options(p_rel, "--format", "--budget")
    p_rel.set_defaults(run=_cmd_relevance)

    p_tr = sub.add_parser("translate", help="PMV-translate a formula or theory")
    p_tr.add_argument("formula", nargs="?")
    p_tr.add_argument("--theory")
    _add_options(p_tr, "--format")
    p_tr.set_defaults(run=_cmd_translate)

    p_tq5 = sub.add_parser("tq5", help="emit a finite bridging theory")
    p_tq5.add_argument("--atoms", required=True)
    p_tq5.add_argument("--s", default="")
    p_tq5.add_argument("--t5", action="append", default=[])
    p_tq5.add_argument("--t5-s", dest="t5_s", default="")
    p_tq5.set_defaults(run=_cmd_tq5)

    p_proof = sub.add_parser("proof", help="proof utilities")
    proof_sub = p_proof.add_subparsers(dest="proof_command", required=True)
    p_check = proof_sub.add_parser("check")
    p_check.add_argument("theory")
    p_check.add_argument("proof")
    p_check.add_argument("goal")
    _add_options(p_check, "--format")
    p_check.set_defaults(run=_cmd_proof)

    p_sim = sub.add_parser("sim", help="dense-matrix gate simulator")
    p_sim.add_argument("gate", help=", ".join(["prop34", *_GATES]))
    p_sim.add_argument("operands", nargs="*")
    p_sim.add_argument("--trials", type=int, default=100, action=_Prop34Option)
    _add_options(p_sim, "--format")
    p_sim.add_argument("--seed", type=int, default=0, action=_Prop34Option)
    p_sim.set_defaults(run=_cmd_sim, prop34_flags=())

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.run(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except calculus.ProofError as exc:
        if exc.step is None:
            print(f"proof format error: {exc}", file=sys.stderr)
            return 2
        print(f"rejected: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
