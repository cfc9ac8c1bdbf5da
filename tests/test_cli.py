import argparse
import contextlib
import io
import json
import math
import os
import random
import re
import shlex
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest

from iqcl.cli import build_parser, main

ROOT = Path(__file__).resolve().parents[1]
RELEVANCE_FIXTURE = ROOT / "tests" / "fixtures" / "relevance_machine.txt"


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_fmt(capsys):
    code, out, _ = run_cli(["fmt", "p1<->p2", "--format", "machine"], capsys)
    assert code == 0
    assert out == "formula=(p1 -> p2) * (p2 -> p1)\n"


def test_fmt_parse_error_exit_2(capsys):
    code, _, err = run_cli(["fmt", "p + "], capsys)
    assert code == 2
    assert "column" in err


def test_fmt_deep_nesting_exit_2(capsys):
    code, _, err = run_cli(["fmt", "(" * 5000 + "p" + ")" * 5000], capsys)
    assert code == 2
    assert "column" in err and "nested too deeply" in err


def test_eval(tmp_path, capsys):
    model = tmp_path / "m.model"
    model.write_text("p 1 1/2\n")
    code, out, _ = run_cli(
        ["eval", "?p", "--model", str(model), "--format", "machine"], capsys
    )
    assert code == 0
    assert out == "value=1/2\nroot_value=0\n"


def test_eval_atom_missing_from_model_exit_2(tmp_path, capsys):
    model = tmp_path / "m.model"
    model.write_text("p 1 1/2\n")
    code, out, err = run_cli(["eval", "p & q", "--model", str(model)], capsys)
    assert code == 2
    assert out == ""
    assert err == "error: the model assigns no value to atom q\n"


def test_eval_model_zero_denominator_exit_2(tmp_path, capsys):
    model = tmp_path / "m.model"
    model.write_text("p 1/0 1/2\n")
    code, out, err = run_cli(["eval", "p", "--model", str(model)], capsys)
    assert code == 2
    assert out == ""
    assert "zero denominator" in err


@pytest.mark.parametrize(
    "text, message",
    [
        ("p 1/2 1/2\np 1 1/2\n", "model line 2: atom p is assigned twice"),
        ("# p then q\np 1 1/2\n\nq 0 1/2\nq 0 1/2  # again\n", "model line 5: atom q is assigned twice"),
        ("top 1 1/2\n", "model line 1: 'top' is not an atom name"),
        ("p 1 1/2\nhalf 1/2 1/2\n", "model line 2: 'half' is not an atom name"),
        ("p 1 1/2\n(q) 1 1/2\n", "model line 2: '(q)' is not an atom name"),
        ("p nan 1/2\n", "model line 1: Invalid literal for Fraction: 'nan'"),
        ("p 1 1/2\nq 1/2 1/0\n", "model line 2: zero denominator: 1/0"),
        ("q 0 1/2\np 1 1\n", "model line 2: atom p: pair (1, 1) violates the disk constraint"),
        ("p 1 1/2\nq 3/2 1/2\n", "model line 2: atom q: pair (3/2, 1/2) outside the unit square"),
        # Long coordinates are shown to 6 significant digits, not in full.
        ("p 1e-400 0\n", "model line 1: atom p: pair (1e-400, 0) violates the disk constraint"),
        ("p 1e-5000 0\n", "model line 1: atom p: pair (1e-5000, 0) violates the disk constraint"),
        ("p 1e5000 0\n", "model line 1: atom p: pair (1.00000e+5000, 0) outside the unit square"),
    ],
)
def test_eval_malformed_model_line_exit_2(tmp_path, capsys, text, message):
    model = tmp_path / "m.model"
    model.write_text(text)
    code, out, err = run_cli(["eval", "p", "--model", str(model)], capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_taut_exit_codes(capsys):
    code, out, _ = run_cli(["taut", "p -> (q -> p)", "--format", "machine"], capsys)
    assert code == 0
    assert "verdict=tautology-no-counterexample" in out
    code2, out2, _ = run_cli(["taut", "p", "--format", "machine"], capsys)
    assert code2 == 1
    assert "verdict=counterexample" in out2
    assert "model.p.u=" in out2


def test_taut_budget_below_one_exit_2(capsys):
    for budget in ("0", "-3"):
        code, out, err = run_cli(["taut", "p -> q", "--budget", budget, "--format", "machine"], capsys)
        assert code == 2
        assert out == ""
        assert "budget" in err


def test_relevance(tmp_path, capsys):
    theory = tmp_path / "t.thy"
    theory.write_text("p\n")
    code, out, _ = run_cli(
        ["relevance", str(theory), "?p", "--format", "machine"], capsys
    )
    assert code == 0
    fields = dict(line.split("=", 1) for line in out.strip().splitlines())
    assert fields["status"] == "feasible"
    assert Fraction(fields["value"]) == Fraction(1, 2)


def test_relevance_machine_output_deterministic(tmp_path, capsys):
    theory = tmp_path / "t.thy"
    theory.write_text("3/4 -> p\n")
    args = ["relevance", str(theory), "p", "--format", "machine"]
    _, first, _ = run_cli(args, capsys)
    _, second, _ = run_cli(args, capsys)
    assert first == second


@pytest.mark.parametrize(
    "option, message",
    [
        (["--budget", "0"], "budget"),
        (["--budget", "-3"], "budget"),
        (["--grid", "0"], "grid"),
        (["--grid=-1/2"], "grid"),
        (["--grid=3"], "grid"),
        (["--tol", "-1"], "tol"),
        (["--tol", "0"], "tol"),
        (["--tol", "inf"], "tol"),
        (["--grid=1/0"], "1/0"),
        (["--grid", "1e-400"], "error: grid must be in [2**-52, 1], got 1e-400\n"),
        (["--grid", "1e-5000"], "error: grid must be in [2**-52, 1], got 1e-5000\n"),
    ],
)
def test_relevance_bad_option_exit_2(tmp_path, capsys, option, message):
    theory = tmp_path / "t.thy"
    theory.write_text("p\n")
    code, out, err = run_cli(["relevance", str(theory), "?p", *option, "--format", "machine"], capsys)
    assert code == 2
    assert out == ""
    # A message that ends its line is the whole of stderr.
    assert err == message if message.endswith("\n") else message in err


def relevance_machine_text(workloads, directory: Path) -> str:
    """``iqcl relevance --format machine`` on the benchmark's 14 closed-form
    rows, at grids 1/32 and 1/64, each run under a header line."""
    chunks = []
    for k, (theory, formula, _) in enumerate(workloads.relevance_rows(random.Random(5))):
        path = directory / f"row{k}.thy"
        path.write_text("".join(line + "\n" for line in theory))
        for grid in ("1/32", "1/64"):
            with contextlib.redirect_stdout(io.StringIO()) as out:
                code = main(["relevance", str(path), formula, "--grid", grid, "--format", "machine"])
            chunks.append(f"# {{{', '.join(theory)}}} |- {formula} at grid {grid}: exit {code}\n{out.getvalue()}")
    return "".join(chunks)


def test_relevance_machine_output_matches_fixture(workloads, tmp_path):
    # The byte-identity promise of --format machine, for the relevance
    # search.  The fixture records the exact values and witnesses as they
    # are; regenerate it, on purpose only, with
    # PYTHONPATH=src python3 tests/test_cli.py
    assert relevance_machine_text(workloads, tmp_path).encode() == RELEVANCE_FIXTURE.read_bytes()


def test_translate(capsys):
    code, out, _ = run_cli(["translate", "?(p+q)", "--format", "machine"], capsys)
    assert code == 0
    assert out == "formula=half\n"


@pytest.mark.parametrize("formula", [[], ["?(p+q)"]])
def test_translate_needs_exactly_one_of_formula_and_theory(tmp_path, capsys, formula):
    theory = tmp_path / "t.thy"
    theory.write_text("p\n")
    argv = ["translate", *formula] + (["--theory", str(theory)] if formula else [])
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert err == "error: provide either a formula or --theory\n"
    assert run_cli(["translate", "--theory", str(theory)], capsys)[:2] == (0, "p\n")


def test_tq5_output(capsys):
    code, out, _ = run_cli(["tq5", "--atoms", "p", "--s", "7/16"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4
    assert lines[0] == "1/4 . p + 1/4 . ?p -> 7/16"


def test_tq5_zero_denominator_exit_2(capsys):
    code, out, err = run_cli(["tq5", "--atoms", "p", "--s", "1/0"], capsys)
    assert code == 2
    assert out == ""
    assert "zero denominator" in err


@pytest.mark.parametrize("atoms", ["p q", "top", "p,half", "p->q", "p,(q)"])
def test_tq5_atom_names_must_read_back_as_atoms(capsys, atoms):
    code, out, err = run_cli(["tq5", "--atoms", atoms], capsys)
    assert code == 2
    assert out == ""
    assert "not an atom name" in err


@pytest.mark.parametrize("justification", ["hyp x", "mp 1 y", "hyp \u0661", "mp 1_0 2"])
def test_proof_check_bad_justification_number_exit_2(tmp_path, capsys, justification):
    theory = tmp_path / "t.thy"
    theory.write_text("p\n")
    proof = tmp_path / "bad.proof"
    proof.write_text(f"1: p [hyp]\n2: p [{justification}]\n", encoding="utf-8")
    code, out, err = run_cli(["proof", "check", str(theory), str(proof), "p"], capsys)
    assert code == 2
    assert out == ""
    assert err == f"proof format error: proof: line 2: bad justification {justification!r}\n"


def test_proof_check(tmp_path, capsys):
    theory = tmp_path / "t.thy"
    theory.write_text("p\np -> q\n")
    proof = tmp_path / "good.proof"
    proof.write_text("1: p [hyp]\n2: p -> q [hyp]\n3: q [mp 1 2]\n")
    code, out, _ = run_cli(
        ["proof", "check", str(theory), str(proof), "q"], capsys
    )
    assert code == 0
    assert "ok" in out

    bad = tmp_path / "bad.proof"
    bad.write_text("1: p [hyp]\n2: p -> q [hyp]\n3: q [mp 2 1]\n")
    code2, _, err2 = run_cli(["proof", "check", str(theory), str(bad), "q"], capsys)
    assert code2 == 1

    garbled = tmp_path / "garbled.proof"
    garbled.write_text("1: p\n")
    code3, _, _ = run_cli(
        ["proof", "check", str(theory), str(garbled), "q"], capsys
    )
    assert code3 == 2


@pytest.mark.parametrize("index", ["1", "7", "0", "-2"])
def test_proof_check_rejects_a_wrong_hyp_index(tmp_path, capsys, index):
    theory = tmp_path / "t.thy"
    theory.write_text("p\nq\n")
    proof = tmp_path / "hyp.proof"
    proof.write_text(f"1: q [hyp {index}]\n")
    code, out, _ = run_cli(["proof", "check", str(theory), str(proof), "q", "--format", "machine"], capsys)
    assert code == 1
    assert out == f"verdict=rejected\nreason=step 1: q is not member {index} of the theory\n"
    proof.write_text("1: q [hyp 2]\n")
    assert run_cli(["proof", "check", str(theory), str(proof), "q"], capsys)[0] == 0


def test_proof_check_formula_error_gives_file_position(tmp_path, capsys):
    theory = tmp_path / "t.thy"
    theory.write_text("p\np -> q\n")
    proof = tmp_path / "typo.proof"
    proof.write_text("1: p [hyp]\n2: p -> q [hyp]\n3: q $ [mp 1 2]\n")
    code, out, err = run_cli(["proof", "check", str(theory), str(proof), "q"], capsys)
    assert code == 2
    assert out == ""
    assert "line 3, column 6: unexpected character '$'" in err


def test_sim_prop34(capsys):
    code, out, _ = run_cli(
        ["sim", "prop34", "--trials", "25", "--format", "machine"], capsys
    )
    assert code == 0
    fields = dict(line.split("=", 1) for line in out.strip().splitlines())
    assert float(fields["max_deviation"]) < 1e-10


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--trials", "0"], "trials must be at least 1, got 0"),
        (["--trials", "-4"], "trials must be at least 1, got -4"),
        (["rho(0.5)"], "gate prop34 takes no operands"),
    ],
)
def test_sim_prop34_bad_input_exit_2(capsys, argv, message):
    code, out, err = run_cli(["sim", "prop34", *argv, "--format", "machine"], capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_sim_gates(capsys):
    code, out, _ = run_cli(
        ["sim", "not", "(0, 0, 1)", "--format", "machine"], capsys
    )
    assert code == 0
    fields = dict(line.split("=", 1) for line in out.strip().splitlines())
    assert float(fields["probability"]) == 1.0

    code2, out2, _ = run_cli(
        ["sim", "sqrt_not", "rho(1)", "--format", "machine"], capsys
    )
    assert code2 == 0
    fields2 = dict(line.split("=", 1) for line in out2.strip().splitlines())
    assert abs(float(fields2["probability"]) - 0.5) < 1e-12

    code3, out3, _ = run_cli(
        ["sim", "iand", "rho(0.5)", "rho(0.5)", "--format", "machine"], capsys
    )
    assert code3 == 0
    assert "probability=0.25" in out3


SINGLE_GATE_ERRORS = [
    (["bogus"], "unknown gate 'bogus'"),
    (["bogus", "rho(0.1)"], "unknown gate 'bogus'"),
    *(([gate, *operands], f"gate {gate} takes one operand")
      for gate in ("not", "sqrt_not") for operands in ([], ["rho(0.1)", "rho(0.2)"])),
    *(([gate, *operands], f"gate {gate} takes two operands")
      for gate in ("and", "iand", "oplus") for operands in ([], ["rho(0.1)"], ["rho(0.1)"] * 3)),
    # The operands are parsed before the gate is looked up.
    (["not", "(1,1,1)"], "point (1.0, 1.0, 1.0) outside the Bloch ball"),
    (["bogus", "(1,1,1)"], "point (1.0, 1.0, 1.0) outside the Bloch ball"),
    (["not", "(nan, 0, 0)"], "point (nan, 0.0, 0.0) outside the Bloch ball"),
    # A weight within DiagonalQmix's tolerance whose Bloch point is not.
    (["not", "rho(1.000000000001)"], "mixing weight out of range: 1.000000000001"),
    (["iand", "rho(0.5)", "rho(-3e-13)"], "mixing weight out of range: -3e-13"),
]


@pytest.mark.parametrize("argv, message", SINGLE_GATE_ERRORS, ids=[" ".join(argv) for argv, _ in SINGLE_GATE_ERRORS])
def test_sim_single_gate_errors_exit_2(capsys, argv, message):
    assert run_cli(["sim", *argv], capsys) == (2, "", f"error: {message}\n")


def test_missing_file_exit_2(capsys):
    code, _, err = run_cli(["relevance", "/nonexistent.thy", "p"], capsys)
    assert code == 2


def test_usage_error_exit_2(capsys):
    assert main(["unknown-command"]) == 2


# Each command's options, by dest: those its handler reads, and no others.
OPTION_TABLE = {
    ("fmt",): {"format"},
    ("eval",): {"model", "format"},
    ("taut",): {"format", "budget"},
    ("relevance",): {"format", "grid", "tol", "budget"},
    ("translate",): {"theory", "format"},
    ("tq5",): {"atoms", "s", "t5", "t5_s"},
    ("proof", "check"): {"format"},
    ("sim",): {"trials", "format", "seed"},
}


def _subcommand(parser: argparse.ArgumentParser, *names: str) -> argparse.ArgumentParser:
    for name in names:
        (choices,) = [a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        parser = choices[name]
    return parser


def _options(parser: argparse.ArgumentParser) -> dict[str, object]:
    return {
        a.dest: a.default
        for a in parser._actions
        if a.option_strings and not isinstance(a, argparse._HelpAction)
    }


def test_each_command_declares_only_the_options_it_reads():
    parser = build_parser()
    assert {command: set(_options(_subcommand(parser, *command))) for command in OPTION_TABLE} == OPTION_TABLE
    assert sum(map(len, OPTION_TABLE.values())) == 19


def test_kept_options_keep_their_defaults():
    parser = build_parser()
    defaults = {
        "grid": Fraction(1, 32),
        "tol": 1e-6,
        "budget": 100_000,
        "seed": 0,
        "format": "plain",
        "trials": 100,
    }
    for command in OPTION_TABLE:
        for dest, default in _options(_subcommand(parser, *command)).items():
            if dest in defaults:
                assert default == defaults[dest] and type(default) is type(defaults[dest]), (command, dest)


DROPPED_OPTIONS = [
    ["fmt", "p", "--budget", "0"],
    ["eval", "p", "--model", "m.model", "--seed", "1"],
    ["taut", "p", "--grid", "1/2"],
    ["translate", "p", "--tol", "1e-3"],
    ["tq5", "--atoms", "p", "--format", "machine"],
    ["proof", "check", "t.thy", "p.proof", "p", "--budget", "10"],
    ["sim", "prop34", "--tol", "nan"],
    ["taut", "p -> p", "--seed", "3"],
    ["relevance", "t.thy", "p", "--seed", "1"],
]


@pytest.mark.parametrize("argv", DROPPED_OPTIONS)
def test_dropped_option_is_a_usage_error(capsys, argv):
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert "unrecognized arguments" in err


@pytest.mark.parametrize("argv", DROPPED_OPTIONS)
def test_usage_error_names_the_command(capsys, argv):
    command = " ".join(argv[:2] if argv[0] == "proof" else argv[:1])
    code, _, err = run_cli(argv, capsys)
    assert code == 2
    assert err.startswith(f"usage: iqcl {command} [-h]")
    assert f"\niqcl {command}: error: unrecognized arguments: " in err


@pytest.mark.parametrize(
    "gate, operands", [("not", ["(0, 0, 1)"]), ("sqrt_not", ["rho(1)"]), ("iand", ["rho(0.5)", "rho(0.5)"])]
)
@pytest.mark.parametrize(
    "flags, named",
    [
        (["--trials", "0"], "--trials"),
        (["--seed", "5"], "--seed"),
        (["--trials", "100", "--seed", "0"], "--trials or --seed"),  # the defaults, given
    ],
)
def test_sim_single_gate_rejects_prop34_flags(capsys, gate, operands, flags, named):
    code, out, err = run_cli(["sim", gate, *operands, *flags, "--format", "machine"], capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: gate {gate} takes no {named}\n"


@pytest.mark.parametrize("command", list(OPTION_TABLE), ids=" ".join)
def test_command_help_exits_0(capsys, command):
    # argparse formats help only on request, so a bad declaration shows here.
    code, out, _ = run_cli([*command, "--help"], capsys)
    assert code == 0
    assert out.startswith(f"usage: iqcl {' '.join(command)} ")


def test_readme_command_line_examples_parse():
    # The README may advertise only options that the commands take.
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Command line\n\n```sh\n(.*?)```", readme, re.DOTALL).group(1)
    lines = [line for line in block.splitlines() if line.startswith("iqcl ")]
    assert len(lines) >= len(OPTION_TABLE)
    parser = build_parser()
    for line in lines:
        try:
            parser.parse_args(shlex.split(line, comments=True)[1:])
        except SystemExit:
            pytest.fail(f"README example does not parse: {line}")


def test_console_script_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "iqcl.cli", "fmt", "top"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert result.returncode == 0
    assert result.stdout == "formula: top\n"


def test_cli_import_leaves_numpy_unloaded():
    # numpy is only for the gate simulator; the other commands, and the
    # semantics they call, skip its import.
    for module in ("iqcl.qmix", "iqcl.semantics", "iqcl.cli"):
        result = subprocess.run(
            [sys.executable, "-c", f"import sys, {module}; print('numpy' in sys.modules)"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == "False\n", module


def _sim_with(monkeypatch, layer="nqubit_sim", **replacements):
    """The real ``iqcl.<layer>`` module; iqcl.cli sees a copy with ``replacements``."""
    import importlib
    import types

    import iqcl.cli

    module = importlib.import_module(f"iqcl.{layer}")
    monkeypatch.setattr(iqcl.cli, layer, types.SimpleNamespace(**{**vars(module), **replacements}))
    return module


def test_sim_uses_the_module_attribute(monkeypatch, capsys):
    # The simulator and the qmix closed forms are looked up on iqcl.cli at
    # call time, so a caller that replaces either attribute (a tracer, a
    # test double) sees every call.
    calls = []

    def and_gate(*args):
        calls.append(args)
        return nqubit_sim.and_gate(*args)

    def iand(*args):
        calls.append(args)
        return qmix.iand(*args)

    nqubit_sim = _sim_with(monkeypatch, and_gate=and_gate)
    qmix = _sim_with(monkeypatch, "qmix", iand=iand)
    code, out, _ = run_cli(["sim", "and", "rho(0.5)", "rho(0.5)", "--format", "machine"], capsys)
    assert code == 0
    assert "probability=" in out
    assert len(calls) == 1
    code, out, _ = run_cli(["sim", "iand", "rho(0.5)", "rho(0.5)", "--format", "machine"], capsys)
    assert (code, out) == (0, "probability=0.25\nbloch=(0.0, 0.0, 0.5)\n")
    assert len(calls) == 2


@pytest.mark.parametrize("trials", [1, 256, 600])
def test_prop34_calls_each_simulator_function_once_per_batch(monkeypatch, capsys, trials):
    # The closed-form reference is one qmix.iand per batch too, and no state
    # object is built per trial.
    from iqcl.cli import PROP34_BATCH
    from iqcl import nqubit_sim, qmix

    names = ("bloch_embed", "and_gate", "partial_trace", "bloch_vectors")
    calls = {name: [] for name in (*names, "iand", "random_ball_point")}

    def counted(module, name):
        def call(*args):
            calls[name].append(args)
            return getattr(module, name)(*args)

        return call

    _sim_with(monkeypatch, **{name: counted(nqubit_sim, name) for name in names})
    _sim_with(monkeypatch, "qmix", **{name: counted(qmix, name) for name in ("iand", "random_ball_point")})
    code, out, _ = run_cli(["sim", "prop34", "--trials", str(trials), "--format", "machine"], capsys)
    assert code == 0
    batches = -(-trials // PROP34_BATCH)
    assert {name: len(c) for name, c in calls.items()} == {
        **dict.fromkeys((*names, "iand"), batches), "random_ball_point": 0}
    assert sum(len(args[0]) for args in calls["and_gate"]) == trials
    assert sum(len(args[0].r3) for args in calls["iand"]) == trials


@pytest.mark.parametrize("trials, nan_batch", [(5, 0), (600, 0), (600, 1), (600, 2)])
def test_sim_prop34_nan_deviation_fails(monkeypatch, capsys, trials, nan_batch):
    # A NaN from the simulator is a failed trial, wherever its batch falls.
    import numpy as np

    batch = []

    def and_gate(tau, nu):
        product = nqubit_sim.and_gate(tau, nu)
        batch.append(None)
        if len(batch) - 1 == nan_batch:
            product[-1] = np.nan
        return product

    nqubit_sim = _sim_with(monkeypatch, and_gate=and_gate)
    code, out, err = run_cli(["sim", "prop34", "--trials", str(trials), "--format", "machine"], capsys)
    assert (code, out, err) == (1, f"trials={trials}\nmax_deviation=nan\n", "")


def test_relevance_sweep_rejects_steps_not_a_power_of_two():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for steps in ("3", "0"):
        result = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "relevance_sweep.py"), "--steps", steps],
            capture_output=True,
            text=True,
            env=env,
        )
        assert result.returncode == 2, result.stderr
        assert result.stdout == ""
        assert "power of two" in result.stderr


def test_relevance_sweep_rejects_budget_below_one():
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "relevance_sweep.py"), "--budget", "0"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert result.returncode == 2, result.stderr
    assert result.stdout == ""
    assert "budget must be at least 1" in result.stderr


def test_relevance_sweep_runs():
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "relevance_sweep.py"), "--steps", "2"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert result.returncode == 0, result.stderr
    tables = [table.splitlines()[1:] for table in result.stdout.split("\n\n")]
    assert [len(rows) for rows in tables] == [3, 4], result.stdout
    assert all(row.split()[-1] == "feasible" for rows in tables for row in rows), result.stdout
    # Each value against its closed form, to the 9 decimals printed: s over
    # {s -> p}, and for ?p the disk's least w at the least u allowed.
    closed = [[0, 0.5, 1], [0, 0, (1 - math.sqrt(7) / 4) / 2, 0.5]]
    assert [[row.split()[-2] for row in rows] for rows in tables] == [[f"{v:.9f}" for v in vs] for vs in closed], result.stdout


def test_readme_library_use_runs():
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Library use", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})


def test_benchmark_selftest_passes(tmp_path):
    # The benchmark's answer checks run on this library; a change that
    # breaks them fails here, not only when the benchmark runs.  Like the
    # traced run below, it runs from a directory that holds only a link to
    # src/, so the record of its deliberately wrong run stays out of the
    # checkout.
    (tmp_path / "src").symlink_to(ROOT / "src")
    result = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert result.returncode == 0, result.stderr
    assert (tmp_path / ".perfbench-out" / "wrong-seed1-trace0.json").is_file()


@pytest.mark.parametrize("workload", ["taut-session", "relevance-closed-form", "proof-roundtrip", "oracle-sim"])
def test_benchmark_traced_run_passes(tmp_path, workload):
    # The traced run reads a span of each simulator and qmix function that
    # sim calls; one missing span fails it, as does a relevance answer that
    # a change to the search gets wrong, or a proof text that the run cannot
    # read back.  ``correct`` forgives a failure on
    # a row of KNOWN_WRONG_RELEVANCE, so every operation must pass as well.
    # It runs from a directory that holds only a link to src/, so its
    # records stay out of the checkout.
    (tmp_path / "src").symlink_to(ROOT / "src")
    result = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "1", "--seconds", "0", "--trace", "1"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert result.returncode == 0, result.stderr
    record = json.loads(result.stdout.splitlines()[-1])
    assert record["correct"] is True
    assert record["failed"] == 0
    names = ("qmix.iand_us", "nqubit_sim.and_gate_us", "nqubit_sim.partial_trace_us", "nqubit_sim.bloch_embed_us")
    assert set(names) <= set(record["metrics"]), sorted(record["metrics"])


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    with tempfile.TemporaryDirectory() as tmp:
        RELEVANCE_FIXTURE.write_bytes(relevance_machine_text(workloads, Path(tmp)).encode())
