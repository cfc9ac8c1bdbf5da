"""Byte-identity gate for the gate simulator's machine output.

``tests/fixtures/sim_machine.txt`` records the ``sim --format machine``
output and exit code of ``prop34`` at trial counts on both sides of the
simulator's batch size, each at three seeds, and of every single gate on
fixed operands.  Regenerate it, on purpose only, with

    PYTHONPATH=src python3 tests/test_sim_output.py
"""

import contextlib
import io
import sys
from pathlib import Path

from iqcl.cli import main

ROOT = Path(__file__).resolve().parents[1]
SIM_FIXTURE = ROOT / "tests" / "fixtures" / "sim_machine.txt"

PROP34_TRIALS = (1, 25, 200, 255, 256, 257, 600)
PROP34_SEEDS = (0, 1, 903)
POINTS = ("rho(0)", "rho(1)", "rho(0.3)", "(0, 0, 1)", "(0.6, -0.48, 0.64)", "(-0.1, 0.25, -0.5)")
GATE_OPERANDS = {
    "not": [(p,) for p in POINTS],
    "sqrt_not": [(p,) for p in POINTS],
    **{gate: [(a, b) for a in POINTS[1::2] for b in POINTS[::2]] for gate in ("and", "iand", "oplus")},
}


def sim_invocations() -> list[list[str]]:
    argvs = [
        ["sim", "prop34", "--trials", str(trials), "--seed", str(seed)]
        for trials in PROP34_TRIALS
        for seed in PROP34_SEEDS
    ]
    for gate, operand_lists in GATE_OPERANDS.items():
        argvs.extend(["sim", gate, *operands] for operands in operand_lists)
    return argvs


def sim_output_text() -> str:
    chunks = []
    for argv in sim_invocations():
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = main([*argv, "--format", "machine"])
        chunks.append(f"# {' '.join(argv)}: exit {code}\n{out.getvalue()}")
    return "".join(chunks)


def test_sim_output_matches_fixture():
    assert sim_output_text().encode() == SIM_FIXTURE.read_bytes()


if __name__ == "__main__":
    SIM_FIXTURE.write_bytes(sim_output_text().encode())
