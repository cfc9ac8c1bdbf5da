"""Byte-identity gate for the proof tooling.

``tests/fixtures/proof_roundtrip.txt`` records, for the benchmark's proof
workload with the hypothesis used 1-4 times, the ``format_proof`` text of
the proof that ``deduction_transform`` builds and the ``proof check
--format machine`` output and exit code for that proof and for its
corrupted copy.  Regenerate it, on purpose only, with

    PYTHONPATH=src python3 tests/test_proof_output.py
"""

import contextlib
import io
import sys
import tempfile
from pathlib import Path

from iqcl import calculus
from iqcl.cli import main
from iqcl.syntax import IMPLIES, Atom, Bin

ROOT = Path(__file__).resolve().parents[1]
PROOF_FIXTURE = ROOT / "tests" / "fixtures" / "proof_roundtrip.txt"


def proof_output_text(workloads, directory: Path) -> str:
    alpha, beta = Atom("p"), Atom("q")
    chunks = []
    for uses in workloads.HYPOTHESIS_USES:
        theory, proof = workloads._input_proof(alpha, beta, uses)
        n, built = calculus.deduction_transform(theory, alpha, proof)
        text = calculus.format_proof(built)
        chunks.append(f"# format_proof, hypothesis used {uses} times\n{text}")
        theory_file = directory / f"uses{uses}.thy"
        theory_file.write_text(workloads.text(theory.members[0]) + "\n")
        valid = directory / f"uses{uses}.proof"
        valid.write_text(text)
        corrupted = directory / f"uses{uses}.bad.proof"
        workloads._corrupt(str(valid), str(corrupted))
        goal = workloads.text(Bin(IMPLIES, calculus.formula_power(alpha, n), beta))
        for name, path in (("valid", valid), ("corrupted", corrupted)):
            with contextlib.redirect_stdout(io.StringIO()) as out:
                code = main(["proof", "check", str(theory_file), str(path), goal, "--format", "machine"])
            chunks.append(f"# proof check of the {name} proof, hypothesis used {uses} times: exit {code}\n"
                          f"{out.getvalue()}")
    return "".join(chunks)


def test_proof_output_matches_fixture(workloads, tmp_path):
    assert proof_output_text(workloads, tmp_path).encode() == PROOF_FIXTURE.read_bytes()


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    with tempfile.TemporaryDirectory() as tmp:
        PROOF_FIXTURE.write_bytes(proof_output_text(workloads, Path(tmp)).encode())
