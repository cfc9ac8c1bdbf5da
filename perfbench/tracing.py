"""The traced run: spans at every call from the CLI into a layer, and layer probes.

Spans are recorded from the benchmark's side only.  While an operation
runs, ``iqcl.cli`` (and the benchmark's own proof builder) see proxy
modules whose public functions are wrapped; calls inside the library are
not wrapped, so a span covers exactly one crossing from the CLI into a
layer.  Each span holds name, start, end, parent span and operation id;
spans stay in memory and are written out when the run ends.

Functions the CLI never calls directly (``eval_prob`` inside the tautology
sweep, ``match_axiom`` inside the proof checker, the algebra operations)
are timed by *layer probes*: short loops over the formulas the
workload's own operations contain.
"""

from __future__ import annotations

import io
import json
import os
import random
import statistics
import subprocess
import sys
import types
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter

import iqcl.cli
from iqcl import algebra, calculus, nqubit_sim, qmix, semantics, syntax, translation

import workloads as W

LAYER_MODULES = (semantics, calculus, nqubit_sim, qmix, translation)
CLI_SYNTAX_NAMES = ("parse", "parse_theory_text", "print_formula")
LAYERS = ("cli", "syntax", "semantics", "calculus", "translation", "qmix", "nqubit_sim")
POOL_POINTS = 61  # size of the exact rational pool check_tautology sweeps
PROBE_SECONDS = 0.08
# The CLI first, so its cumulative time is what a command pays; the modules
# after it are timed even if the CLI stops importing them eagerly.
IMPORTS = "import iqcl.cli, iqcl.semantics, iqcl.calculus, iqcl.nqubit_sim"


def _annotate(name: str, args, result, exc) -> dict:
    """Work counts read off a call's arguments and result."""
    if name == "semantics.check_tautology" and result is not None:
        return {"evaluations": result.evaluations, "atoms": len(syntax.atoms(args[0]))}
    if name == "semantics.relevance_degree" and result is not None:
        return {"evaluations": result.evaluations, "status": result.status}
    if name == "calculus.parse_proof" and result is not None:
        return {"steps": len(result)}
    if name == "calculus.check_proof":
        step = getattr(exc, "step", None)
        return {"steps": step if step is not None else len(args[1])}
    if name == "calculus.deduction_transform" and result is not None:
        return {"steps": len(result[1])}
    return {}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op_id, attrs]
        self.stack: list[int] = []
        self.active = False
        self.op_id = -1
        self._saved: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> int:
        self.spans.append([name, perf_counter(), 0.0, self.stack[-1] if self.stack else -1, self.op_id, {}])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def end(self, index: int):
        self.spans[index][2] = perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            index = tracer.begin(name)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as raised:
                exc = raised
                raise
            finally:
                tracer.end(index)
                tracer.spans[index][5] = _annotate(name, args, result, exc)

        return traced

    def _proxy(self, module):
        layer = module.__name__.rsplit(".", 1)[-1]
        proxy = types.SimpleNamespace()
        for attr, value in vars(module).items():
            if isinstance(value, types.FunctionType) and value.__module__ == module.__name__:
                setattr(proxy, attr, self.wrap(f"{layer}.{attr}", value))
            else:
                setattr(proxy, attr, value)
        return proxy

    def install(self):
        for target in (iqcl.cli, W):
            for module in LAYER_MODULES:
                attr = module.__name__.rsplit(".", 1)[-1]
                if getattr(target, attr, None) is module:
                    self._saved.append((target, attr, module))
                    setattr(target, attr, self._proxy(module))
        for attr in CLI_SYNTAX_NAMES:
            original = getattr(iqcl.cli, attr)
            self._saved.append((iqcl.cli, attr, original))
            setattr(iqcl.cli, attr, self.wrap(f"syntax.{attr}", original))

    def uninstall(self):
        for target, attr, original in reversed(self._saved):
            setattr(target, attr, original)
        self._saved.clear()

    def write(self, path: Path):
        with path.open("w", encoding="utf-8") as fh:
            for name, start, end, parent, op_id, attrs in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op_id, "attrs": attrs}) + "\n")


# ---------------------------------------------------------------------------
# Layer probes


def _per_unit(fn, items, units: int) -> float:
    """Seconds per unit of work for ``fn`` over ``items``, looped for a while."""
    rounds, start = 0, perf_counter()
    while True:
        for item in items:
            fn(item)
        rounds += 1
        elapsed = perf_counter() - start
        if elapsed >= PROBE_SECONDS:
            return elapsed / (rounds * units)


def cycle_texts(ops) -> list[str]:
    """Formula texts that the given operations hand to the parser."""
    texts: list[str] = []
    for op in ops:
        argv = op.argv or []
        if argv[:1] in (["taut"], ["fmt"], ["eval"], ["translate"]):
            texts.append(argv[1])
        elif argv[:1] == ["relevance"]:
            texts += [line for line in Path(argv[1]).read_text().splitlines() if line]
            texts.append(argv[2])
        elif argv[:2] == ["proof", "check"]:
            texts += [line for line in Path(argv[2]).read_text().splitlines() if line]
            for line in Path(argv[3]).read_text().splitlines():
                texts.append(line.split(":", 1)[1].rsplit("[", 1)[0].strip())
            texts.append(argv[4])
    return texts


def layer_probes(texts: list[str], axiom_formulas, seed: int) -> dict[str, float]:
    formulas = [syntax.parse(t) for t in texts]
    nodes = sum(W.size(f) for f in formulas)
    rng = random.Random(f"probe-inputs:{seed}")
    valued = [f for f in formulas[:400] if syntax.atoms(f)]
    value_nodes = sum(W.size(f) for f in valued)
    models = [W.random_model(rng, set().union(*(syntax.atoms(f) for f in valued))) for _ in range(4)]
    blochs = [W.bloch_of(m) for m in models]
    assignments = [{n: rng.choice(W.DISK_POINTS) for n in ("p", "q")} for _ in range(64)]
    pairs = [(rng.choice(W.DISK_POINTS)[0], rng.choice(W.DISK_POINTS)[0]) for _ in range(64)]
    ops = (algebra.mv_oplus, algebra.mv_odot, algebra.mv_implies,
           algebra.pmv_product, algebra.mv_meet, algebra.mv_join)
    axioms = list(axiom_formulas)[:300]
    return {
        "syntax.parse_us_per_node": 1e6 * _per_unit(syntax.parse, texts, nodes),
        "syntax.nodes_parsed": nodes,
        "syntax.print_us_per_node": 1e6 * _per_unit(syntax.print_formula, formulas, nodes),
        "semantics.eval_prob_us_per_node": 1e6 * _per_unit(
            lambda m: [semantics.eval_prob(m, f) for f in valued], models, value_nodes * len(models)),
        "semantics.model_build_us": 1e6 * _per_unit(semantics.ReducedModel, assignments, len(assignments)),
        "algebra.mv_op_ns": 1e9 * _per_unit(
            lambda xy: [op(*xy) for op in ops], pairs, len(pairs) * len(ops)),
        "qmix.gate_fold_us": 1e6 * _per_unit(
            lambda b: [semantics.eval_bloch(b, f) for f in valued], blochs, len(valued) * len(blochs)),
        "calculus.match_axiom_us": 1e6 * _per_unit(calculus.match_axiom, axioms, len(axioms)),
    }


# ---------------------------------------------------------------------------
# Import breakdown


def import_breakdown(root: Path, samples: int = 3) -> dict[str, tuple[float, float]]:
    """Median (self ms, cumulative ms) per module of a cold ``import iqcl.cli``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    runs: list[dict[str, tuple[float, float]]] = []
    for _ in range(samples):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", IMPORTS],
                              cwd=root, env=env, capture_output=True, text=True, timeout=120, check=True)
        table = {}
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "self [us]" in line:
                continue
            self_us, cumulative_us, module = line[len("import time:"):].split("|")
            table[module.strip()] = (int(self_us) / 1000.0, int(cumulative_us) / 1000.0)
        runs.append(table)
    return {
        module: (statistics.median(r[module][0] for r in runs), statistics.median(r[module][1] for r in runs))
        for module in runs[0]
        if all(module in r for r in runs)
    }


# ---------------------------------------------------------------------------
# Per-layer metrics


def _self_times(spans) -> list[float]:
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(s[2] - s[1]) - child[i] for i, s in enumerate(spans)]


def per_layer(tracer: Tracer, op_info: dict[int, tuple[str, bool]], cycles: int,
              checks: dict, probes: dict, imports: dict, overhead: tuple[float, float]) -> dict[str, float]:
    """Per-layer metrics from the spans.

    ``op_info`` maps an operation id to (class, is_probe).  Each
    metric uses the workload's own spans and falls back to the probe
    operations' spans when the workload never makes that call.  Counts
    and layer totals are per cycle of the workload (or per probe set).
    """
    spans = tracer.spans
    selfs = _self_times(spans)

    def pick(predicate):
        own = [i for i, s in enumerate(spans) if predicate(s) and not op_info[s[4]][1]]
        if own:
            return own, cycles
        return [i for i, s in enumerate(spans) if predicate(s) and op_info[s[4]][1]], 1

    def mean_ms(name, cls=None):
        idx, _ = pick(lambda s: s[0] == name and (cls is None or op_info[s[4]][0] == cls))
        return 1000.0 * statistics.fmean(spans[i][2] - spans[i][1] for i in idx)

    def total(name, key):
        idx, per = pick(lambda s: s[0] == name)
        return sum(spans[i][5].get(key, 0) for i in idx) / per, sum(spans[i][2] - spans[i][1] for i in idx), idx

    m: dict[str, float] = {}
    for module, key in (("iqcl.cli", "cli"), ("iqcl.nqubit_sim", "nqubit_sim"),
                        ("iqcl.semantics", "semantics"), ("iqcl.calculus", "calculus")):
        m[f"{key}.import_ms"] = imports[module][1]
    m["cli.dispatch_ms"] = probes.pop("cli.dispatch_ms")
    m.update(probes)
    for cls in ("exhaustive", "budget", "early_exit"):
        m[f"semantics.check_tautology_{cls}_ms"] = mean_ms("semantics.check_tautology", f"taut.{cls}")
    evals, secs, idx = total("semantics.check_tautology", "evaluations")
    covered = sum(POOL_POINTS ** spans[i][5].get("atoms", 0) for i in idx)
    m["semantics.taut_evaluations"] = evals
    m["semantics.taut_pool_coverage"] = sum(spans[i][5].get("evaluations", 0) for i in idx) / covered
    m["semantics.taut_evals_per_s"] = sum(spans[i][5].get("evaluations", 0) for i in idx) / secs
    m["translation.pmv_translate_us"] = 1000.0 * mean_ms("translation.pmv_translate")
    m["semantics.relevance_ms"] = mean_ms("semantics.relevance_degree")
    evals, secs, idx = total("semantics.relevance_degree", "evaluations")
    m["semantics.relevance_evaluations"] = evals
    m["semantics.relevance_evals_per_s"] = sum(spans[i][5].get("evaluations", 0) for i in idx) / secs
    per = cycles if any(not op_info[spans[i][4]][1] for i in idx) else 1
    for status in ("feasible", "infeasible", "tolerance-limited"):
        m[f"semantics.relevance_status.{status}"] = sum(
            spans[i][5].get("status") == status for i in idx) / per
    m["semantics.relevance_wrong"] = checks["relevance_wrong"]
    m["semantics.relevance_max_abs_err"] = checks["relevance_max_abs_err"]
    m["calculus.deduction_transform_ms"] = mean_ms("calculus.deduction_transform")
    m["calculus.steps_emitted"] = total("calculus.deduction_transform", "steps")[0]
    m["calculus.format_proof_ms"] = mean_ms("calculus.format_proof")
    for name in ("parse_proof", "check_proof"):
        steps, secs, _ = total(f"calculus.{name}", "steps")
        _, per = pick(lambda s, n=name: s[0] == f"calculus.{n}")
        m[f"calculus.{name}_us_per_step"] = 1e6 * secs / (steps * per)
    for name in ("nqubit_sim.and_gate", "nqubit_sim.partial_trace", "nqubit_sim.bloch_embed", "qmix.iand"):
        m[f"{name}_us"] = 1000.0 * mean_ms(name)
    for layer in LAYERS:
        idx, per = pick(lambda s, l=layer: s[0].split(".", 1)[0] == l)
        m[f"{layer}.self_ms"] = 1000.0 * sum(selfs[i] for i in idx) / per
        m[f"{layer}.calls"] = len(idx) / per
    m["trace.overhead_ms"], m["trace.overhead_share"] = overhead
    return m


def unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith(("_us", "_us_per_node", "_us_per_step")):
        return "us"
    for suffix, symbol in (("_ms", "ms"), ("_ns", "ns"), ("_share", "1"), ("_coverage", "1"), ("_err", "1")):
        if name.endswith(suffix):
            return symbol
    return "count"


def cli_dispatch_ms(cli, samples: int = 200) -> float:
    times = []
    for _ in range(samples):
        start = perf_counter()
        with redirect_stdout(io.StringIO()):
            cli.main(["fmt", "p", "--format", "machine"])
        times.append(perf_counter() - start)
    return 1000.0 * statistics.median(times)

