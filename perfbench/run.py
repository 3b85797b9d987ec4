"""Benchmark of the ``shlie3`` CLI: time to verdict on seeded spec files.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each operation is one CLI invocation in a
fresh interpreter (closed loop, one child at a time).  Inputs come from
``gen.py`` and the seed; every verdict and output is checked against the
answer known by construction.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics from untraced passes.
``--trace 1`` alternates untraced and traced passes (``launcher.py``) and
reports the per-layer metrics.  See README.md for the definitions.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import gen
import launcher

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
CLI = "import sys; from shlie3.cli import main; sys.exit(main())"
# A fixed computation in the style of the library (Fraction arithmetic, tuple
# keys, dicts) that uses none of its code.  It runs in a fresh interpreter
# before and after every measured operation.  The speed of a shared machine
# drifts by about 20 % over tens of seconds; dividing each operation's wall
# time by the reference runs around it cancels most of that drift.
REFERENCE = (
    "from fractions import Fraction as Q\n"
    "import itertools\n"
    "M = [[Q(i * 7 + j * 3 - 5, 1 + (i + j) % 4) for j in range(24)] for i in range(24)]\n"
    "P = [[sum((a * b for a, b in zip(r, c)), Q(0)) for c in zip(*M)] for r in M]\n"
    "d = {k: sum(k) for k in itertools.combinations(range(22), 4)}\n"
)
SETUP_SAMPLES_PER_PASS = 3
OP_TIMEOUT_S = 60.0
RUN_LIMIT_S = 150.0  # whole run, so that it ends well within 180 s


# -- running one child ------------------------------------------------


@dataclass
class Result:
    wall_s: float
    code: int
    rss_mb: float
    out: str
    err: str
    timed_out: bool
    t_spawn: float


def child_env(src: Path = SRC) -> dict:
    """The caller's environment without PYTHON* settings, so that every child
    writes and uses bytecode caches the same way wherever it runs."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(src)
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(argv: list[str], env: dict, deadline: float = math.inf) -> Result:
    """Run one child to completion; wall time, exit code and peak RSS via wait4.

    The child is killed after OP_TIMEOUT_S, or at ``deadline`` (perf_counter).
    """
    timeout = max(0.0, min(OP_TIMEOUT_S, deadline - time.perf_counter()))
    WORK.mkdir(parents=True, exist_ok=True)
    out_p, err_p = WORK / "stdout", WORK / "stderr"
    fired = threading.Event()
    with open(out_p, "wb") as fo, open(err_p, "wb") as fe:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=fo, stderr=fe, env=env, cwd=ROOT)

        def kill():
            fired.set()
            proc.kill()

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Result(wall, proc.returncode, usage.ru_maxrss / 1024.0,
                  out_p.read_text(encoding="utf-8", errors="replace"),
                  err_p.read_text(encoding="utf-8", errors="replace"),
                  fired.is_set(), t0)


# -- operations and their known answers -------------------------------


@dataclass
class Op:
    label: str
    command: str
    args: list[str]
    expect: Callable[[Result], str | None]  # None when the output is right


def _json(res: Result):
    try:
        return json.loads(res.out)
    except json.JSONDecodeError:
        return None


def gate(op: Op, res: Result) -> str | None:
    """Why the operation failed, or None."""
    if res.timed_out:
        return "timeout"
    if "Traceback" in res.err:
        return "traceback: " + res.err.strip().splitlines()[-1]
    try:
        return op.expect(res)
    except (KeyError, TypeError, ValueError, IndexError, AttributeError) as e:
        return f"unexpected output ({type(e).__name__}: {e})"


def _code(res: Result, want: int) -> str | None:
    return None if res.code == want else f"exit code {res.code}, expected {want}"


def expect_linf_check(orders: dict[int, bool]):
    want_code = 0 if all(orders.values()) else 1

    def check(res):
        bad = _code(res, want_code)
        if bad:
            return bad
        rep = _json(res)
        got = {c["name"]: (c["passed"], bool(c["violations"])) for c in rep["checks"]}
        want = {f"order-{n}": (ok, not ok) for n, ok in orders.items()}
        return None if got == want else f"verdicts {got}, expected {want}"
    return check


def expect_lie3_check(verdicts: dict[str, bool]):
    want_code = 0 if all(verdicts.values()) else 1

    def check(res):
        bad = _code(res, want_code)
        if bad:
            return bad
        rep = _json(res)
        got = {c["name"]: (c["passed"], bool(c["failures"])) for c in rep["checks"]}
        for name, ok in verdicts.items():
            if got.get(name) != (ok, not ok):
                return f"{name}: {got.get(name)}, expected passed={ok}"
        return None
    return check


def expect_maps(kind: str, dims, maps: dict):
    """Output is a spec whose maps equal ``maps`` as exact rationals."""
    want = {name: {k: v for k, v in m.items() if any(v)} for name, m in maps.items()}

    def check(res):
        bad = _code(res, 0)
        if bad:
            return bad
        obj = json.loads(res.out)
        if obj["kind"] != kind or obj["dims"] != list(dims):
            return f"kind/dims {obj['kind']} {obj['dims']}"
        got = gen.parse_maps(res.out)
        return None if got == want else "structure constants differ from the known ones"
    return check


def expect_bytes(text: str):
    def check(res):
        bad = _code(res, 0)
        if bad:
            return bad
        return None if res.out == text else "output differs from the original file"
    return check


def expect_coherence(n0: int, failing: set):
    """Quintuples of V0 indices: exactly ``failing`` fail, order 5 agrees."""
    keys = list(itertools.combinations_with_replacement(range(n0), 5))

    def check(res):
        bad = _code(res, 1 if failing else 0)
        if bad:
            return bad
        rep = _json(res)
        got = {c["name"]: c["passed"] for c in rep["checks"]}
        want = {f"quintuple {'.'.join(map(str, k))}": k not in failing for k in keys}
        if got != want:
            return "quintuple verdicts differ from the Chevalley-Eilenberg coboundary"
        if not rep["order5_agreement"]:
            return "coherence residuals disagree with order 5"
        return None
    return check


def expect_nerve(a: int, b: int, trunc: int):
    def check(res):
        bad = _code(res, 0)
        if bad:
            return bad
        rep = _json(res)
        if not rep["passed"]:
            return "normalization check failed"
        if rep["simplex_dims"] != [a + n * b for n in range(trunc + 1)]:
            return f"simplex dims {rep['simplex_dims']}"
        if rep["normalized_dims"] != [a, b] + [0] * (trunc - 1):
            return f"normalized dims {rep['normalized_dims']}"
        return None
    return check


EZ_CHECKS = ("shuffle-map-is-chain-map", "front-face-map-is-chain-map",
             "roundtrip-identity-on-tensor", "roundtrip-identity-on-homology")


def expect_ez(res):
    bad = _code(res, 0)
    if bad:
        return bad
    got = {c["name"]: c["passed"] for c in _json(res)["checks"]}
    return None if got == dict.fromkeys(EZ_CHECKS, True) else f"checks {got}"


def expect_obstruction(b: int):
    def check(res):
        bad = _code(res, 0)
        if bad:
            return bad
        rep = _json(res)
        if not all(c["passed"] for c in rep["checks"]):
            return f"checks {rep['checks']}"
        if rep["obstructed"] != (b > 0):
            return f"obstructed={rep['obstructed']} with dim V1 = {b}"
        if b > 0 and not (rep["kernel_dim"] > 0 and "witness_index" in rep):
            return "no witness or zero kernel with V1 > 0"
        if b == 0 and "witness_index" in rep:
            return "witness reported with V1 = 0"
        return None
    return check


# -- workloads --------------------------------------------------------


class Inputs:
    """Writes generated spec files under the work directory."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.dir = WORK / "inputs"
        self.dir.mkdir(parents=True, exist_ok=True)

    def structure(self, family, *args) -> dict:
        """A structure of ``family`` whose cost does not depend on the seed."""
        return gen.densest(lambda: family(self.rng, *args))

    def write(self, name: str, text: str) -> str:
        path = self.dir / name
        path.write_text(text, encoding="utf-8")
        return str(path.relative_to(ROOT))


def _linf_pair(inp: Inputs, name: str, s: dict):
    return (inp.write(f"{name}.linf.json", gen.render_linfinity(s, name)),
            inp.write(f"{name}.lie3.json", gen.render_lie3(s, name)))


def linf_verify(inp: Inputs) -> list[Op]:
    ops = []
    ok5 = dict.fromkeys(range(1, 6), True)
    for name, s, convert in (
            ("scaling-5", inp.structure(gen.two_term, 5, True), True),
            ("scaling-6", inp.structure(gen.two_term, 6, True), False),
            ("abelian-322", inp.structure(gen.abelian, (3, 2, 2)), True),
            ("abelian-422", inp.structure(gen.abelian, (4, 2, 2)), False),
            ("graded-lie-3", inp.structure(gen.graded_lie, 3, True), False)):
        path, _ = _linf_pair(inp, name, s)
        ops.append(Op(name, "check", ["check", path, "--n", "5", "--format", "json"],
                      expect_linf_check(ok5)))
        if convert:
            ops.append(Op(name, "convert", ["convert", path, "--to", "lie3"],
                          expect_maps("lie3", s["dims"], gen.lie3_maps(s))))
    path, _ = _linf_pair(inp, "nonclosed-5", inp.structure(gen.two_term, 5, False))
    ops.append(Op("nonclosed-5", "check", ["check", path, "--n", "5", "--format", "json"],
                  expect_linf_check({**ok5, 5: False})))
    path, _ = _linf_pair(inp, "nonlie-3", inp.structure(gen.graded_lie, 3, False))
    ops.append(Op("nonlie-3", "check", ["check", path, "--n", "5", "--format", "json"],
                  expect_linf_check({**ok5, 3: False})))
    return ops


def lie3_verify(inp: Inputs) -> list[Op]:
    ops = []
    s = inp.structure(gen.two_term, 3, True)
    linf, lie3 = _linf_pair(inp, "scaling-3", s)
    ops.append(Op("scaling-3", "convert",
                  ["convert", lie3, "--to", "linfinity", "--format", "json"],
                  expect_bytes((ROOT / linf).read_text(encoding="utf-8"))))
    s = inp.structure(gen.two_term, 5, False)
    _, lie3 = _linf_pair(inp, "nonclosed-mu-5", s)
    dc = gen.ce_coboundary({tuple(i for _, i in k): v for k, v in s["l2"].items()},
                           {tuple(i for _, i in k): v[0] for k, v in s["l4"].items()}, 5, 4)
    ops.append(Op("nonclosed-mu-5", "coherence", ["coherence", lie3, "--format", "json"],
                  expect_coherence(5, set(dc))))
    _, lie3 = _linf_pair(inp, "nonlie-3", inp.structure(gen.lie_algebra, 3, False))
    ops.append(Op("nonlie-3", "check", ["check", lie3, "--format", "json"],
                  expect_lie3_check({"bifunctor": True, "jacobiator": False})))
    _, lie3 = _linf_pair(inp, "abelian-322", inp.structure(gen.abelian, (3, 2, 2)))
    ops.append(Op("abelian-322", "coherence", ["coherence", lie3, "--format", "json"],
                  expect_coherence(3, set())))
    return ops


def simplicial(inp: Inputs) -> list[Op]:
    ops = []
    paths = {}
    for dims in ((3, 3), (1, 1), (2, 1), (2, 0)):
        name = f"chain-{dims[0]}{dims[1]}"
        paths[dims] = inp.write(f"{name}.json", gen.render_chain(gen.chain_complex(inp.rng, dims), name))
    for trunc in (3, 4):
        ops.append(Op(f"chain-33-t{trunc}", "nerve",
                      ["nerve", paths[(3, 3)], "--trunc", str(trunc), "--format", "json"],
                      expect_nerve(3, 3, trunc)))
    for dims in ((1, 1), (2, 1)):
        ops.append(Op(f"chain-{dims[0]}{dims[1]}", "ez-demo",
                      ["ez-demo", paths[dims], "--trunc", "2", "--format", "json"], expect_ez))
    for dims in ((1, 1), (2, 1), (2, 0)):
        ops.append(Op(f"chain-{dims[0]}{dims[1]}", "obstruction-demo",
                      ["obstruction-demo", paths[dims], "--format", "json"],
                      expect_obstruction(dims[1])))
    return ops


WORKLOADS = {"linf-verify": linf_verify, "lie3-verify": lie3_verify, "simplicial": simplicial}
COMMANDS = ("check", "convert", "coherence", "nerve", "ez-demo", "obstruction-demo")


# -- passes -----------------------------------------------------------


@dataclass
class Tally:
    attempted: int = 0
    failures: list = field(default_factory=list)

    def record(self, op: Op, res: Result) -> None:
        self.attempted += 1
        why = gate(op, res)
        if why is not None:
            self.failures.append(f"{op.command} {op.label}: {why}")


def cli_argv(op: Op) -> list[str]:
    return [sys.executable, "-c", CLI] + op.args


def trace_argv(op: Op, spans: Path, op_id: str) -> list[str]:
    return [sys.executable, str(HERE / "launcher.py"), str(spans), op_id, "--"] + op.args


def untraced_pass(ops: list[Op], env: dict, tally: Tally,
                  deadline: float) -> tuple[list[Result], list[float]]:
    """Operation results, and the reference times before, between and after them."""
    refs = [reference_time(env, deadline)]
    results = []
    for op in ops:
        results.append(spawn(cli_argv(op), env, deadline))
        refs.append(reference_time(env, deadline))
    for op, res in zip(ops, results):
        tally.record(op, res)
    return results, refs


def wall_ref(results: list[Result], refs: list[float]) -> float:
    """Sum of each operation's wall time over the mean of the references around it."""
    return sum(r.wall_s * 2 / (a + b) for r, a, b in zip(results, refs, refs[1:]))


def traced_pass(ops: list[Op], env: dict, tally: Tally, pass_no: int, deadline: float):
    out = []
    for k, op in enumerate(ops):
        spans = WORK / f"spans-{pass_no}-{k}.json"
        res = spawn(trace_argv(op, spans, f"{pass_no}.{k}"), env, deadline)
        tally.record(op, res)
        record = None
        if spans.exists():
            record = json.loads(spans.read_text(encoding="utf-8"))
            record["t_written"] = float(Path(f"{spans}.end").read_text(encoding="utf-8"))
        out.append((op, res, record))
    return out


def reference_time(env: dict, deadline: float) -> float:
    return spawn([sys.executable, "-c", REFERENCE], env, deadline).wall_s


def setup_time(env: dict, deadline: float = math.inf) -> float:
    """Wall time of a fresh interpreter importing the CLI: paid by every call."""
    return spawn([sys.executable, "-c", "import shlie3.cli"], env, deadline).wall_s


# -- per-layer aggregation --------------------------------------------

LAYER_SPANS = list(dict.fromkeys(name for _, _, name, _ in launcher.TARGETS if name))
LIE3_CHECKS = ("lie3.check_bifunctor", "lie3.check_jacobiator",
               "lie3.check_identiator", "lie3.check_coherence")


def op_profile(record: dict) -> dict:
    """calls / self_s / incl_s per span name for one traced operation."""
    names, spans = record["names"], record["spans"]
    net = [end - start - ov for _, start, end, _, ov in spans]
    self_t = list(net)
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            self_t[parent] -= net[i]
    prof: dict[str, dict] = {}
    for i, (nid, *_rest) in enumerate(spans):
        p = prof.setdefault(names[nid], {"calls": 0, "self_s": 0.0, "incl_s": 0.0})
        p["calls"] += 1
        p["self_s"] += self_t[i]
        if not _has_ancestor(spans, i, nid):
            p["incl_s"] += net[i]
    return prof


def _has_ancestor(spans, i, nid) -> bool:
    p = spans[i][3]
    while p >= 0:
        if spans[p][0] == nid:
            return True
        p = spans[p][3]
    return False


def layer_metrics(traced, untraced: list[Result]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (and its paired untraced pass)."""
    m: dict[str, float] = {}
    for name in LAYER_SPANS:
        m[f"{name}.calls"] = 0
        m[f"{name}.self_s"] = 0.0
    counters: dict[str, float] = {}
    ident_ops = ident_largest = 0
    ez_ops = 0
    ez_main = validate_in_ez = 0.0
    accounted = traced_wall = self_total = overhead = 0.0
    min_share = 1.0
    for op, res, record in traced:
        if record is None:  # the operation crashed; the gate counted it
            continue
        prof = op_profile(record)
        for name, p in prof.items():
            m[f"{name}.calls"] = m.get(f"{name}.calls", 0) + p["calls"]
            m[f"{name}.self_s"] = m.get(f"{name}.self_s", 0.0) + p["self_s"]
        for k, v in record["counters"].items():
            counters[k] = counters.get(k, 0) + v
        if "lie3.check_identiator" in prof:
            ident_ops += 1
            incl = {n: prof[n]["incl_s"] for n in LIE3_CHECKS if n in prof}
            ident_largest += max(incl, key=incl.get) == "lie3.check_identiator"
        if op.command == "ez-demo":
            ez_ops += 1
            ez_main += prof["cli"]["incl_s"]
            validate_in_ez += prof.get("simplicial.validate", {}).get("incl_s", 0.0)
        op_self = sum(p["self_s"] for p in prof.values())
        startup = record["t_start"] - res.t_spawn
        # interpreter start, import, wrapping, spans' self time, tracer, span output
        acc = (startup + record["import_s"] + record["install_s"] + op_self
               + record["overhead_s"] + record["t_written"] - record["t_main_end"])
        min_share = min(min_share, acc / res.wall_s)
        accounted += acc
        traced_wall += res.wall_s
        self_total += op_self
        overhead += record["overhead_s"]
    untraced_wall = sum(r.wall_s for r in untraced)

    def share(a, b):
        return a / b if b else 0.0

    c = counters.get
    tuples = sum(c(f"linfinity.order{n}.tuples", 0) for n in range(1, 6))
    for n in range(1, 6):
        m[f"linfinity.order{n}.tuples"] = c(f"linfinity.order{n}.tuples", 0)
    m["linfinity.feasible_share"] = share(c("linfinity.feasible_tuples", 0), tuples)
    m["graded.eval_basis.hit_share"] = share(c("graded.eval_basis.hits", 0),
                                             m["graded.eval_basis.calls"])
    m["graded.koszul_chi.calls"] = c("graded.koszul_chi.calls", 0)
    m["graded.as_matrix.calls"] = c("graded.as_matrix.calls", 0)
    m["linalg.matmul.madds"] = c("linalg.matmul.madds", 0)
    m["linalg.matmul.zero_share"] = share(c("linalg.matmul.zero_madds", 0), m["linalg.matmul.madds"])
    m["linalg.rref.entries"] = c("linalg.rref.entries", 0)
    m["linalg.solve.repeat_share"] = share(c("linalg.solve.repeats", 0), m["linalg.solve.calls"])
    m["lie3.check_identiator.largest_share"] = share(ident_largest, ident_ops)
    m["simplicial.validate.ez_demo_share"] = share(validate_in_ez, ez_main)
    m["simplicial.ez.per_ez_demo"] = share(m["simplicial.ez.calls"], ez_ops)
    m["simplicial.aw.per_ez_demo"] = share(m["simplicial.aw.calls"], ez_ops)
    m["trace.wall_s"] = traced_wall
    m["trace.untraced_wall_s"] = untraced_wall
    m["trace.overhead_share"] = share(traced_wall - untraced_wall, untraced_wall)
    m["trace.tracer_s"] = overhead
    m["trace.self_s_share"] = share(self_total, traced_wall)
    m["trace.accounted_share"] = share(accounted, traced_wall)
    m["trace.min_op_accounted_share"] = min_share
    for cmd in COMMANDS:
        m[f"cli.{cmd.replace('-', '_')}.wall_s"] = sum(
            r.wall_s for (op, _, _), r in zip(traced, untraced) if op.command == cmd)
    return m


# -- main -------------------------------------------------------------


def self_test(env: dict) -> list[str]:
    """The gate must count a wrong expected verdict and a crash as failures."""
    inp = Inputs(0)
    path, _ = _linf_pair(inp, "selftest", gen.two_term(inp.rng, 5, False))
    args = ["check", path, "--n", "5", "--format", "json"]
    wrong = Op("wrong-verdict", "check", args, expect_linf_check(dict.fromkeys(range(1, 6), True)))
    crash = Op("crash", "check", args, expect_linf_check({**dict.fromkeys(range(1, 6), True), 5: False}))
    tally = Tally()
    tally.record(wrong, spawn(cli_argv(wrong), env))
    # an interpreter that cannot import the package dies with a traceback
    tally.record(crash, spawn(cli_argv(crash), child_env(WORK / "no-such-dir")))
    problems = []
    if tally.attempted != 2 or len(tally.failures) != 2:
        problems.append(f"gate self-test: 2 bad operations, {len(tally.failures)} counted as failed")
    if not any("traceback" in f for f in tally.failures):
        problems.append("gate self-test: the crash was not seen as a traceback")
    return problems


def metric(value, unit):
    return {"value": value, "unit": unit}


def run(args) -> dict:
    deadline = time.perf_counter() + RUN_LIMIT_S
    env = child_env()
    problems = self_test(env)
    setup_time(env)  # untimed: writes the bytecode caches
    ops = WORKLOADS[args.workload](Inputs(args.seed))
    tally = Tally()
    untraced_pass(ops[:1], env, tally, deadline)  # warm-up: page in the library and the inputs
    t_begin = time.perf_counter()
    setup, passes, layer_runs = [], [], []
    while not passes or time.perf_counter() - t_begin < args.seconds:
        if not args.trace:  # spread over the run, so they see the same machine as the passes
            setup += [setup_time(env, deadline) for _ in range(SETUP_SAMPLES_PER_PASS)]
        res, refs = untraced_pass(ops, env, tally, deadline)
        passes.append((res, refs))
        if args.trace:
            layer_runs.append(layer_metrics(traced_pass(ops, env, tally, len(passes), deadline), res))
        if time.perf_counter() > deadline:
            break
    if args.trace:
        metrics = {n: metric(statistics.median(r[n] for r in layer_runs), UNITS[n])
                   for n in layer_runs[0]}
    else:
        metrics = {
            "wall_ref": metric(statistics.median(wall_ref(*p) for p in passes), "ratio"),
            "setup_s": metric(statistics.median(setup), "s"),
            "peak_rss_mb": metric(max(r.rss_mb for res, _ in passes for r in res), "MB"),
        }
        raw = statistics.median(sum(r.wall_s for r in res) for res, _ in passes)
        print(f"untraced pass wall time, median of {len(passes)}: {raw:.4f} s", file=sys.stderr)
    for f in tally.failures[:20]:
        print("FAILED", f, file=sys.stderr)
    for p in problems:
        print("FAILED", p, file=sys.stderr)
    if not problems:
        print("gate self-test: a wrong verdict and a crash were both counted as failed",
              file=sys.stderr)
    return {"correct": not tally.failures and not problems, "attempted": tally.attempted,
            "failed": len(tally.failures), "metrics": metrics}


def _units() -> dict[str, str]:
    u = {}
    for name in LAYER_SPANS:
        u[f"{name}.calls"] = "count"
        u[f"{name}.self_s"] = "s"
    for n in range(1, 6):
        u[f"linfinity.order{n}.tuples"] = "count"
    for k in ("graded.koszul_chi.calls", "graded.as_matrix.calls", "linalg.matmul.madds",
              "linalg.rref.entries"):
        u[k] = "count"
    for k in ("linfinity.feasible_share", "graded.eval_basis.hit_share",
              "linalg.matmul.zero_share", "linalg.solve.repeat_share",
              "lie3.check_identiator.largest_share", "simplicial.validate.ez_demo_share",
              "trace.overhead_share", "trace.self_s_share", "trace.accounted_share",
              "trace.min_op_accounted_share"):
        u[k] = "ratio"
    for k in ("simplicial.ez.per_ez_demo", "simplicial.aw.per_ez_demo"):
        u[k] = "calls/op"
    for k in ("trace.wall_s", "trace.untraced_wall_s", "trace.tracer_s"):
        u[k] = "s"
    for cmd in COMMANDS:
        u[f"cli.{cmd.replace('-', '_')}.wall_s"] = "s"
    return u


UNITS = _units()


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not (SRC / "shlie3" / "cli.py").is_file():
        print(f"error: no shlie3 sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    shutil.rmtree(WORK, ignore_errors=True)
    try:
        result = run(args)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    for name, m in result["metrics"].items():
        print(f"{name:45s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
