"""Run one ``shlie3`` CLI command with spans around each layer's public calls.

    python perfbench/launcher.py SPANS_OUT OP_ID -- CLI_ARGS...

Wraps the functions and methods named in ``TARGETS`` where they are defined
and wherever another ``shlie3`` module imported them by name, then calls
``shlie3.cli.main(CLI_ARGS)`` inside a root span ``cli``.  Spans stay in
memory and are written to SPANS_OUT as one JSON object when the command
ends.  The library itself is not modified.

The time at which the spans are written follows in ``SPANS_OUT.end``.

A span is ``[name_id, start, end, parent, overhead_inside]`` with times from
``time.perf_counter`` (system-wide monotonic, so comparable with the parent
process).  ``overhead_inside`` is the tracer's own bookkeeping time spent
inside the span; a span's net duration is ``end - start - overhead_inside``
and its self time is its net duration minus its children's net durations.
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
import time
from collections import defaultdict

clock = time.perf_counter
T_START = clock()


# -- work counters (computed after the span has ended) ----------------


def _count_matmul(t, args, result):
    c = t.counters
    A, B = args[0], args[1]
    m, k, n = A.nrows, A.ncols, B.ncols
    c["linalg.matmul.madds"] += m * k * n
    nz_col = [0] * k
    for row in A.rows:
        for l, x in enumerate(row):
            if x:
                nz_col[l] += 1
    nonzero = sum(nz_col[l] * sum(1 for x in B.rows[l] if x) for l in range(k))
    c["linalg.matmul.zero_madds"] += m * k * n - nonzero


def _count_rref(t, args, result):
    t.counters["linalg.rref.entries"] += args[0].nrows * args[0].ncols


def _count_solve(t, args, result):
    A = args[0]
    key = (A.nrows, A.ncols, hash(A.rows))
    if key in t.seen_solves:
        t.counters["linalg.solve.repeats"] += 1
    else:
        t.seen_solves.add(key)


def _count_eval_basis(t, args, result):
    if not result.is_zero():
        t.counters["graded.eval_basis.hits"] += 1


def _count_condition(t, args, result):
    data, n = args[0], args[1]
    dims = data.space.dims
    if (dims, n) not in t.tuple_counts:
        basis = [(d, i) for d in range(len(dims)) for i in range(dims[d])]
        total = feasible = 0
        for key in itertools.combinations_with_replacement(basis, n):
            if any(a == b and a[0] % 2 == 0 for a, b in zip(key, key[1:])):
                continue
            total += 1
            if 0 <= sum(d for d, _ in key) + n - 3 <= len(dims) - 1:
                feasible += 1
        t.tuple_counts[(dims, n)] = (total, feasible)
    total, feasible = t.tuple_counts[(dims, n)]
    t.counters[f"linfinity.order{n}.tuples"] += total
    t.counters["linfinity.feasible_tuples"] += feasible


# (module, attribute path, span name, counter); span name None = count calls only
TARGETS = [
    ("shlie3.cli", "main", "cli", None),
    ("shlie3.specfile", "parse_spec", "specfile.parse_spec", None),
    ("shlie3.specfile", "render_linfinity", "specfile.render", None),
    ("shlie3.specfile", "render_lie3", "specfile.render", None),
    ("shlie3.linfinity", "check_condition", "linfinity.check_condition", _count_condition),
    ("shlie3.graded", "MultiMap.eval", "graded.eval", None),
    ("shlie3.graded", "MultiMap.eval_basis", "graded.eval_basis", _count_eval_basis),
    ("shlie3.graded", "koszul_chi", None, "graded.koszul_chi.calls"),
    ("shlie3.graded", "MultiMap.as_matrix", None, "graded.as_matrix.calls"),
    ("shlie3.lincat", "LinearNCat.target", "lincat.target", None),
    ("shlie3.lincat", "LinearNCat.compose", "lincat.compose", None),
    ("shlie3.lincat", "TensorCat.raw_to_cell", "lincat.raw_to_cell", None),
    ("shlie3.lincat", "TensorCat.compose_raw", "lincat.compose_raw", None),
    ("shlie3.lincat", "tensor_product", "lincat.tensor_product", None),
    ("shlie3.lie3", "check_bifunctor", "lie3.check_bifunctor", None),
    ("shlie3.lie3", "check_jacobiator", "lie3.check_jacobiator", None),
    ("shlie3.lie3", "check_identiator", "lie3.check_identiator", None),
    ("shlie3.lie3", "check_coherence", "lie3.check_coherence", None),
    ("shlie3.lie3", "from_linfinity", "lie3.from_linfinity", None),
    ("shlie3.lie3", "to_linfinity", "lie3.to_linfinity", None),
    ("shlie3.lie3", "bracket_cells", "lie3.bracket_cells", None),
    ("shlie3.lie3", "coherence_residual", "lie3.coherence_residual", None),
    ("shlie3.linalg", "Matrix.__matmul__", "linalg.matmul", _count_matmul),
    ("shlie3.linalg", "Matrix.rref", "linalg.rref", _count_rref),
    ("shlie3.linalg", "Matrix.solve", "linalg.solve", _count_solve),
    ("shlie3.linalg", "Matrix.nullspace", "linalg.nullspace", None),
    ("shlie3.linalg", "Matrix.kron", "linalg.kron", None),
    ("shlie3.linalg", "Matrix.apply", "linalg.apply", None),
    ("shlie3.simplicial", "SimplicialVS.__post_init__", "simplicial.validate", None),
    ("shlie3.simplicial", "tensor_svs", "simplicial.tensor_svs", None),
    ("shlie3.simplicial", "ez", "simplicial.ez", None),
    ("shlie3.simplicial", "aw", "simplicial.aw", None),
    ("shlie3.simplicial", "nerve", "simplicial.nerve", None),
    ("shlie3.simplicial", "moore", "simplicial.moore", None),
    ("shlie3.simplicial", "obstruction_demo", "simplicial.obstruction_demo", None),
    ("shlie3.simplicial", "compose_tensor_identity", "simplicial.compose_tensor_identity", None),
    ("shlie3.chain", "tensor_complex", "chain.tensor_complex", None),
    ("shlie3.chain", "induced_on_homology", "chain.induced_on_homology", None),
    ("shlie3.chain", "ChainMapT.is_chain_map", "chain.is_chain_map", None),
]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.stack: list[int] = []
        self.overhead = 0.0
        self.counters: dict[str, int] = defaultdict(int)
        self.seen_solves: set = set()  # coefficient matrices solved against so far
        self.tuple_counts: dict = {}  # (dims, n) -> (tuples, feasible tuples)

    def span_wrapper(self, fn, name, counter):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        spans, stack = self.spans, self.stack
        tracer = self

        def wrapper(*args, **kwargs):
            t0 = clock()
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            ov0 = tracer.overhead
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (nid, start, end, parent, tracer.overhead - ov0)
            if counter is not None:
                counter(tracer, args, result)
            tracer.overhead += (start - t0) + (clock() - end)
            return result

        return wrapper

    def count_wrapper(self, fn, key):
        counters = self.counters

        def wrapper(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)

        return wrapper


def install(tracer: Tracer) -> None:
    modules = [m for name, m in sys.modules.items()
               if name == "shlie3" or name.startswith("shlie3.")]
    for modname, path, name, counter in TARGETS:
        owner = importlib.import_module(modname)
        parts = path.split(".")
        for p in parts[:-1]:
            owner = getattr(owner, p)
        original = getattr(owner, parts[-1])
        if name is None:
            wrapped = tracer.count_wrapper(original, counter)
        else:
            wrapped = tracer.span_wrapper(original, name, counter)
        setattr(owner, parts[-1], wrapped)
        if len(parts) == 1:  # also rebind names imported elsewhere
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)


def main(argv: list[str]) -> int:
    out_path, op_id = argv[0], argv[1]
    cli_args = argv[argv.index("--") + 1:]
    t_import0 = clock()
    import shlie3.cli  # the package __init__ loads every module, so every name can be rebound
    t_import1 = clock()
    tracer = Tracer()
    install(tracer)
    t_main0 = clock()
    code = shlie3.cli.main(cli_args)
    t_main1 = clock()
    sys.stdout.flush()
    record = {
        "op": op_id, "t_start": T_START, "import_s": t_import1 - t_import0,
        "install_s": t_main0 - t_import1, "t_main_end": t_main1,
        "overhead_s": tracer.overhead, "names": tracer.names,
        "counters": dict(tracer.counters), "spans": tracer.spans,
    }
    with open(out_path, "w", encoding="utf-8") as f:
        json.dump(record, f, separators=(",", ":"))
    with open(out_path + ".end", "w", encoding="utf-8") as f:
        f.write(repr(clock()))  # when the spans were written, for the parent's accounting
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
