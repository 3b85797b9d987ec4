"""Command-line interface: checks, conversions and demos on spec files.

Exit codes: 0 all requested checks pass, 1 a check fails or a conversion is
refused, 2 usage or parse errors.  Output is deterministic for fixed input
and flags.  A handler imports the modules it runs, and a call loads only those.
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace

from .linalg import vsub, vzero
from .specfile import (KINDS, AlgebraSpecFile, SpecError, build, dumps, parse_spec,
                       render_lie3, render_linfinity, render_rational)


def _rats(vec) -> list[str]:
    return [render_rational(c) for c in vec]


def _render_checks(reports, list_key: str = "failures") -> list[dict]:
    """One entry per report: its name, verdict and failures, each failure as
    {"key": witness, "tag": identity, "residual": exact residual}."""
    out = []
    for rep in reports:
        entry = {"name": rep.name, "passed": rep.passed,
                 list_key: [{"key": f.witness, "tag": f.identity, "residual": _rats(f.residual)}
                            for f in rep.failures]}
        if rep.name == "coherence":
            entry["order5_agreement"] = all(f.identity != "order5-agreement"
                                            for f in rep.failures)
        out.append(entry)
    return out


def _emit(report: dict | str, fmt: str, out_path: str | None) -> None:
    """Write a report, or a converted spec file's text as it is, to ``out_path`` or stdout."""
    if isinstance(report, str):
        text = report
    elif fmt == "json":
        text = dumps(report) + "\n"
    else:
        lines = [f"command: {report['command']}"]
        for c in report.get("checks", []):
            status = "PASS" if c.get("passed", True) else "FAIL"
            n_bad = len(c.get("violations", c.get("failures", [])))
            lines.append(f"  {c['name']}: {status}" + (f"  ({n_bad} violations)" if n_bad else ""))
        lines += [f"{k}: {v}" for k, v in sorted(report.items()) if k not in ("command", "checks")]
        text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _load(path: str) -> AlgebraSpecFile:
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except UnicodeDecodeError as e:
        raise SpecError(f"file is not UTF-8: {e.reason} at byte {e.start}") from None
    return parse_spec(text)


def _verdict(command: str, checks: list[dict], **fields) -> tuple[dict, int]:
    """A command's report and exit code: it passes, and exits 0, iff each of
    its checks passes."""
    ok = all(c["passed"] for c in checks)
    return {"command": command, "checks": checks, "passed": ok, **fields}, 0 if ok else 1


def _chain_verdict(command: str, reports, **fields) -> tuple[dict, int]:
    """``_verdict`` on a chain command's reports: a row lists failures only when it has one."""
    rows = [{k: v for k, v in row.items() if k != "failures" or v} for row in _render_checks(reports)]
    return _verdict(command, rows, **fields)


def _truncated_category(C):
    """The 2-term category of the chain complex C's degrees 0 and 1."""
    from .chain import ChainComplexT
    from .lincat import from_chain
    return from_chain(ChainComplexT(C.dims[:2], (C.diff(1),)))


def _two_term_category(spec: AlgebraSpecFile):
    C = build(spec)
    if C.top_degree < 1 or any(d != 0 for d in C.dims[2:]):
        raise SpecError("this command needs a two-term complex", "$.dims")
    return _truncated_category(C)


def cmd_check(spec: AlgebraSpecFile, args) -> tuple[dict, int]:
    if spec.kind == "linfinity":
        from .linfinity import check_all
        checks = _render_checks(check_all(build(spec), args.n), "violations")
    else:
        from .lie3 import check_bifunctor, check_coherence, check_identiator, check_jacobiator
        D = build(spec)
        checks = _render_checks((check_bifunctor(D), check_jacobiator(D),
                                 check_identiator(D), check_coherence(D)))
    return _verdict("check", checks)


def cmd_convert(spec: AlgebraSpecFile, args) -> tuple[dict, int]:
    if args.to is None:
        raise SpecError("convert needs --to lie3|linfinity")
    if args.to == spec.kind:
        source = "linfinity" if args.to == "lie3" else "lie3"
        raise SpecError(f"convert --to {args.to} needs a {source} file", "$.kind")
    from .lie3 import ConversionError, from_linfinity, to_linfinity
    try:
        if args.to == "lie3":
            text = render_lie3(from_linfinity(build(spec)), spec.metadata)
        else:
            text = render_linfinity(to_linfinity(build(spec)), spec.metadata)
    except ConversionError as e:
        return {"command": "convert", "checks": [],
                "passed": False, "error": str(e)}, 1
    return text, 0


def cmd_coherence(spec: AlgebraSpecFile, args) -> tuple[dict, int]:
    from .lie3 import ConversionError, check_coherence, from_linfinity
    if spec.kind == "lie3":
        D = build(spec)
    else:
        try:
            D = from_linfinity(build(spec))
        except ConversionError as e:
            return {"command": "coherence", "checks": [],
                    "passed": False, "error": str(e)}, 1
    rep = check_coherence(D)
    bad = {(f.identity, f.witness): f.residual for f in rep.failures}
    v1_end = D.cat.level_dim(1)
    checks = []
    for w in rep.checked:
        v2 = bad.get(("coherence", w), vzero(D.cat.level_dim(2)))[v1_end:]
        gap = bad.get(("order5-agreement", w))
        checks.append({"name": f"quintuple {'.'.join(str(i) for _, i in w)}",
                       "passed": ("coherence", w) not in bad and gap is None,
                       "v2_residual": _rats(v2),
                       "order5_residual": _rats(v2 if gap is None else vsub(v2, gap)),
                       "order5_agreement": gap is None})
    return _verdict("coherence", checks,
                    order5_agreement=all(c["order5_agreement"] for c in checks))


def cmd_nerve(spec: AlgebraSpecFile, args) -> tuple[dict, int]:
    from .simplicial import moore, moore_of_nerve_check, nerve
    L = _two_term_category(spec)
    S = nerve(L, args.trunc)
    return _chain_verdict("nerve", [moore_of_nerve_check(L, S)],
                          simplex_dims=list(S.dims), normalized_dims=list(moore(S).dims))


def cmd_ez_demo(spec: AlgebraSpecFile, args) -> tuple[dict, int]:
    from .simplicial import aw_after_ez_identity, aw_ez_homology_check, ez_aw, nerve
    L = _two_term_category(spec)
    S = nerve(L, args.trunc)
    f, g = ez_aw(S, S)
    return _chain_verdict("ez-demo", [
        f.is_chain_map("shuffle-map-is-chain-map"), g.is_chain_map("front-face-map-is-chain-map"),
        aw_after_ez_identity(f, g), aw_ez_homology_check(f, g)])


def cmd_obstruction_demo(spec: AlgebraSpecFile, args) -> tuple[dict, int]:
    from .report import Collector
    from .simplicial import obstruction_demo
    L = _two_term_category(spec)
    identity, pairing, kernel_dim = obstruction_demo(L)
    obstructed = not pairing.passed
    # the pairing is obstructed iff V1 != 0; kernel_dim >= 2 (dim V1)^2 by a dimension count
    expected = Collector("obstruction-as-expected")
    expected.compare("obstructed-iff-v1", (), (obstructed,), (L.dim(1) > 0,))
    message = ("obstruction: the pairing does not commute with the inner face d_2" if obstructed
               else "no obstruction: V1 = 0 makes the pairing simplicial" if L.dim(1) == 0
               else "no witness found at level 3")
    f = pairing.failures[0] if obstructed else None
    witness = {"witness_index": list(f.witness), "witness_difference": _rats(f.residual)} if f else {}
    return _chain_verdict("obstruction-demo", [identity, expected.report()], obstructed=obstructed,
                          kernel_dim=kernel_dim, message=message, **witness)


def cmd_report(spec: AlgebraSpecFile, args) -> tuple[dict, int]:
    if spec.kind in ("linfinity", "lie3"):
        rep, code = cmd_check(spec, args)
        rep["command"] = "report"
        if spec.kind == "linfinity":
            from .linfinity import is_special
            rep["special"] = is_special(build(spec))[0]
        return rep, code
    # d o d = 0 and the simplicial identities need no check: the constructors refuse such files
    from .simplicial import moore, moore_of_nerve_check, nerve
    if spec.kind == "chain":
        C = build(spec)
        cats = [_truncated_category(C)] if C.top_degree >= 1 else []
        return _chain_verdict("report", [moore_of_nerve_check(L, nerve(L, args.trunc)) for L in cats],
                              dims=list(C.dims))
    return _verdict("report", [], normalized_dims=list(moore(build(spec)).dims))


# command: (handler, the kinds of file it takes)
COMMANDS = {
    "check": (cmd_check, ("linfinity", "lie3")),
    "convert": (cmd_convert, ("linfinity", "lie3")),
    "coherence": (cmd_coherence, ("linfinity", "lie3")),
    "nerve": (cmd_nerve, ("chain",)),
    "ez-demo": (cmd_ez_demo, ("chain",)),
    "obstruction-demo": (cmd_obstruction_demo, ("chain",)),
    "report": (cmd_report, KINDS),
}


# option: (default, int for an integer, the choices, or None for any string)
OPTIONS = {"--n": (5, int), "--format": ("text", ("json", "text")), "--trunc": (3, int),
           "--out": (None, None), "--to": (None, ("lie3", "linfinity"))}

USAGE = f"""\
usage: shlie3 COMMAND FILE [--n 1..5] [--format text|json] [--trunc T] [--out PATH] [--to lie3|linfinity]
commands: {', '.join(COMMANDS)}
options go anywhere, as --opt VALUE or --opt=VALUE; the last one wins (defaults --n 5, --format text, --trunc 3)
"""


def parse_args(argv) -> SimpleNamespace | None:
    """COMMAND FILE and options in any order, or None when help is asked for.
    A value may start with ``-``; a bad command line raises ValueError."""
    values = {opt[2:]: default for opt, (default, _) in OPTIONS.items()}
    positionals, it = [], iter(argv)
    for arg in it:
        if arg in ("-h", "--help"):
            return None
        if arg[:1] != "-" or arg == "-":
            positionals.append(arg)
            continue
        opt, eq, value = arg.partition("=")
        if opt not in OPTIONS:
            raise ValueError(f"unknown option {opt}")
        if not eq and (value := next(it, None)) is None:
            raise ValueError(f"{opt} needs a value")
        kind = OPTIONS[opt][1]
        if kind not in (int, None) and value not in kind:
            raise ValueError(f"{opt} must be one of {', '.join(kind)}, not {value!r}")
        try:
            values[opt[2:]] = int(value) if kind is int else value
        except ValueError:
            raise ValueError(f"{opt} needs an integer, not {value!r}") from None
    if len(positionals) != 2 or positionals[0] not in COMMANDS:
        raise ValueError(f"expected COMMAND FILE, with COMMAND one of {', '.join(COMMANDS)}")
    # In a 3-term structure every identity of order 6 or more holds vacuously
    # (its residual degree is at least 3), while the tuples to list still grow.
    if not 1 <= values["n"] <= 5 or values["trunc"] < 1:
        raise ValueError("--n must be in 1..5 and --trunc at least 1")
    return SimpleNamespace(command=positionals[0], file=positionals[1], **values)


def main(argv=None) -> int:
    """Run one command line and return its exit code.  As the process entry
    (no ``argv``) it runs ``main(sys.argv[1:])``, flushes its output (a closed
    pipe gives one error line and exit 2) and ends the process with ``os._exit``,
    skipping finalization, unless a profiler or tracer needs its exit hooks."""
    if argv is None:
        code = main(sys.argv[1:])
        try:
            sys.stdout.flush()
        except OSError as e:
            # Send what is left to os.devnull, so the flush at finalization
            # cannot fail again.  Exit code 2 has written its error line.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            if code != 2:
                sys.stderr.write(f"error: {e}\n")
                code = 2
        sys.stderr.flush()
        if sys.getprofile() is None and sys.gettrace() is None:
            os._exit(code)
        return code
    try:
        args = parse_args(argv)
    except ValueError as e:
        sys.stderr.write(f"error: {e}\n")
        return 2
    try:
        if args is None:
            sys.stdout.write(USAGE)
            return 0
        spec = _load(args.file)
        handler, kinds = COMMANDS[args.command]
        if spec.kind not in kinds:
            raise SpecError(f"{args.command} does not apply to kind {spec.kind!r}", "$.kind")
        report, code = handler(spec, args)
        # a refused conversion reports on stdout, not in the file meant for its output
        _emit(report, args.format, args.out if args.command != "convert" or code == 0 else None)
    except (SpecError, OSError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
