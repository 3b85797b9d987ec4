"""Command-line interface: checks, conversions and demos on spec files.

Exit codes: 0 all requested checks pass, 1 a check fails or a conversion is
refused, 2 usage or parse errors.  Output is deterministic for fixed input
and flags.
"""

from __future__ import annotations

import json
import sys
from types import SimpleNamespace

from .chain import ChainComplexT
from .lie3 import (ConversionError, check_bifunctor, check_coherence,
                   check_identiator, check_jacobiator, from_linfinity,
                   to_linfinity)
from .lincat import from_chain
from .linalg import vsub, vzero
from .linfinity import check_all, is_special
from .simplicial import (aw_after_ez_identity, aw_ez_homology_check, ez_aw, moore,
                         moore_of_nerve_check, nerve, obstruction_demo)
from .specfile import (AlgebraSpecFile, SpecError, build, expect_kind, parse_spec,
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


def _lie3_checks(D) -> list[dict]:
    return _render_checks((check_bifunctor(D), check_jacobiator(D),
                           check_identiator(D), check_coherence(D)))


def _emit(report: dict, fmt: str, out_path: str | None) -> None:
    if fmt == "json":
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
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


def _two_term_category(spec: AlgebraSpecFile):
    expect_kind(spec, "chain")
    C = build(spec)
    if C.top_degree < 1 or any(d != 0 for d in C.dims[2:]):
        raise SpecError("this command needs a two-term complex", "$.dims")
    if C.top_degree > 1:
        C = ChainComplexT(C.dims[:2], (C.diff(1),))
    return from_chain(C)


def cmd_check(spec: AlgebraSpecFile, args) -> tuple[dict, int]:
    if spec.kind == "linfinity":
        checks = _render_checks(check_all(build(spec), args.n), "violations")
    elif spec.kind == "lie3":
        checks = _lie3_checks(build(spec))
    else:
        raise SpecError(f"check does not apply to kind {spec.kind!r}", "$.kind")
    ok = all(c["passed"] for c in checks)
    return {"command": "check", "checks": checks, "passed": ok}, 0 if ok else 1


def cmd_convert(spec: AlgebraSpecFile, args) -> tuple[dict, int]:
    if args.to is None:
        raise SpecError("convert needs --to lie3|linfinity")
    try:
        if args.to == "lie3":
            if spec.kind != "linfinity":
                raise SpecError("convert --to lie3 needs a linfinity file", "$.kind")
            text = render_lie3(from_linfinity(build(spec)), spec.metadata)
        else:
            if spec.kind != "lie3":
                raise SpecError("convert --to linfinity needs a lie3 file", "$.kind")
            text = render_linfinity(to_linfinity(build(spec)), spec.metadata)
    except ConversionError as e:
        return {"command": "convert", "checks": [],
                "passed": False, "error": str(e)}, 1
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    return None, 0


def cmd_coherence(spec: AlgebraSpecFile, args) -> tuple[dict, int]:
    if spec.kind == "lie3":
        D = build(spec)
    elif spec.kind == "linfinity":
        try:
            D = from_linfinity(build(spec))
        except ConversionError as e:
            return {"command": "coherence", "checks": [],
                    "passed": False, "error": str(e)}, 1
    else:
        raise SpecError(f"coherence does not apply to kind {spec.kind!r}", "$.kind")
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
    return {"command": "coherence", "checks": checks, "passed": rep.passed,
            "order5_agreement": all(c["order5_agreement"] for c in checks)}, 0 if rep.passed else 1


def cmd_nerve(spec: AlgebraSpecFile, args) -> tuple[dict, int]:
    L = _two_term_category(spec)
    S = nerve(L, args.trunc)
    C = moore(S)
    ok = moore_of_nerve_check(L, S)
    rep = {"command": "nerve",
           "checks": [{"name": "normalization-recovers-kernel-complex", "passed": ok}],
           "simplex_dims": list(S.dims), "normalized_dims": list(C.dims),
           "passed": ok}
    return rep, 0 if ok else 1


def cmd_ez_demo(spec: AlgebraSpecFile, args) -> tuple[dict, int]:
    L = _two_term_category(spec)
    S = nerve(L, args.trunc)
    f, g = ez_aw(S, S)
    roundtrip = aw_after_ez_identity(f, g)
    homology = aw_ez_homology_check(f, g)
    checks = [
        {"name": "shuffle-map-is-chain-map", "passed": f.is_chain_map()},
        {"name": "front-face-map-is-chain-map", "passed": g.is_chain_map()},
        {"name": "roundtrip-identity-on-tensor", "passed": roundtrip},
        {"name": "roundtrip-identity-on-homology", "passed": homology},
    ]
    ok = all(c["passed"] for c in checks)
    return {"command": "ez-demo", "checks": checks, "passed": ok}, 0 if ok else 1


def cmd_obstruction_demo(spec: AlgebraSpecFile, args) -> tuple[dict, int]:
    L = _two_term_category(spec)
    rep = obstruction_demo(L)
    expected = (L.dim(1) == 0 and not rep.obstructed) or (
        L.dim(1) > 0 and rep.obstructed and rep.kernel_dim > 0)
    checks = [
        {"name": "compose-tensor-identity", "passed": rep.compose_tensor_identity_holds},
        {"name": "obstruction-as-expected", "passed": expected},
    ]
    out = {"command": "obstruction-demo", "checks": checks,
           "obstructed": rep.obstructed, "kernel_dim": rep.kernel_dim,
           "message": rep.message,
           "passed": all(c["passed"] for c in checks)}
    if rep.witness_index is not None:
        out["witness_index"] = list(rep.witness_index)
        out["witness_difference"] = _rats(rep.witness_difference)
    return out, 0 if out["passed"] else 1


def cmd_report(spec: AlgebraSpecFile, args) -> tuple[dict, int]:
    if spec.kind == "linfinity":
        data = build(spec)
        checks = _render_checks(check_all(data, args.n), "violations")
        special, _ = is_special(data)
        rep = {"command": "report", "checks": checks, "special": special}
    elif spec.kind == "lie3":
        rep = {"command": "report", "checks": _lie3_checks(build(spec))}
    elif spec.kind == "chain":
        C = build(spec)
        checks = [{"name": "boundary-squares-to-zero", "passed": True}]
        if C.top_degree >= 1:
            L = from_chain(ChainComplexT(C.dims[:2], (C.diff(1),)))
            checks.append({"name": "normalization-recovers-kernel-complex",
                           "passed": moore_of_nerve_check(L, nerve(L, args.trunc))})
        rep = {"command": "report", "checks": checks, "dims": list(C.dims)}
    else:
        S = build(spec)
        C = moore(S)
        rep = {"command": "report",
               "checks": [{"name": "simplicial-identities", "passed": True}],
               "normalized_dims": list(C.dims)}
    ok = all(c["passed"] for c in rep["checks"])
    rep["passed"] = ok
    return rep, 0 if ok else 1


COMMANDS = {
    "check": cmd_check,
    "convert": cmd_convert,
    "coherence": cmd_coherence,
    "nerve": cmd_nerve,
    "ez-demo": cmd_ez_demo,
    "obstruction-demo": cmd_obstruction_demo,
    "report": cmd_report,
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
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
    except ValueError as e:
        sys.stderr.write(f"error: {e}\n")
        return 2
    if args is None:
        sys.stdout.write(USAGE)
        return 0
    try:
        spec = _load(args.file)
        report, code = COMMANDS[args.command](spec, args)
        if report is not None:
            _emit(report, args.format, args.out if args.command != "convert" else None)
    except (SpecError, OSError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
