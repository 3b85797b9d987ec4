"""Command-line interface: checks, conversions and demos on spec files.

Exit codes: 0 all requested checks pass, 1 a check fails or a conversion is
refused, 2 usage or parse errors.  Output is deterministic for fixed input
and flags.
"""

from __future__ import annotations

import argparse
import json
import sys

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
            extra = ""
            n_bad = len(c.get("violations", c.get("failures", [])))
            if n_bad:
                extra = f"  ({n_bad} violations)"
            lines.append(f"  {c['name']}: {status}{extra}")
        for k, v in sorted(report.items()):
            if k in ("command", "checks"):
                continue
            lines.append(f"{k}: {v}")
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


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="shlie3",
        description="Exact checks and conversions for 3-term homotopy Lie "
                    "algebras and their categorified presentations.")
    p.add_argument("command", choices=sorted(COMMANDS))
    p.add_argument("file", help="JSON spec file")
    p.add_argument("--n", type=int, default=5, help="highest identity order to check (1..5)")
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.add_argument("--trunc", type=int, default=3, help="simplicial truncation level")
    p.add_argument("--out", default=None, help="write output to this file")
    p.add_argument("--to", choices=("lie3", "linfinity"), default=None,
                   help="conversion target (convert only)")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # In a 3-term structure every identity of order 6 or more holds vacuously
    # (its residual degree is at least 3), while the tuples to list still grow.
    if not 1 <= args.n <= 5 or args.trunc < 1:
        sys.stderr.write("error: --n must be in 1..5 and --trunc at least 1\n")
        return 2
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
