import json
import os
import random
import subprocess
import sys
from fractions import Fraction as Q
from pathlib import Path

import pytest

import shlie3
from shlie3.cli import COMMANDS, main
from shlie3.lie3 import check_bifunctor, from_linfinity
from shlie3.linfinity import LInfinityData
from shlie3.specfile import KINDS, render_chain, render_lie3, render_linfinity

from helpers import (abelian_l3_l4, ce_cocycles4, rand_chain2,
                     scaling_brackets, two_term_data)
from shlie3.chain import ChainComplexT
from shlie3.linalg import Matrix
from test_properties import non_integral_samples
from test_reports import GOLDEN_CASES, GOLDEN_CLI_CASES, spec_text


ROOT = Path(__file__).resolve().parent.parent
ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
ENTRY = "import sys; from shlie3.cli import main; sys.exit(main())"  # as perfbench/run.py spawns


def run_cli(args, stdout=subprocess.PIPE, prelude="", env=ENV):
    """``shlie3 ARGS`` as a process, through ``main()`` with no arguments."""
    return subprocess.run([sys.executable, "-c", prelude + ENTRY, *args], stdout=stdout,
                          stderr=subprocess.PIPE, env=env, cwd=ROOT)


def run_cli_to_closed_pipe(args, prelude=""):
    """``run_cli`` with stdout on a pipe whose read end is closed, once with
    stdout block-buffered and once unbuffered (``PYTHONUNBUFFERED``)."""
    buffered = {k: v for k, v in ENV.items() if k != "PYTHONUNBUFFERED"}
    procs = []
    for env in (buffered, {**buffered, "PYTHONUNBUFFERED": "1"}):
        r, w = os.pipe()
        os.close(r)
        try:
            procs.append(run_cli(args, stdout=w, prelude=prelude, env=env))
        finally:
            os.close(w)
    return procs


@pytest.fixture
def valid_linf_file(tmp_path):
    A = abelian_l3_l4(random.Random(0), (3, 1, 1))
    p = tmp_path / "linf.json"
    p.write_text(render_linfinity(A))
    return str(p)


@pytest.fixture
def invalid_linf_file(tmp_path):
    A = two_term_data(scaling_brackets(), {(1, 2, 3, 4): Q(1)})
    p = tmp_path / "bad.json"
    p.write_text(render_linfinity(A))
    return str(p)


@pytest.fixture
def chain_file(tmp_path):
    C = rand_chain2(random.Random(1), (2, 2))
    p = tmp_path / "chain.json"
    p.write_text(render_chain(C))
    return str(p)


def test_check_pass_and_fail(valid_linf_file, invalid_linf_file, capsys):
    assert main(["check", valid_linf_file]) == 0
    out = capsys.readouterr().out
    assert "order-5: PASS" in out
    assert main(["check", invalid_linf_file]) == 1
    out = capsys.readouterr().out
    assert "order-5: FAIL" in out and "order-4: PASS" in out


def test_check_respects_n(invalid_linf_file, capsys):
    assert main(["check", invalid_linf_file, "--n", "4"]) == 0


def test_check_lie3(tmp_path, capsys):
    D = from_linfinity(abelian_l3_l4(random.Random(0), (2, 1, 1)))
    p = tmp_path / "lie3.json"
    p.write_text(render_lie3(D))
    assert main(["check", str(p)]) == 0
    out = capsys.readouterr().out
    for name in ("bifunctor", "jacobiator", "identiator", "coherence"):
        assert f"{name}: PASS" in out


def test_usage_errors(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["check", missing]) == 2
    garbled = tmp_path / "bad.json"
    garbled.write_text("{]")
    assert main(["check", str(garbled)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


@pytest.mark.parametrize("command, flag, value", [
    ("check", "--n", "0"), ("check", "--n", "-2"), ("report", "--n", "0"),
    ("check", "--n", "6"), ("report", "--n", "99"),
    ("nerve", "--trunc", "0"), ("ez-demo", "--trunc", "0"), ("report", "--trunc", "0")])
def test_invalid_n_and_trunc_refused(valid_linf_file, chain_file, capsys,
                                     command, flag, value):
    path = chain_file if flag == "--trunc" else valid_linf_file
    assert main([command, path, flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.out == ""


@pytest.mark.parametrize("argv", [
    ["check", "FILE", "--bogus", "1"], ["check", "FILE", "--form", "json"],
    ["check", "FILE", "-n", "4"], ["check", "FILE", "--format", "xml"],
    ["check", "FILE", "--n", "abc"], ["nerve", "FILE", "--trunc=2.5"],
    ["convert", "FILE", "--to", "json"], ["check", "FILE", "--n"], ["check", "FILE", "--out"],
    ["check"], [], ["check", "FILE", "extra"], ["verify", "FILE"]],
    ids=["unknown-option", "abbreviated-option", "single-dash-option", "bad-choice",
         "non-integer", "non-integer-trunc", "bad-target", "missing-value", "missing-out-value",
         "missing-file", "no-arguments", "extra-positional", "unknown-command"])
def test_bad_command_line_refused(valid_linf_file, capsys, argv):
    """Each bad command line exits 2 with one ``error:`` line on stderr and
    nothing on stdout; ``main`` returns, it does not raise ``SystemExit``."""
    assert main([valid_linf_file if a == "FILE" else a for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert captured.out == ""


def test_option_forms_are_equivalent(invalid_linf_file, capsys):
    """--opt=value, options before the command and repeated options (the last
    wins) give what the spaced form gives."""
    def run(argv):
        code = main(argv)
        return code, capsys.readouterr()
    spaced = run(["check", invalid_linf_file, "--n", "4", "--format", "json"])
    assert spaced[0] == 0 and spaced[1].out.startswith("{")
    for argv in (["check", invalid_linf_file, "--n=4", "--format=json"],
                 ["--n", "4", "--format", "json", "check", invalid_linf_file],
                 ["--format=json", "check", "--n", "4", invalid_linf_file],
                 ["check", invalid_linf_file, "--n", "5", "--format", "text", "--n=4",
                  "--format", "json"]):
        assert run(argv) == spaced, argv


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["check", "nope.json", "--help"]])
def test_help_prints_usage(capsys, argv):
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: shlie3") and captured.err == ""
    for word in ("check", "convert", "coherence", "nerve", "ez-demo", "obstruction-demo",
                 "report", "--n", "--format", "--trunc", "--out", "--to"):
        assert word in captured.out


@pytest.mark.parametrize("content", [
    '{"kind": "chain", "dims": [1], "maps": {}, "metadata": {"name": "caf\xe9"}}'.encode("latin-1"),
    b"[" * 200_000], ids=["not-utf8", "deeply-nested"])
def test_undecodable_spec_refused(tmp_path, capsys, content):
    p = tmp_path / "spec.json"
    p.write_bytes(content)
    assert main(["report", str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.out == ""


@pytest.mark.parametrize("entry", ["7" * 5000, '"1e5"'], ids=["5000-digit-integer", "exponent"])
def test_unparsable_entry_refused(tmp_path, capsys, entry):
    """An integer literal over the interpreter's 4300-digit limit, and a
    rational string in an undocumented form, exit 2 with an error line."""
    p = tmp_path / "chain.json"
    p.write_text('{"kind": "chain", "dims": [1, 1], "maps": {"d1": [[%s]]}}' % entry)
    assert main(["report", str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.out == ""


def test_long_malformed_rational_is_echoed_short(tmp_path, capsys):
    """A malformed rational of 5000 characters is named by its first 40 and
    its length: one short error line and exit 2."""
    p = tmp_path / "chain.json"
    p.write_text(json.dumps({"kind": "chain", "dims": [1, 1], "maps": {"d1": [["9" * 5000]]}}))
    assert main(["nerve", str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1 and len(captured.err) < 300
    assert captured.err.startswith(f"error: $.maps.d1[0][0]: malformed rational '{'9' * 40}'... "
                                   "of 5000 characters (")


@pytest.mark.parametrize("kind, maps, message", [
    ("lie3", {"bracket": [{"key": [[1, 0], [1, 0]], "value": ["1"]}]},
     "$.maps: bracket constants must vanish on V1 x V1"),
    ("lie3", {"J": [{"key": [[0, 0], [0, 1], [1, 0]], "value": ["1"]}]},
     "$.maps: J is defined on degree-0 tuples only"),
    ("lie3", {"l1": [{"key": [[1, 0]], "value": ["1", "0"]}, {"key": [[2, 0]], "value": ["1"]}]},
     "$.maps: d o d != 0 at degree 2"),
    ("linfinity", {"l2": [{"key": [[0, 1], [0, 1]], "value": ["1", "0"]}]},
     "$.maps.l2: key ((0, 1), (0, 1)) is forced to zero"),
    ("linfinity", {"l2": [{"key": [[0, 0]], "value": ["1", "0"]}]},
     "$.maps.l2: key ((0, 0),) has wrong arity 1, expected 2"),
    ("linfinity", {"l2": [{"key": [[0, 0], [0, 1]], "value": ["1"]}]},
     "$.maps.l2: value for ((0, 0), (0, 1)) has wrong length 1, expected 2")],
    ids=["l2-on-V1xV1", "J-on-a-V1-index", "t-o-t-nonzero", "l2-on-a-repeated-even-element",
         "l2-key-of-wrong-arity", "l2-value-of-wrong-length"])
def test_each_rule_refuses_with_its_one_message(tmp_path, capsys, kind, maps, message):
    """Each rule is decided in one place: the special conditions in
    ``linfinity.special_witness``, t o t = 0 in ``ChainComplexT`` and the
    zero rule, arity and block length of an entry in ``MultiMap``; a file
    that breaks one exits 2 with that rule's message at its JSON path."""
    p = tmp_path / "spec.json"
    p.write_text(json.dumps({"kind": kind, "dims": [2, 1, 1], "maps": maps}))
    assert main(["check", str(p)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("command", ["nerve", "ez-demo", "obstruction-demo"])
def test_one_term_chain_refused(tmp_path, capsys, command):
    p = tmp_path / "one_term.json"
    p.write_text(json.dumps({"kind": "chain", "dims": [2], "maps": {}}))
    assert main([command, str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.out == ""


# a small valid file of each kind
KIND_DOCS = {
    "linfinity": {"kind": "linfinity", "dims": [1, 1, 1], "maps": {}},
    "lie3": {"kind": "lie3", "dims": [1, 1, 1], "maps": {}},
    "chain": {"kind": "chain", "dims": [1, 1], "maps": {"d1": [["1"]]}},
    "simplicial": {"kind": "simplicial", "dims": [1, 1],
                   "maps": {"d:1:0": [["1"]], "d:1:1": [["1"]], "s:0:0": [["1"]]}},
}
REFUSED_KINDS = [(command, kind) for command, kinds in (
    ("check", ("chain", "simplicial")), ("convert", ("chain", "simplicial")),
    ("coherence", ("chain", "simplicial")), ("nerve", ("linfinity", "lie3", "simplicial")),
    ("ez-demo", ("linfinity", "lie3", "simplicial")),
    ("obstruction-demo", ("linfinity", "lie3", "simplicial"))) for kind in kinds]


def test_command_table_refuses_exactly_these_kinds():
    assert REFUSED_KINDS == [(command, kind) for command, (_, kinds) in COMMANDS.items()
                             for kind in KINDS if kind not in kinds]


@pytest.mark.parametrize("command, kind", REFUSED_KINDS)
def test_command_refuses_a_kind_it_does_not_take(tmp_path, capsys, command, kind):
    """``main`` refuses a file whose kind the command's ``COMMANDS`` entry
    does not list, with one line and exit 2, whatever the options."""
    p = tmp_path / "spec.json"
    p.write_text(json.dumps(KIND_DOCS[kind]))
    tails = ([], ["--to", "lie3"], ["--to", "linfinity"]) if command == "convert" else ([],)
    for tail in tails:
        assert main([command, str(p), *tail]) == 2
        assert capsys.readouterr() == (
            "", f"error: $.kind: {command} does not apply to kind {kind!r}\n")


@pytest.mark.parametrize("doc, message", [
    ({"kind": "chain", "dims": [1, 1, 1], "maps": {"d1": [["1"]], "d2": [["1"]]}},
     "$.maps: d o d != 0 at degree 2"),
    ({"kind": "simplicial", "dims": [1, 1],
      "maps": {"d:1:0": [["1"]], "d:1:1": [["2"]], "s:0:0": [["1"]]}},
     "$.maps: mixed identity fails at level 0, (i,j)=(1,0)")],
    ids=["chain-d-o-d-nonzero", "simplicial-identity-broken"])
def test_report_cannot_print_a_failing_constant_check(tmp_path, capsys, doc, message):
    """``report`` lists no check of d o d = 0 or of the simplicial identities,
    which could only pass: the constructors decide both, so a file that breaks
    either is refused when it is parsed, with exit 2 and one error line."""
    p = tmp_path / "spec.json"
    p.write_text(json.dumps(doc))
    assert main(["report", str(p)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_unwritable_out_refused(valid_linf_file, tmp_path, capsys):
    target = tmp_path / "missing" / "report.json"
    assert main(["check", valid_linf_file, "--out", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.out == ""
    assert not target.exists()


def test_convert_roundtrip_byte_identical(valid_linf_file, tmp_path, capsys):
    mid = str(tmp_path / "as_lie3.json")
    back = str(tmp_path / "back.json")
    assert main(["convert", valid_linf_file, "--to", "lie3", "--out", mid]) == 0
    assert main(["convert", mid, "--to", "linfinity", "--out", back]) == 0
    original = open(valid_linf_file).read()
    assert open(back).read() == original


def test_convert_roundtrip_keeps_non_ascii_metadata(tmp_path, capsys):
    """Metadata with non-ASCII, control, quote and backslash characters comes
    back from convert --to lie3 and back unchanged, written as the stdlib's
    ASCII-escaped JSON."""
    meta = {"name": "caf\xe9 \u2603 \U0001f600", "note": 'tab\t "quoted" back\\slash\x01'}
    src, mid = tmp_path / "linf.json", str(tmp_path / "as_lie3.json")
    src.write_text(render_linfinity(abelian_l3_l4(random.Random(0), (3, 1, 1)), meta), encoding="utf-8")
    assert main(["convert", str(src), "--to", "lie3", "--out", mid]) == 0
    assert json.loads(open(mid, encoding="utf-8").read())["metadata"] == meta
    assert main(["convert", mid, "--to", "linfinity"]) == 0
    out = capsys.readouterr().out
    assert out == src.read_text(encoding="utf-8") and out.isascii()
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


def test_convert_refuses_invalid(invalid_linf_file, capsys):
    assert main(["convert", invalid_linf_file, "--to", "lie3"]) == 1
    out = capsys.readouterr().out
    assert "order 5" in out


def test_convert_wrong_direction(valid_linf_file):
    assert main(["convert", valid_linf_file, "--to", "linfinity"]) == 2


def test_coherence_command(valid_linf_file, capsys):
    assert main(["coherence", valid_linf_file]) == 0
    out = capsys.readouterr().out
    assert "quintuple" in out


def test_nerve_command(chain_file, capsys):
    assert main(["nerve", chain_file, "--trunc", "3"]) == 0
    out = capsys.readouterr().out
    assert "normalization-recovers-kernel-complex: PASS" in out
    assert "simplex_dims" in out


def test_ez_demo_command(chain_file, capsys):
    assert main(["ez-demo", chain_file, "--trunc", "2"]) == 0
    out = capsys.readouterr().out
    assert "roundtrip-identity-on-tensor: PASS" in out


def test_obstruction_demo_command(chain_file, tmp_path, capsys):
    assert main(["obstruction-demo", chain_file]) == 0
    out = capsys.readouterr().out
    assert "obstructed: True" in out
    p = tmp_path / "nokernel.json"
    p.write_text(render_chain(ChainComplexT((2, 0), (Matrix.zeros(2, 0),))))
    assert main(["obstruction-demo", str(p)]) == 0
    out = capsys.readouterr().out
    assert "obstructed: False" in out


def test_readme_example_spec_passes_check(tmp_path, capsys):
    """The first ``json`` block of README.md is a valid spec that passes."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    p = tmp_path / "readme.json"
    p.write_text(text.split("```json\n", 1)[1].split("```", 1)[0])
    assert main(["check", str(p)]) == 0
    assert capsys.readouterr().out.endswith("passed: True\n")


def test_report_json_deterministic(valid_linf_file, capsys):
    assert main(["report", valid_linf_file, "--format", "json"]) == 0
    first = capsys.readouterr().out
    assert main(["report", valid_linf_file, "--format", "json"]) == 0
    assert capsys.readouterr().out == first
    doc = json.loads(first)
    assert doc["passed"] is True and doc["special"] is True


def test_out_flag_writes_file(valid_linf_file, tmp_path, capsys):
    target = tmp_path / "report.json"
    assert main(["report", valid_linf_file, "--format", "json",
                 "--out", str(target)]) == 0
    assert json.loads(target.read_text())["passed"] is True
    assert capsys.readouterr().out == ""


def test_console_script_entry_point(valid_linf_file):
    proc = subprocess.run([sys.executable, "-m", "shlie3.cli", "check",
                           valid_linf_file], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "PASS" in proc.stdout


def test_cli_import_loads_no_dataclasses_inspect_or_typing():
    """Every CLI call pays for ``import shlie3.cli`` in a fresh interpreter, so
    it adds none of these costly modules to what the interpreter loads anyway,
    nor ``argparse`` and the ``gettext`` it imports."""
    def loaded(statement):
        proc = subprocess.run([sys.executable, "-c", f"{statement}; import sys; print(*sys.modules)"],
                              capture_output=True, text=True, env=ENV, check=True)
        return set(proc.stdout.split())

    added = loaded("import shlie3.cli") - loaded("pass")
    assert "shlie3.cli" in added
    assert added & {"dataclasses", "inspect", "typing", "argparse", "gettext"} == set()


MODULES_PROBE = """\
import contextlib, io, sys
before = set(sys.modules)
from shlie3.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:]) if sys.argv[1:] else 0
print(code, *(m for m in set(sys.modules) - before if m == "json" or m.startswith("shlie3.")))
"""


@pytest.mark.parametrize("command, loads, skips", [
    ("import", set(), {"json", "lie3", "lincat", "chain", "simplicial", "linfinity"}),
    ("check", {"linfinity"}, {"json", "lie3", "lincat", "chain", "simplicial"}),
    ("nerve", {"simplicial", "lincat", "chain"}, {"json", "lie3", "linfinity"}),
], ids=["import", "check-linfinity", "nerve"])
def test_cold_start_loads_only_what_the_command_runs(command, loads, skips, valid_linf_file, chain_file):
    """In a fresh interpreter, ``import shlie3.cli`` loads none of the modules
    that run checks, nor the ``json`` package; ``check`` on a linfinity file
    loads ``linfinity`` and no module of the categorical or simplicial side;
    ``nerve`` loads the simplicial side and neither ``lie3`` nor ``linfinity``."""
    argv = {"import": [], "check": ["check", valid_linf_file], "nerve": ["nerve", chain_file]}[command]
    proc = subprocess.run([sys.executable, "-c", MODULES_PROBE, *argv], capture_output=True,
                          text=True, env=ENV, cwd=ROOT, check=True)
    code, *added = proc.stdout.split()
    added = {m.removeprefix("shlie3.") for m in added}
    assert code == "0" and loads <= added and not skips & added


def test_package_names_load_their_module_on_first_read():
    """Each name of ``shlie3.__all__`` is read from its module by the
    package's ``__getattr__``, which refuses any other name."""
    for name in shlie3.__all__:
        value = shlie3.__getattr__(name)
        assert getattr(sys.modules[value.__module__], name) is value
    with pytest.raises(AttributeError, match="no attribute 'lie3_data'"):
        shlie3.__getattr__("lie3_data")


FRACTIONS = ("decimal", "fractions", "numbers")  # fractions and what it imports
LOAD_PROBE = f"""\
import io, json, sys
before = set(sys.modules)
from shlie3.cli import main
runs = []
for argv in json.loads(sys.argv[1]):
    sys.stdout = io.StringIO()
    code, out = main(argv), sys.stdout.getvalue()
    sys.stdout = sys.__stdout__
    runs.append((argv, code, out, [m for m in {FRACTIONS!r} if m in sys.modules and m not in before]))
print(json.dumps(runs))
"""


def runs_in_one_child(calls: list) -> list:
    """(argv, exit code, stdout, the modules of FRACTIONS loaded since the
    interpreter started) after each ``main(argv)``, called in order in one
    fresh interpreter; a module that its ``site`` loads counts as not loaded."""
    proc = subprocess.run([sys.executable, "-c", LOAD_PROBE, json.dumps(calls)],
                          capture_output=True, text=True, env=ENV, cwd=ROOT, check=True)
    return json.loads(proc.stdout)


def write_spec(path: Path, data) -> str:
    """Write the spec file of a structure or complex (``spec_text``); return its path."""
    path.write_text(spec_text(data))
    return str(path)


def test_integral_inputs_never_load_fractions(tmp_path):
    """Every command on integral data (the golden samples, and structures and
    complexes like the benchmark's) runs in int arithmetic: no call imports
    ``fractions``.  The elimination of ez-demo meets only pivots 1 and -1 on
    the complexes used here."""
    algebras = [make() for make in dict.fromkeys(make for make, _ in GOLDEN_CASES.values())]
    algebras += [two_term_data(scaling_brackets(), next(iter(ce_cocycles4(scaling_brackets(), 5)))),
                 abelian_l3_l4(random.Random(0), (3, 2, 2))]
    algebras += [from_linfinity(A) for A in algebras[-2:]]
    chains = [make() for make in dict.fromkeys(make for make, _ in GOLDEN_CLI_CASES.values())]
    calls = []
    for k, data in enumerate(algebras):
        path = write_spec(tmp_path / f"algebra-{k}.json", data)
        to = "lie3" if isinstance(data, LInfinityData) else "linfinity"
        calls += [[c, path, "--format", "json"] for c in ("check", "coherence", "report")]
        calls.append(["convert", path, "--to", to])
    for k, C in enumerate(chains):
        path = write_spec(tmp_path / f"chain-{k}.json", C)
        commands = ("report",) if isinstance(C, str) else ("nerve", "obstruction-demo", "report")
        calls += [[c, path, "--format", "json"] for c in commands]
    for k, C in enumerate((ChainComplexT((2, 1), (Matrix([[1], [0]]),)), ChainComplexT((2, 0), (Matrix.zeros(2, 0),)))):
        calls.append(["ez-demo", write_spec(tmp_path / f"unit-pivots-{k}.json", C), "--trunc", "2"])
    runs = runs_in_one_child(calls)
    assert {code for _, code, _, _ in runs} == {0, 1}
    assert {argv[0] for argv, *_ in runs} == set(COMMANDS)
    assert [(argv, loaded) for argv, _, _, loaded in runs if loaded] == []


def test_non_integral_input_loads_fractions(tmp_path):
    """A value that is not integral loads ``fractions`` when it is parsed, and
    the arithmetic stays exact: the chain l1 = (2/3, 3/2) has a normalized
    nerve, and a failing non-integral structure prints residuals p/q."""
    chain = write_spec(tmp_path / "chain.json", ChainComplexT((2, 1), (Matrix([[Q(2, 3)], [Q(3, 2)]]),)))
    failing = next(D for D in non_integral_samples() if not check_bifunctor(D).passed)
    algebra = write_spec(tmp_path / "algebra.json", failing)
    (_, c1, out1, loaded), (_, c2, out2, _) = runs_in_one_child(
        [["nerve", chain, "--format", "json"], ["check", algebra, "--format", "json"]])
    assert "fractions" in loaded and (c1, json.loads(out1)["passed"]) == (0, True)
    residuals = [r for c in json.loads(out2)["checks"] for f in c["failures"] for r in f["residual"]]
    assert c2 == 1 and any("/" in r for r in residuals)


def test_each_spec_is_built_once_per_call(valid_linf_file, chain_file, tmp_path,
                                          monkeypatch, capsys):
    """A command runs on the structure that ``parse_spec`` built to validate
    the file: a whole call parses each map of the file once, as ``parse_spec``
    alone does."""
    from shlie3 import specfile
    parsed = []
    for name in ("_build_multimap", "_parse_matrix"):
        real = getattr(specfile, name)
        monkeypatch.setattr(specfile, name, lambda *a, real=real: parsed.append(a[0]) or real(*a))
    lie3_file = tmp_path / "lie3.json"
    lie3_file.write_text(render_lie3(from_linfinity(abelian_l3_l4(random.Random(0), (2, 1, 1)))))
    calls = [["check", valid_linf_file], ["convert", valid_linf_file, "--to", "lie3"],
             ["coherence", valid_linf_file], ["report", valid_linf_file],
             ["check", str(lie3_file)], ["convert", str(lie3_file), "--to", "linfinity"],
             ["coherence", str(lie3_file)], ["nerve", chain_file, "--trunc", "2"],
             ["ez-demo", chain_file, "--trunc", "2"], ["obstruction-demo", chain_file],
             ["report", chain_file, "--trunc", "2"]]
    for argv in calls:
        parsed.clear()
        specfile.parse_spec(Path(argv[1]).read_text(encoding="utf-8"))
        once = list(parsed)
        assert once
        parsed.clear()
        assert main(argv) == 0
        assert parsed == once, argv
    capsys.readouterr()


def test_process_matches_in_process_main(valid_linf_file, invalid_linf_file, chain_file,
                                         tmp_path, capsys):
    """Every command as a process, which ends with ``os._exit`` once its output
    is flushed, writes the bytes and exits with the code that ``main(argv)``
    returns in process (it returns, and the loop goes on): passing, failing
    and exit-2 lines, ``--help`` and ``--out``."""
    lie3_file = tmp_path / "lie3.json"
    lie3_file.write_text(render_lie3(from_linfinity(abelian_l3_l4(random.Random(0), (2, 1, 1)))))
    calls = [["check", valid_linf_file], ["check", invalid_linf_file, "--format", "json"],
             ["check", str(lie3_file)], ["convert", valid_linf_file, "--to", "lie3"],
             ["convert", str(lie3_file), "--to", "linfinity"],
             ["convert", invalid_linf_file, "--to", "lie3"], ["coherence", valid_linf_file],
             ["coherence", invalid_linf_file, "--format", "json"], ["report", str(lie3_file)],
             ["nerve", chain_file, "--trunc", "2"], ["ez-demo", chain_file, "--trunc", "2"],
             ["obstruction-demo", chain_file, "--format", "json"], ["report", chain_file],
             ["--help"], [], ["check", str(tmp_path / "missing.json")],
             ["convert", valid_linf_file, "--to", "linfinity"], ["check", valid_linf_file, "--n", "6"],
             ["report", valid_linf_file, "--format", "json", "--out", "OUT"],
             ["convert", valid_linf_file, "--to", "lie3", "--out", "OUT"],
             ["report", valid_linf_file, "--out", str(tmp_path / "no-such-dir" / "r.txt")]]
    for argv in calls:
        outs = {}
        for how in ("main", "process"):
            out_file = tmp_path / f"out-{how}.txt"
            args = [str(out_file) if a == "OUT" else a for a in argv]
            if how == "main":
                code = main(args)
                captured = capsys.readouterr()
                stdout, stderr = captured.out.encode(), captured.err.encode()
            else:
                proc = run_cli(args)
                code, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
            written = out_file.read_bytes() if out_file.exists() else None
            outs[how] = (code, stdout, stderr, written)
        assert outs["process"] == outs["main"] and any(outs["main"][1:]), argv


def test_closed_stdout_pipe_on_a_large_report(tmp_path):
    """A report over 64 KB (the pipe's capacity) to a closed pipe: the write
    fails inside ``main``, which reports it on stderr and exits 2."""
    A = abelian_l3_l4(random.Random(0), (7, 1, 1))
    p = tmp_path / "linf.json"
    p.write_text(render_linfinity(A))
    assert len(run_cli(["coherence", str(p), "--format", "json"]).stdout) > 65536
    for proc in run_cli_to_closed_pipe(["coherence", str(p), "--format", "json"]):
        assert proc.returncode == 2
        assert proc.stderr == b"error: [Errno 32] Broken pipe\n"


@pytest.mark.parametrize("prelude", ["", "import sys; sys.setprofile(lambda *a: None); "],
                         ids=["plain", "profiler"])
@pytest.mark.parametrize("args", [["--help"], ["check", "FILE"]], ids=["help", "short-report"])
def test_closed_stdout_pipe_on_short_output(args, prelude, valid_linf_file):
    """Output far below the pipe's capacity to a closed pipe fails like any
    other write: one error line on stderr and exit 2, not a traceback.  With
    stdout block-buffered the write succeeds and the flush at exit fails."""
    args = [valid_linf_file if a == "FILE" else a for a in args]
    for proc in run_cli_to_closed_pipe(args, prelude=prelude):
        assert proc.returncode == 2
        assert proc.stderr == b"error: [Errno 32] Broken pipe\n"


@pytest.mark.parametrize("prelude, hooks_run", [
    ("", False),
    ("import sys; sys.setprofile(lambda *a: None); ", True),
    ("import sys; sys.settrace(lambda *a: None); ", True)],
    ids=["plain", "profiler", "tracer"])
def test_process_entry_skips_exit_hooks_unless_profiled(prelude, hooks_run):
    """``main()`` ends the process without running ``atexit`` hooks, unless a
    profiler or tracer is set (``python -m cProfile``, coverage): then it
    returns, and their exit hooks run."""
    hook = "import atexit; atexit.register(print, 'exit hooks ran'); "
    proc = run_cli(["--help"], prelude=prelude + hook)
    assert proc.returncode == 0 and proc.stdout.startswith(b"usage: shlie3")
    assert proc.stdout.endswith(b"exit hooks ran\n") == hooks_run


def test_cli_import_registers_no_atexit_callbacks():
    """The process entry skips ``atexit`` callbacks, so importing the CLI must
    register none beyond those of a bare interpreter."""
    def count(statement):
        proc = subprocess.run([sys.executable, "-c", f"import atexit; {statement}; "
                               "print(atexit._ncallbacks())"],
                              capture_output=True, text=True, env=ENV, check=True)
        return int(proc.stdout)

    assert count("import shlie3.cli") == count("pass")


TRACER_PROBE = """
import sys
import shlie3.cli
sys.path.insert(0, "perfbench")
import launcher
launcher.install(launcher.Tracer())
targets = {(module, path) for module, path, _, _ in launcher.TARGETS}
print(sorted(f"{name}.{attr}" for name, mod in sys.modules.items() if name.startswith("shlie3")
             for attr, value in vars(mod).items()
             if (getattr(value, "__module__", None), getattr(value, "__qualname__", None)) in targets))
"""


def test_tracer_rebinds_every_imported_name():
    """After ``import shlie3.cli`` and the benchmark tracer's ``install``, no
    ``shlie3`` module still holds the unwrapped original of a traced function,
    so the traced call counts see every call."""
    proc = subprocess.run([sys.executable, "-c", TRACER_PROBE], capture_output=True,
                          text=True, env=ENV, cwd=ROOT, check=True)
    assert proc.stdout == "[]\n"
