import json
import os
import random
import subprocess
import sys
from fractions import Fraction as Q
from pathlib import Path

import pytest

from shlie3.cli import main
from shlie3.lie3 import from_linfinity
from shlie3.specfile import render_chain, render_lie3, render_linfinity

from helpers import (abelian_l3_l4, ce_cocycles4, rand_chain2,
                     scaling_brackets, two_term_data)
from shlie3.chain import ChainComplexT
from shlie3.linalg import Matrix


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


@pytest.mark.parametrize("command", ["nerve", "ez-demo", "obstruction-demo"])
def test_one_term_chain_refused(tmp_path, capsys, command):
    p = tmp_path / "one_term.json"
    p.write_text(json.dumps({"kind": "chain", "dims": [2], "maps": {}}))
    assert main([command, str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.out == ""


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
    it adds none of these costly modules to what the interpreter loads anyway."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}

    def loaded(statement):
        proc = subprocess.run([sys.executable, "-c", f"{statement}; import sys; print(*sys.modules)"],
                              capture_output=True, text=True, env=env, check=True)
        return set(proc.stdout.split())

    added = loaded("import shlie3.cli") - loaded("pass")
    assert "shlie3.cli" in added
    assert added & {"dataclasses", "inspect", "typing"} == set()


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
