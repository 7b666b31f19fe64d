import json
import re
import shlex
from pathlib import Path

import nimcolor
from nimcolor import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_tour_runs_and_its_commented_values_hold():
    (tour,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    ns: dict = {}
    exec(compile(tour, "README.md", "exec"), ns)
    assert ns["report"].count == 85
    assert (ns["h"].balanced, ns["h"].has_perfect_matching) == (True, False)
    assert nimcolor.verify_layout(ns["layout"]).ok is True
    commented = re.findall(r"^(\S.*?)\s+# (\d+)\b", tour, re.M)
    assert ("nc.p2k_expected_nim(13, 2)", "39") in commented
    for expr, value in commented:
        assert eval(expr, ns) == int(value), expr


def _run(capsys, line):
    """Exit code and JSON output (None for a table) of one `nimcolor ...` line."""
    code = cli.main(shlex.split(line)[1:])
    out = capsys.readouterr().out
    return code, json.loads(out) if out.startswith("{") else None


def test_cli_block_runs_and_its_commented_values_hold(tmp_path, monkeypatch, capsys):
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^## CLI\n.*?```\n(.*?)```", text, re.S | re.M).group(1)
    lines = [line.partition("  #") for line in block.splitlines()]
    assert [command.split()[1] for command, _, _ in lines] == [
        "pattern", "construct", "verify", "turan", "search", "report"]
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("NIMCOLOR_LEDGER", str(tmp_path / "ledger.jsonl"))
    stated = {}
    for command, _, comment in lines:
        code, out = _run(capsys, command)
        assert code == 0, command
        for key, value in re.findall(r'(count|value)"?:? (\d+)', comment):
            assert out[key] == int(value), command
            stated[key] = int(value)
    assert stated == {"count": 39, "value": 12}


def test_computed_values_hold(tmp_path, monkeypatch, capsys):
    found = re.findall(
        r"^- f\((\d+), (\d+), `([^`]+)`\) = (\d+): `(nimcolor search [^`]+)`",
        README.read_text(encoding="utf-8"), re.M)
    assert len(found) == 7
    monkeypatch.setenv("NIMCOLOR_LEDGER", str(tmp_path / "ledger.jsonl"))
    for n, k, pattern, value, command in found:
        code, out = _run(capsys, command)
        assert code == 0, command
        assert (out["n"], out["k"], out["pattern"], out["exhaustive"]) == (int(n), int(k), pattern, True)
        assert out["best_count"] == int(value), command


def test_p2k_tree_counts_hold(tmp_path, monkeypatch, capsys):
    found = re.findall(
        r"^\| `([^`]+)` \| (yes|no) \| (\d+) \| (\d+) \| (\d+) \| `(nimcolor construct [^`]+)`, then `(nimcolor verify [^`]+)` \|$",
        README.read_text(encoding="utf-8"), re.M)
    assert [row[0] for row in found] == ["spider:2,2,1", "spider:4,2,1", "spider:3,2,2", "spider:2,2,2,1", "dstar:3"]
    monkeypatch.chdir(tmp_path)
    for pattern, matching, k, n, value, construct, verify in found:
        assert construct == f"nimcolor construct --family p2k --k {k} --n {n} -o c.json"
        assert verify == f"nimcolor verify --coloring c.json --pattern {pattern}"
        assert nimcolor.parse_pattern(pattern).has_perfect_matching == (matching == "yes")
        assert _run(capsys, construct)[0] == 0
        code, out = _run(capsys, verify)
        assert (code, out["count"]) == (0, int(value)), verify
        expected = nimcolor.p2k_expected_nim(int(n), int(k))
        assert out["count"] == expected if matching == "yes" else out["count"] < expected


def test_all_lists_every_public_name_and_no_submodule():
    public = {name for name in vars(nimcolor) if not name.startswith("_")}
    submodules = {"cli", "constructions", "errors", "graphs", "nim", "patterns", "search", "turan"}
    assert len(nimcolor.__all__) == len(set(nimcolor.__all__))
    assert set(nimcolor.__all__) == public - submodules
