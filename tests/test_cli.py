import argparse
import builtins
import hashlib
import io
import json
import os
import re
from dataclasses import fields

import pytest

import nimcolor.graphs
import nimcolor.turan
from nimcolor.cli import _append_ledger, _parse_args, build_parser, main, read_ledger
from nimcolor.constructions import build_p2k_layout, p2k_multicoloring, tail_forest_coloring, verify_layout
from nimcolor.graphs import EdgeColoring
from nimcolor.nim import nim_edges
from nimcolor.patterns import make_path, make_star
from nimcolor.search import DEFAULT_NODE_BUDGET, exhaustive_f
from nimcolor.turan import ex_path, turan_oracle


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# the file a refusal names: verify and report read it, construct and search must not write it
FILE_FLAG = {"construct": "-o", "verify": "--coloring", "search": "--ledger", "report": "--ledger"}


@pytest.fixture
def refuse(capsys, tmp_path, monkeypatch):
    """A refused run: exit 1, no stdout, one `error: message` line, and no file written."""
    monkeypatch.chdir(tmp_path)

    def check(command, flags, message, body=None):
        if body is not None:
            (tmp_path / "file").write_text(body)
        file = [FILE_FLAG[command], "file"] if command in FILE_FLAG else []
        assert run(capsys, command, *flags.split(), *file) == (1, "", f"error: {message}\n")
        assert os.listdir() == ([] if body is None else ["file"])

    return check


# a search record; a malformed line goes between two, so the torn-last-line rule does not apply
RESULT = {"n": 4, "k": 2, "pattern": "path:3", "best_count": 2, "exhaustive": True}
RECORD = json.dumps({"command": "search", "result": RESULT}) + "\n"

# each command's refusals: its flags, the one stderr line after "error: ",
# and for verify and report the file's body
REFUSALS = {
    "pattern": [
        ("--pattern path:100000000", "pattern integers sum to 100000000, over the limit of 4096 (at position 0)"),
        ("--pattern blob:3", "unknown family 'blob' (at position 0)"),
        ("--pattern spider:", "spider needs at least one length (at position 0)"),
        ("--pattern path:3,4", "path takes 1 argument(s), got 2 (at position 0)"),
        ("--pattern path:0", "path needs at least one vertex (at position 0)"),
        ("--pattern star:-1", "leaf count must be >= 0 (at position 0)"),
        ("--pattern dbroom:2,0,1", "leaf counts must be >= 1 (at position 0)"),
    ],
    "construct": [
        ("--family p2k --n 13", "p2k needs --k"),
        ("--family tail --a 1 --n 10", "a must be >= 2"),
        ("--family p2k --n 13 --k 1", "k must be >= 2"),
        ("--family overlay --pattern path:4 --n -3 --t 0", "n must be >= 0, got -3"),
        ("--n 10 --family p2k --k 2 --a 3", "--a is for --family tail; --family p2k does not use it"),
        ("--n 10 --family p2k --k 2 --pattern path:9", "--pattern is for --family overlay; --family p2k does not use it"),
        ("--n 10 --family p2k --k 2 --t 4", "--t is for --family overlay; --family p2k does not use it"),
        ("--n 10 --family tail --a 3 --k 7", "--k is for --family p2k; --family tail does not use it"),
        ("--n 10 --family tail --a 3 --pattern path:4", "--pattern is for --family overlay; --family tail does not use it"),
        ("--n 10 --family overlay --pattern path:4 --k 2", "--k is for --family p2k; --family overlay does not use it"),
        ("--n 10 --family overlay --pattern path:4 --a 3", "--a is for --family tail; --family overlay does not use it"),
    ],
    "verify": [
        ("--pattern path:4", "colors length 77 != 78", json.dumps({"n": 13, "k": 2, "colors": [0] * 77})),
        ("--pattern path:3", "color 5 at edge 1 not in 0..1", '{"n": 3, "k": 2, "colors": [0, 5, 1]}'),
        ("--pattern path:3", "color 2 at edge 0 not in 0..1", '{"n": 3, "k": 2, "colors": [2, 0, 0]}'),
        ("--pattern path:3", "color -1 at edge 1 not in 0..1", '{"n": 3, "k": 2, "colors": [0, -1, 0]}'),
        ("--pattern path:3", "color 1.0 at edge 1 is not an integer", '{"n": 3, "k": 2, "colors": [0, 1.0, 0]}'),
        ("--pattern path:3", "color 1.5 at edge 1 is not an integer", '{"n": 3, "k": 2, "colors": [0, 1.5, 0]}'),
        ("--pattern path:3", "color '1' at edge 1 is not an integer", '{"n": 3, "k": 2, "colors": [0, "1", 0]}'),
        ("--pattern path:3", "color True at edge 1 is not an integer", '{"n": 3, "k": 2, "colors": [0, true, 0]}'),
        ("--pattern path:3", "coloring field 'n' must be >= 0, got -1", '{"n": -1, "k": 2, "colors": []}'),
        ("--pattern path:3", "coloring field 'n' must be an integer, got 3.0", '{"n": 3.0, "k": 2, "colors": [0, 1, 0]}'),
        ("--pattern path:3", "coloring field 'k' must be an integer, got '2'", '{"n": 3, "k": "2", "colors": [0, 1, 0]}'),
        ("--pattern path:3", "coloring field 'colors' must be a list", '{"n": 3, "k": 2, "colors": "010"}'),
        ("--pattern path:3", "coloring JSON must be an object", "[0, 1, 0]"),
        # no flag lifts the limit, so no max_pattern= keyword is named
        ("--pattern path:17", "NIM count limited to pattern order <= 16, got 17", '{"n": 3, "k": 1, "colors": [0, 0, 0]}'),
    ],
    "turan": [
        ("--pattern star:3 --n 6 --method formula", "no Turan value available for star:3 at n=6"),
        # no flag lifts the oracle's limits, so no max_n= or max_pattern= keyword is named
        ("--method oracle --n 11 --pattern path:3", "oracle limited to n <= 10, got 11"),
        ("--method oracle --n 6 --pattern path:13", "oracle limited to pattern order <= 12, got 13"),
        ("--n -1 --pattern star:3", "n must be >= 0, got -1"),
    ],
    "search": [
        ("--pattern path:3 --n -1 --k 2 --mode exhaustive", "n must be >= 0, got -1"),
        ("--pattern path:3 --n -1 --k 2 --mode hill", "n must be >= 0, got -1"),
        ("--pattern path:3 --n 4 --k 0", "k must be >= 1"),
        ("--pattern path:1 --n 3 --k 2 --mode exhaustive", "pattern needs at least 2 vertices"),
        ("--pattern path:1 --n 3 --k 2 --mode hill", "pattern needs at least 2 vertices"),
        ("--pattern path:4 --n 8 --k 2 --budget 100", "exhaustive search passed its budget of 100 nodes"),
        ("--pattern path:3 --n 4 --k 2 --mode exhaustive --budget 0", "--budget must be >= 1, got 0"),
        ("--pattern path:3 --n 4 --k 2 --mode exhaustive --budget -5", "--budget must be >= 1, got -5"),
        ("--pattern path:3 --n 4 --k 2 --mode exhaustive --restarts 0", "--restarts must be >= 1, got 0"),
        ("--pattern path:3 --n 4 --k 2 --mode exhaustive --iterations -5", "--iterations must be >= 0, got -5"),
        ("--pattern path:3 --n 5 --k 3 --mode exhaustive --seed-construction p2k",
         "--seed-construction seeds --mode hill only; exhaustive search takes no seed"),
        ("--pattern path:3 --n 5 --k 2 --mode hill --iterations -1", "--iterations must be >= 0, got -1"),
        ("--pattern path:3 --n 5 --k 2 --mode hill --restarts 0", "--restarts must be >= 1, got 0"),
        ("--pattern path:3 --n 5 --k 2 --mode hill --budget 1000",
         "--budget bounds --mode exhaustive only; hill climbing takes no budget"),
        *((f"--pattern path:4 --n 6 --k 2 --construction-k 3 --iterations 0 --mode {mode}",
           "--construction-k sizes the p2k seed; it needs --seed-construction p2k")
          for mode in ("exhaustive", "hill", "hill --seed-construction overlay")),
        *((f"--pattern path:4 --n 12 --k 2 --mode hill --seed-construction p2k --construction-k {size}",
           f"--construction-k must be >= 2, got {size}") for size in (0, 1)),
        ("--pattern path:4 --n 13 --k 5 --mode hill --seed-construction p2k --iterations 0",
         "p2k seeding needs an even --k (or an explicit --construction-k)"),
        ("--pattern path:4 --n 13 --k 3 --mode hill --iterations 0 --seed-construction p2k --construction-k 2",
         "--k 3 is fewer than the 4 colors of the p2k seed"),
        ("--pattern dstar:3+path:6 --n 17 --k 1 --mode hill --iterations 0 --seed-construction tail",
         "--k 1 is fewer than the 2 colors of the tail seed"),
        ("--pattern path:3+path:3 --n 10 --k 2 --mode hill --seed-construction tail", "pattern order must be 4a"),
        ("--pattern star:3+star:3 --n 10 --k 2 --mode hill --seed-construction tail", "pattern must be a balanced forest"),
        ("--pattern path:4 --n 17 --k 2 --mode hill --seed-construction tail",
         "pattern must have exactly two components, got 1"),
        ("--pattern star:3 --n 9 --k 2 --mode hill --seed-construction overlay",
         "overlay construction is wired for path patterns; use the library API otherwise"),
    ],
    "report": [
        ("", "file: line 2: ledger record is not a JSON object", f"{RECORD}[1, 2]\n{RECORD}"),
        *(("", f"file: line 2: {message}", RECORD + json.dumps({"command": "search", "result": result}) + "\n" + RECORD)
          for result, message in [
              ({"n": 4, "k": 2}, "search record has no valid result.pattern"),
              ({**RESULT, "n": True, "best_count": True}, "search record has no valid result.n"),
              ({**RESULT, "pattern": "bogus"}, "expected 'family:args', got 'bogus' (at position 0)"),
              ({**RESULT, "n": -3}, "n must be >= 0, got -3"),
              ({**RESULT, "k": 0}, "result.k must be >= 1, got 0"),
              ({**RESULT, "best_count": -1}, "result.best_count must be >= 0, got -1"),
          ]),
        # a torn record before the last is an error, not a skipped line
        ("", "file: Expecting property name enclosed in double quotes: line 2 column 41 (char 148)",
         f"{RECORD}{RECORD[:40]}\n{RECORD}"),
    ],
}
ROWS = [(command, row) for command, rows in REFUSALS.items() for row in rows]


@pytest.mark.parametrize("command, row", ROWS, ids=[f"{command}: {row[1]}" for command, row in ROWS])
def test_refusal(refuse, command, row):
    refuse(command, *row)


class TestPatternCommand:
    def test_pretty_print(self, capsys):
        code, out, _ = run(capsys, "pattern", "--pattern", "dstar:3+path:6")
        assert code == 0
        payload = json.loads(out)
        assert payload["vertices"] == 12
        assert payload["balanced"] is True
        assert payload["has_perfect_matching"] is False



class TestConstructVerifyPipeline:
    def test_p2k_end_to_end(self, capsys, tmp_path):
        target = tmp_path / "c.json"
        code, out, _ = run(
            capsys, "construct", "--family", "p2k", "--k", "2", "--n", "13", "-o", str(target)
        )
        assert code == 0
        sidecar = json.loads((tmp_path / "c.json.layout.json").read_text())
        assert sidecar["verify"]["ok"] is True

        code, out, _ = run(capsys, "verify", "--coloring", str(target), "--pattern", "path:4")
        assert code == 0
        report = json.loads(out)
        assert report["count"] == 39
        assert report["nim_edges"] == sorted(report["nim_edges"])

        # byte-identical on replay
        code, out2, _ = run(capsys, "verify", "--coloring", str(target), "--pattern", "path:4")
        assert out == out2

    def test_layout_sidecar_bytes(self, capsys, tmp_path):
        # the sidecar is one json.dumps call: the bytes json.dump streamed
        # to the file before, pinned by digest, with one trailing newline
        target = tmp_path / "c.json"
        assert run(capsys, "construct", "--family", "p2k", "--k", "2", "--n", "13", "-o", str(target))[0] == 0
        written = (tmp_path / "c.json.layout.json").read_bytes()
        streamed = io.StringIO()
        json.dump(json.loads(written), streamed, sort_keys=True)
        assert written == streamed.getvalue().encode() + b"\n"
        digest = "d3b44878f770e72cbbe043a71d83ce8aaf004660b542cee311a3129d68781467"
        assert hashlib.sha256(written).hexdigest() == digest

    @pytest.mark.parametrize(
        "flags, pattern, digests",
        [
            # sha256 of the coloring file, its layout sidecar (None: not
            # written) and verify's stdout
            ("--family p2k --k 2 --n 13", "path:4", (
                "b6db0dcc65671d012a0927947d9205321bc1916e490e7c65329d334a1ae3a415",
                "d3b44878f770e72cbbe043a71d83ce8aaf004660b542cee311a3129d68781467",
                "f0daee603b4ed36973df32fba03a300dc13ee0cb6e71771c68bfbcc8656bdee7")),
            ("--family p2k --k 3 --n 27", "path:6", (
                "173e6d0eea0c11d0d70d903e5c2c1789af5fcb164eb7493ac9a7065978657ff1",
                "72a11737bef0527370a5b469f6189983176502629c608d4a5dbbeae1078b21bd",
                "73ee14476ff87aac7ce6bea077b4dc2280c13638d3bf2d42d2649739a7860205")),
            ("--family p2k --k 4 --n 52", "path:8", (
                "3860f81fcb29f7149c12a0645914030737644e929402ad27cab1660f43862210",
                "6754e580fffc6fc1648a20bae353672998d9496e9cfac270212391df6a6e4812",
                "2e1f4aa9dabcc35533a670d09d50f8cbc02e16b68031631b397c09132abf3d19")),
            ("--family tail --a 3 --n 20", "dstar:3+path:6", (
                "3426a167e2862ac9f983a89f45593d2e4f19366534b865752b35656c123a891e",
                None,
                "ede16db26fd536511bf815f2e79e816473351a8be9519e0423d0194491605764")),
            ("--family overlay --pattern path:4 --n 13", "path:4", (
                "e52ad822ded9edd59383fb3008636e607f7ad5adf7896ce3fe76a4027ea2c1c4",
                None,
                "631c2c34e9b78bbb86044c1ff5060c066322819870dd3205b906193b6d4a2f07")),
            ("--family overlay --pattern path:6 --n 30", "path:6", (
                "7bf1324a2d17adbf01108ec06c54b36fcac9f27e09006253466f4e04993423d2",
                None,
                "69131ece279402f11a363c527c4bf7055a4d30e2b0d74190ee36d4785f6eafb0")),
        ],
    )
    def test_construct_verify_golden_output(self, capsys, tmp_path, flags, pattern, digests):
        target = tmp_path / "c.json"
        sidecar = tmp_path / "c.json.layout.json"
        assert run(capsys, "construct", *flags.split(), "-o", str(target))[0] == 0
        code, out, _ = run(capsys, "verify", "--coloring", str(target), "--pattern", pattern)
        assert code == 0
        sha = lambda data: hashlib.sha256(data).hexdigest()
        written = (sha(target.read_bytes()), sha(sidecar.read_bytes()) if sidecar.exists() else None, sha(out.encode()))
        assert written == digests

    def test_construct_to_stdout(self, capsys):
        code, out, _ = run(capsys, "construct", "--family", "tail", "--a", "3", "--n", "20")
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == 20 and payload["k"] == 2
        assert len(payload["colors"]) == 190

    @pytest.mark.parametrize(
        "flags, digest",
        [
            # sha256 of construct's stdout when no -o is given: the coloring's fields
            ("--family p2k --k 2 --n 13", "200049ebd2b9e97a6145f468195c03424019644a5ea4d8191ec8a6bfbf906d76"),
            ("--family tail --a 3 --n 20", "1c94008f806da3d1b4865f4495afc122c9b5d628f6d7f355c8cb9a4403a61199"),
            ("--family overlay --pattern path:4 --n 13", "c7c2ff13483de47e508780132a3e072c265f6381732ea79cf729cd68f07aa717"),
        ],
    )
    def test_construct_stdout_golden_output(self, capsys, flags, digest):
        code, out, _ = run(capsys, "construct", *flags.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_overlay_construct(self, capsys, tmp_path):
        target = tmp_path / "o.json"
        code, _, _ = run(
            capsys,
            "construct", "--family", "overlay", "--pattern", "path:4", "--n", "7",
            "--t", "0", "-o", str(target),
        )
        assert code == 0
        code, out, _ = run(capsys, "verify", "--coloring", str(target), "--pattern", "path:4")
        assert json.loads(out)["count"] >= 6

    def test_a_shorter_construct_overwrites_with_no_stale_tail(self, capsys, tmp_path):
        target = tmp_path / "c.json"
        sidecar = tmp_path / "c.json.layout.json"
        construct = ("construct", "--family", "p2k", "--k", "2", "-o", str(target), "--n")
        assert run(capsys, *construct, "64")[0] == 0
        inodes = (target.stat().st_ino, sidecar.stat().st_ino)
        assert run(capsys, *construct, "10")[0] == 0
        coloring, layout = p2k_multicoloring(10, 2)
        payload = layout.to_dict()
        payload["verify"] = verify_layout(layout).to_dict()
        assert target.read_text(encoding="utf-8") == json.dumps(coloring.to_dict()) + "\n"
        assert sidecar.read_text(encoding="utf-8") == json.dumps(payload, sort_keys=True) + "\n"
        assert (target.stat().st_ino, sidecar.stat().st_ino) == inodes

    def test_construct_to_dev_null(self, capsys):
        # /dev/null refuses ftruncate, so only a regular file's tail is cut
        code, out, err = run(capsys, "construct", "--family", "tail", "--a", "3", "--n", "20", "-o", os.devnull)
        assert (code, json.loads(out), err) == (0, {"written": os.devnull, "n": 20, "k": 2}, "")

    def test_construct_writes_no_sidecar_beside_dev_null(self, capsys, tmp_path):
        link = tmp_path / "out.json"
        link.symlink_to(os.devnull)
        code, out, err = run(capsys, "construct", "--family", "p2k", "--k", "2", "--n", "13", "-o", str(link))
        assert (code, json.loads(out), err) == (0, {"written": str(link), "n": 13, "k": 4}, "")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.json"]

    def test_construct_writes_through_a_symlink(self, capsys, tmp_path):
        real, link = tmp_path / "real.json", tmp_path / "link.json"
        real.write_text("x" * 10000)
        link.symlink_to(real)
        assert run(capsys, "construct", "--family", "tail", "--a", "3", "--n", "20", "-o", str(link))[0] == 0
        assert link.is_symlink()
        assert real.read_text(encoding="utf-8") == json.dumps(tail_forest_coloring(20, 3).to_dict()) + "\n"

    def test_construct_to_a_directory_is_an_error(self, capsys, tmp_path):
        code, out, err = run(capsys, "construct", "--family", "tail", "--a", "3", "--n", "20", "-o", str(tmp_path))
        assert (code, out, err) == (1, "", f"error: [Errno 21] Is a directory: '{tmp_path}'\n")

    def test_outputs_are_never_opened_truncating(self, capsys, tmp_path, monkeypatch):
        # truncating to zero and closing makes ext4 start writeback on close
        opened = []
        os_open, io_open = os.open, builtins.open

        def spy_os_open(path, flags, *rest, **kw):
            opened.append((os.fspath(path), "O_TRUNC" if flags & os.O_TRUNC else "in place"))
            return os_open(path, flags, *rest, **kw)

        def spy_open(file, mode="r", *rest, **kw):
            opened.append((os.fspath(file), mode))
            return io_open(file, mode, *rest, **kw)

        monkeypatch.setattr(os, "open", spy_os_open)
        monkeypatch.setattr(builtins, "open", spy_open)
        target = tmp_path / "c.json"
        for _ in range(2):  # create, then overwrite
            assert run(capsys, "construct", "--family", "p2k", "--k", "2", "--n", "13", "-o", str(target))[0] == 0
        outputs = (str(target), str(target) + ".layout.json")
        assert [entry for entry in opened if entry[0] in outputs] == [(path, "in place") for path in outputs] * 2

    def test_verify_takes_the_size_of_its_file(self, capsys, tmp_path):
        mono = tmp_path / "mono.json"
        mono.write_text(json.dumps({"n": 70, "k": 1, "colors": [0] * (70 * 69 // 2)}))
        code, out, err = run(capsys, "verify", "--coloring", str(mono), "--pattern", "path:3")
        assert code == 0, err
        assert json.loads(out)["count"] == 0

    @pytest.mark.parametrize("family", ["p2k --k 2", "tail --a 3", "overlay --pattern path:4"])
    def test_construct_refuses_an_oversized_n(self, refuse, monkeypatch, family):
        # refused before any family builds its C(n, 2) colors
        monkeypatch.setattr("nimcolor.cli.p2k_multicoloring", None)
        monkeypatch.setattr("nimcolor.cli.tail_forest_coloring", None)
        monkeypatch.setattr("nimcolor.cli.extremal_path_graph", None)
        refuse("construct", f"--n 1000000 --family {family}", "construct limited to n <= 4096, got 1000000")



class TestTuranCommand:
    def test_formula(self, capsys):
        code, out, _ = run(capsys, "turan", "--pattern", "path:4", "--n", "13")
        payload = json.loads(out)
        assert code == 0
        assert payload["value"] == 12
        assert payload["method"] == "faudree_schelp"

    def test_oracle(self, capsys):
        code, out, _ = run(capsys, "turan", "--pattern", "star:3", "--n", "6", "--method", "oracle")
        assert json.loads(out)["value"] == 6

    @pytest.mark.parametrize(
        "flags, digest",
        [
            # sha256 of stdout: a formula, an oracle value with its witness_edges,
            # and a below_threshold bound
            ("--pattern path:4 --n 13", "049c8b7bb2e504e55b649c861ec175d8cdce3b1389b9ea594f0252ca845a4597"),
            ("--pattern spider:2,2,1 --n 8 --method oracle",
             "58e40e8c3d631781e37f168669d07c6ec7c62c25c62c426c273b5d020a2ef3f2"),
            ("--pattern dstar:3+path:6 --n 20", "43db21d78d0c28fcd00684003167349f7c5742894644d6543d3b349d2f517218"),
        ],
    )
    def test_turan_golden_output(self, capsys, flags, digest):
        code, out, _ = run(capsys, "turan", *flags.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest



class TestSearchAndReport:
    def test_search_appends_ledger_and_report_sums(self, capsys, tmp_path):
        ledger = tmp_path / "ledger.jsonl"
        for n in (4, 5):
            code, out, _ = run(
                capsys,
                "search", "--pattern", "path:3", "--n", str(n), "--k", "2",
                "--mode", "exhaustive", "--ledger", str(ledger),
            )
            assert code == 0
            assert json.loads(out)["best_count"] == 2

        records = [record for _, record in read_ledger(str(ledger))]
        assert len(records) == 2
        assert all(r["command"] == "search" for r in records)
        assert all("parameters" in r and "version" in r for r in records)

        code, out, _ = run(capsys, "report", "--format", "json", "--ledger", str(ledger))
        payload = json.loads(out)
        assert payload["totals"]["rows"] == 2
        assert payload["totals"]["best_sum"] == sum(r["best"] for r in payload["rows"]) == 4
        assert payload["totals"]["gap_sum"] == 0

    def test_ledger_parameters_replay_the_run(self, capsys, tmp_path):
        first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
        code, _, err = run(
            capsys,
            "search", "--pattern", "path:4", "--n", "13", "--k", "5",
            "--mode", "hill", "--seed-construction", "p2k", "--construction-k", "2",
            "--iterations", "1", "--ledger", str(first),
        )
        assert code == 0, err
        ((_, record),) = read_ledger(str(first))
        argv = ["search", "--ledger", str(second)]
        for key, value in record["parameters"].items():
            if value is not None:
                argv += ["--" + key.replace("_", "-"), str(value)]
        code, _, err = run(capsys, *argv)
        assert code == 0, err
        ((_, replay),) = read_ledger(str(second))
        assert replay["parameters"] == record["parameters"]
        for field in ("best_count", "witness"):
            assert replay["result"][field] == record["result"][field]

    @pytest.mark.parametrize(
        "flags, digests",
        [
            # sha256 of stdout and of the ledger line, with the elapsed time and
            # the timestamp blanked; the ledger line records the default node budget, 2^22
            ("--pattern path:4 --n 6 --k 2", (
                "54680891548f569188d62617e057a5240eb93596c4dee37719fe0a8cb4ab3cfc",
                "7e0765fa246a34a61e3e23db39cd4a46c339e8c4b1885b93dbfaa28c742161d4")),
            ("--pattern path:4 --n 13 --k 4 --mode hill --seed-construction p2k --iterations 3", (
                "eef2327b1e5025d8333a39fea80f3e687c009d74fb6a69275abeded59e619523",
                "d9cc3d68a806a73dc56d144136129d26510cda82f0b40fce06a6f8e3141e0794")),
        ],
    )
    def test_search_golden_output(self, capsys, tmp_path, flags, digests):
        ledger = tmp_path / "ledger.jsonl"
        code, out, _ = run(capsys, "search", *flags.split(), "--ledger", str(ledger))
        assert code == 0
        blank = lambda text: re.sub(
            r'"timestamp": "[^"]*"', '"timestamp": ""', re.sub(r'"elapsed": [-+.e0-9]+', '"elapsed": 0', text)
        )
        sha = lambda text: hashlib.sha256(blank(text).encode()).hexdigest()
        assert (sha(out), sha(ledger.read_text())) == digests

    def test_report_computes_each_turan_value_once(self, capsys, tmp_path, monkeypatch):
        ledger = tmp_path / "ledger.jsonl"
        for _ in range(2):
            run(
                capsys,
                "search", "--pattern", "star:3", "--n", "5", "--k", "2",
                "--mode", "exhaustive", "--ledger", str(ledger),
            )
        calls = []
        real_oracle = nimcolor.turan.turan_oracle

        def counting_oracle(*args, **kwargs):
            calls.append(args)
            return real_oracle(*args, **kwargs)

        monkeypatch.setattr(nimcolor.turan, "turan_oracle", counting_oracle)
        code, out, _ = run(capsys, "report", "--format", "json", "--ledger", str(ledger))
        assert code == 0
        assert len(calls) == 1
        rows = json.loads(out)["rows"]
        assert len(rows) == 2 and rows[0]["ex"] == rows[1]["ex"] == 5

    def test_report_csv_totals(self, capsys, tmp_path):
        ledger = tmp_path / "ledger.jsonl"
        run(
            capsys,
            "search", "--pattern", "path:3", "--n", "4", "--k", "2",
            "--mode", "exhaustive", "--ledger", str(ledger),
        )
        code, out, _ = run(capsys, "report", "--format", "csv", "--ledger", str(ledger))
        lines = out.strip().splitlines()
        assert lines[0].startswith("timestamp,")
        assert lines[-1].startswith("totals,")

    def test_report_survives_a_torn_last_record(self, capsys, tmp_path):
        ledger = tmp_path / "ledger.jsonl"
        for n in (4, 5, 6):
            run(
                capsys,
                "search", "--pattern", "path:3", "--n", str(n), "--k", "2",
                "--mode", "exhaustive", "--ledger", str(ledger),
            )
        *complete, last = ledger.read_text().splitlines()
        cut = last.index('"pattern": "') + len('"pattern": "pa')  # mid-string
        ledger.write_text("\n".join(complete + [last[:cut]]))

        code, out, err = run(capsys, "report", "--format", "json", "--ledger", str(ledger))
        assert code == 0
        assert [r["n"] for r in json.loads(out)["rows"]] == [4, 5]
        assert "torn last record" in err

    def test_a_search_after_a_torn_last_record_starts_a_new_line(self, capsys, tmp_path):
        ledger = tmp_path / "ledger.jsonl"
        for n in (4, 5, 6):
            run(
                capsys,
                "search", "--pattern", "path:3", "--n", str(n), "--k", "2",
                "--mode", "exhaustive", "--ledger", str(ledger),
            )
        *complete, last = ledger.read_text().splitlines()
        cut = last.index('"pattern": "') + len('"pattern": "pa')  # mid-string, no newline
        ledger.write_text("\n".join(complete + [last[:cut]]))
        code, out, _ = run(
            capsys,
            "search", "--pattern", "path:3", "--n", "7", "--k", "2",
            "--mode", "exhaustive", "--ledger", str(ledger),
        )
        assert code == 0
        *_, torn, appended = ledger.read_text().splitlines()
        assert torn == last[:cut]
        assert json.loads(appended)["result"] == json.loads(out)
        # the torn record is no longer last, so it is an error naming its line
        code, _, err = run(capsys, "report", "--ledger", str(ledger))
        assert code == 1
        assert f"{ledger}: Unterminated string starting at: line 3 column " in err

    def test_report_table_marks_an_unavailable_ex(self, capsys, tmp_path):
        ledger = tmp_path / "ledger.jsonl"
        searches = [
            ("path:3", "4", "exhaustive"),
            ("star:3", "11", "hill"),  # no formula, and n = 11 is past the oracle
        ]
        for pattern, n, mode in searches:
            code, _, err = run(
                capsys,
                "search", "--pattern", pattern, "--n", n, "--k", "2", "--mode", mode,
                "--iterations", "0", "--ledger", str(ledger),
            )
            assert code == 0, err
        code, out, _ = run(capsys, "report", "--ledger", str(ledger))
        assert code == 0
        header, path_row, star_row, totals = out.splitlines()
        assert header.split() == ["pattern", "n", "k", "best", "ex", "gap"]
        assert path_row.split() == ["path:3", "4", "2", "2", "2", "0"]
        assert star_row.split()[:2] == ["star:3", "11"] and star_row.split()[-2:] == ["-", "-"]
        assert totals.startswith("rows=2 ") and totals.endswith(" gap_sum=0")

    # a hand-written ledger: a non-search record (skipped), an unavailable ex
    # (star:3 past the oracle), the p2k hill row and a k = 3 row
    GOLDEN_LEDGER = "".join(
        json.dumps(record, sort_keys=True) + "\n"
        for record in [
            {"command": "search", "timestamp": "2026-01-05T10:00:00+00:00",
             "result": {"n": 4, "k": 2, "pattern": "path:3", "best_count": 2, "exhaustive": True}},
            {"command": "verify", "timestamp": "2026-01-05T10:01:00+00:00", "result": {"count": 39}},
            {"command": "search", "timestamp": "2026-01-05T10:02:00+00:00",
             "result": {"n": 11, "k": 2, "pattern": "star:3", "best_count": 0, "exhaustive": False}},
            {"command": "search", "timestamp": "2026-01-05T10:03:00+00:00",
             "result": {"n": 13, "k": 4, "pattern": "path:4", "best_count": 39, "exhaustive": False}},
            {"command": "search", "timestamp": "2026-01-05T10:04:00+00:00",
             "result": {"n": 5, "k": 3, "pattern": "path:3", "best_count": 4, "exhaustive": True}},
        ]
    )
    GOLDEN_REPORT = {
        "table": (
            "pattern                  n  k  best    ex  gap\n"
            "path:3                   4  2     2     2    0\n"
            "star:3                  11  2     0     -    -\n"
            "path:4                  13  4    39    12    3\n"
            "path:3                   5  3     4     2    0\n"
            "rows=4 best_sum=45 gap_sum=3\n"
        ),
        "csv": (
            "timestamp,pattern,n,k,best,ex,gap,exhaustive\n"
            "2026-01-05T10:00:00+00:00,path:3,4,2,2,2,0,True\n"
            "2026-01-05T10:02:00+00:00,star:3,11,2,0,None,None,False\n"
            "2026-01-05T10:03:00+00:00,path:4,13,4,39,12,3,False\n"
            "2026-01-05T10:04:00+00:00,path:3,5,3,4,2,0,True\n"
            "totals,,,,45,,3,4\n"
        ),
        "json": (
            '{"rows": ['
            '{"best": 2, "ex": 2, "exhaustive": true, "gap": 0, "k": 2, "n": 4, '
            '"pattern": "path:3", "timestamp": "2026-01-05T10:00:00+00:00"}, '
            '{"best": 0, "ex": null, "exhaustive": false, "gap": null, "k": 2, "n": 11, '
            '"pattern": "star:3", "timestamp": "2026-01-05T10:02:00+00:00"}, '
            '{"best": 39, "ex": 12, "exhaustive": false, "gap": 3, "k": 4, "n": 13, '
            '"pattern": "path:4", "timestamp": "2026-01-05T10:03:00+00:00"}, '
            '{"best": 4, "ex": 2, "exhaustive": true, "gap": 0, "k": 3, "n": 5, '
            '"pattern": "path:3", "timestamp": "2026-01-05T10:04:00+00:00"}], '
            '"totals": {"best_sum": 45, "gap_sum": 3, "rows": 4}}\n'
        ),
    }

    @pytest.mark.parametrize("fmt", sorted(GOLDEN_REPORT))
    def test_report_golden_output(self, capsys, tmp_path, fmt):
        ledger = tmp_path / "ledger.jsonl"
        ledger.write_text(self.GOLDEN_LEDGER)
        code, out, err = run(capsys, "report", "--format", fmt, "--ledger", str(ledger))
        assert (code, err) == (0, "")
        assert out == self.GOLDEN_REPORT[fmt]

    def test_bad_line_before_the_last_still_raises(self, capsys, tmp_path):
        ledger = tmp_path / "ledger.jsonl"
        for n in (4, 5):
            run(
                capsys,
                "search", "--pattern", "path:3", "--n", str(n), "--k", "2",
                "--mode", "exhaustive", "--ledger", str(ledger),
            )
        first, second = ledger.read_text().splitlines()
        ledger.write_text(first[:40] + "\n" + second + "\n")
        with pytest.raises(json.JSONDecodeError, match=rf"^{re.escape(str(ledger))}: .*: line 1 column "):
            read_ledger(str(ledger))

    def test_two_appends_read_back_intact(self, tmp_path, monkeypatch):
        ledger = str(tmp_path / "ledger.jsonl")
        writes = []
        real_write = os.write

        def counting_write(fd, data):
            writes.append(data)
            return real_write(fd, data)

        monkeypatch.setattr(os, "write", counting_write)
        payloads = [{"best_count": 2, "note": "first"}, {"best_count": 3, "note": "ünïcode"}]
        written = [_append_ledger(ledger, "search", {"n": n}, p) for n, p in zip((4, 5), payloads)]
        # each record goes out whole in a single write, newline included
        assert [json.loads(w) for w in writes] == written
        assert all(w.endswith(b"\n") for w in writes)
        assert read_ledger(ledger) == [(1, written[0]), (2, written[1])]

    def test_env_var_ledger(self, capsys, tmp_path, monkeypatch):
        ledger = tmp_path / "env-ledger.jsonl"
        monkeypatch.setenv("NIMCOLOR_LEDGER", str(ledger))
        run(capsys, "search", "--pattern", "path:3", "--n", "4", "--k", "2")
        assert ledger.exists()

    def test_hill_mode_with_seed_construction(self, capsys, tmp_path):
        ledger = tmp_path / "ledger.jsonl"
        code, out, _ = run(
            capsys,
            "search", "--pattern", "path:4", "--n", "13", "--k", "4",
            "--mode", "hill", "--seed-construction", "p2k",
            "--iterations", "0", "--ledger", str(ledger),
        )
        assert code == 0
        assert json.loads(out)["best_count"] >= 39

    def test_hill_n_is_refused_before_the_seed_is_built(self, refuse, monkeypatch):
        def unbuilt(*args):
            raise AssertionError("a seed was built for an n the climber refuses")

        monkeypatch.setattr("nimcolor.cli._construction", unbuilt)
        flags = "--pattern path:4 --n 2000 --k 4 --mode hill --seed-construction p2k"
        refuse("search", flags, "hill climb limited to n <= 40, got 2000")

    @pytest.mark.parametrize("spec", ["path:2", "path:3", "star:4"])
    def test_a_star_on_no_vertex_scores_zero(self, capsys, tmp_path, spec):
        code, out, err = run(
            capsys, "search", "--pattern", spec, "--n", "0", "--k", "2", "--ledger", str(tmp_path / "l.jsonl")
        )
        assert (code, err) == (0, "")
        assert json.loads(out)["best_count"] == 0

    def test_ledger_records_the_budget_only_in_exhaustive_mode(self, capsys, tmp_path):
        # main reuses one parser, so an explicit budget must not carry over to the next call
        ledger = tmp_path / "l.jsonl"
        for flags in (["--mode", "exhaustive"], ["--mode", "exhaustive", "--budget", "4096"], ["--mode", "hill"]):
            code, _, err = run(
                capsys,
                "search", "--pattern", "path:3", "--n", "4", "--k", "2",
                "--iterations", "1", "--ledger", str(ledger), *flags,
            )
            assert code == 0, err
        assert [r["parameters"]["budget"] for _, r in read_ledger(str(ledger))] == [DEFAULT_NODE_BUDGET, 4096, None]

    @pytest.mark.parametrize(
        "pattern, n, k, flags, count",
        [
            ("dstar:3+path:6", 17, 2, ["tail"], 70),
            ("path:4", 13, 2, ["overlay"], 12),
            ("path:4", 13, 3, ["overlay"], 12),
            ("path:4", 13, 4, ["p2k"], 39),
        ],
        ids=["tail", "overlay-k2", "overlay-k3", "p2k"],
    )
    def test_a_seed_climbs_from_its_construction_count(self, capsys, tmp_path, pattern, n, k, flags, count):
        code, out, err = run(
            capsys,
            "search", "--pattern", pattern, "--n", str(n), "--k", str(k), "--mode", "hill",
            "--iterations", "0", "--ledger", str(tmp_path / "l.jsonl"), "--seed-construction", *flags,
        )
        assert code == 0, err
        assert json.loads(out)["best_count"] == count

    def test_depth_past_the_recursion_limit_is_refused(self, capsys, tmp_path):
        ledger = tmp_path / "l.jsonl"
        code, out, err = run(capsys, "search", "--pattern", "path:2", "--n", "46", "--k", "2", "--ledger", str(ledger))
        assert (code, out) == (1, "")
        assert err.startswith("error: exhaustive search limited to n <= ") and err.count("\n") == 1
        assert "by the recursion limit" in err and err.endswith(", got 46\n")
        assert not ledger.exists()


class TestNoPairTables:
    # class rows come from the byte-matrix pass and the families rank edges
    # by `edge_rank_offsets`, so construct and verify build no `all_pairs`
    # table; before, one bench verify round built 32 of them (1.78 MB)
    @pytest.mark.parametrize(
        "flags, pattern",
        [
            ("--family p2k --k 2 --n 40", "path:4"),
            ("--family tail --a 3 --n 40", "dstar:3+path:6"),
            ("--family overlay --pattern path:4 --n 40", "path:4"),
        ],
        ids=["p2k", "tail", "overlay"],
    )
    def test_construct_and_verify_build_no_pair_table(self, capsys, tmp_path, flags, pattern):
        target = tmp_path / "c.json"
        nimcolor.graphs.all_pairs.cache_clear()
        assert run(capsys, "construct", *flags.split(), "-o", str(target))[0] == 0
        code, out, _ = run(capsys, "verify", "--coloring", str(target), "--pattern", pattern)
        assert code == 0 and json.loads(out)["count"] > 0
        EdgeColoring.from_json(target.read_text()).permuted(list(range(40))[::-1])
        assert nimcolor.graphs.all_pairs.cache_info().currsize == 0


class TestResultDicts:
    # every result's JSON is its fields, held as they are, with at most one
    # field swapped for a derived key
    @pytest.mark.parametrize(
        "make, dropped, derived",
        [
            (lambda: nim_edges(EdgeColoring.monochromatic(5, 2), make_path(3)), None, None),
            (lambda: EdgeColoring.monochromatic(4), None, None),
            (lambda: verify_layout(build_p2k_layout(13, 2)), None, None),
            (lambda: build_p2k_layout(13, 2), None, "label_map"),
            (lambda: exhaustive_f(5, 2, make_path(3)), "witness", "witness"),
            (lambda: ex_path(13, 4), "witness", None),
            (lambda: turan_oracle(6, make_star(3)), "witness", "witness_edges"),
        ],
        ids=["nim", "coloring", "layout_report", "layout", "search", "turan_formula", "turan_oracle"],
    )
    def test_a_result_dict_is_its_fields(self, make, dropped, derived):
        result = make()
        payload = result.to_dict()
        kept = [f.name for f in fields(result) if f.name != dropped]
        assert sorted(payload) == sorted(kept + ([derived] if derived else []))
        assert all(payload[name] is getattr(result, name) for name in kept)


class TestUsage:
    def test_families_are_the_same_for_construct_and_seeds(self):
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))

        def choices(command, dest):
            return sorted(next(a.choices for a in sub.choices[command]._actions if a.dest == dest))

        assert choices("construct", "family") == choices("search", "seed_construction") == ["overlay", "p2k", "tail"]

    def test_unknown_command_exits_2(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_missing_required_flag_exits_2(self, capsys):
        assert main(["turan", "--n", "5"]) == 2

    def test_build_parser_returns_a_fresh_parser(self):
        assert build_parser() is not build_parser()

    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0


class TestDispatch:
    @pytest.mark.parametrize(
        "argv",
        [
            # each subcommand with its required flags only, then with every flag
            "pattern --pattern path:4",
            "construct --family p2k --n 13",
            "construct --family overlay --n 13 --k 2 --a 3 --t 2 --pattern path:4 -o c.json",
            "verify --coloring c.json --pattern path:4",
            "turan --pattern path:4 --n 13",
            "turan --pattern path:4 --n 13 --method oracle",
            "search --pattern path:3 --n 5 --k 2",
            "search --pattern path:3 --n 5 --k 4 --mode hill --seed 3 --iterations 4 --restarts 2"
            " --seed-construction p2k --construction-k 2 --budget 9 --ledger l.jsonl",
            "report",
            "report --format csv --ledger l.jsonl",
        ],
    )
    def test_a_subcommand_parses_as_the_full_parser_does(self, argv):
        assert vars(_parse_args(argv.split())) == vars(build_parser().parse_args(argv.split()))

    def test_a_subcommand_is_parsed_once(self, capsys, monkeypatch):
        calls = []
        parse_known_args = argparse.ArgumentParser.parse_known_args

        def spy(parser, *args, **kw):
            calls.append(parser.prog)
            return parse_known_args(parser, *args, **kw)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", spy)
        assert run(capsys, "pattern", "--pattern", "path:4")[0] == 0
        assert calls == ["nimcolor pattern"]

    def test_unrecognized_arguments_name_the_subcommand(self, capsys, tmp_path):
        code, out, err = run(capsys, "verify", "--coloring", str(tmp_path / "c.json"), "--pattern", "path:4", "--bogus")
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == "nimcolor verify: error: unrecognized arguments: --bogus"
