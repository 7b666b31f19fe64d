"""Command-line entry point.

Subcommands: construct | verify | turan | search | report | pattern.
Machine-first: every command prints JSON on stdout; human tables only via
`report --format table`.  Exit codes: 0 success, 1 computation error,
2 usage error.  Search results are appended to a JSONL ledger (one record
per line) whose path comes from --ledger or the NIMCOLOR_LEDGER
environment variable.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import json
import os
import stat
import sys
from typing import Optional

from . import __version__
from .constructions import (
    extremal_overlay,
    p2k_multicoloring,
    tail_coloring_for,
    tail_forest_coloring,
    verify_layout,
)
from .errors import ResourceLimitError, TuranUnavailableError
from .graphs import EdgeColoring
from .nim import nim_edges
from .patterns import PatternGraph, parse_pattern
from .search import DEFAULT_NODE_BUDGET, _hill_guard, exhaustive_f, hill_climb_f
from .turan import ex_path, extremal_path_graph, turan_oracle, turan_value

DEFAULT_LEDGER = "nimcolor-ledger.jsonl"


def _ledger_path(args) -> str:
    if getattr(args, "ledger", None):
        return args.ledger
    return os.environ.get("NIMCOLOR_LEDGER", DEFAULT_LEDGER)


def _append_ledger(path: str, command: str, parameters: dict, payload: dict) -> dict:
    record = {
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "command": command,
        "parameters": parameters,
        "result": payload,
        "version": __version__,
    }
    data = (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")
    # One write on an O_APPEND descriptor, so concurrent appends never interleave.
    fd = os.open(path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o666)
    try:
        size = os.fstat(fd).st_size
        if size and os.pread(fd, 1, size - 1) != b"\n":
            # a torn last record: start on a line of its own (racing writers
            # can at worst leave an empty line, which read_ledger skips)
            data = b"\n" + data
        written = os.write(fd, data)
    finally:
        os.close(fd)
    if written != len(data):
        raise OSError(f"short write to ledger {path}: {written} of {len(data)} bytes")
    return record


def read_ledger(path: str) -> list[tuple[int, dict]]:
    """Every record of a ledger, each with its line number in the file.

    A final line that does not parse is a record torn by an interrupted
    append: it is skipped with a warning on stderr.  A bad line anywhere
    else raises a json.JSONDecodeError that names the file and its line.
    """
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    lines, start = [], 0  # (line number, offset in text, line) of each non-blank line
    for no, line in enumerate(text.split("\n"), 1):
        if line.strip():
            lines.append((no, start, line))
        start += len(line) + 1
    records = []
    for i, (no, start, line) in enumerate(lines):
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            # the same error placed in the file, so it names the file's line
            err = json.JSONDecodeError(f"{path}: {exc.msg}", text, start + exc.pos)
            if i < len(lines) - 1:
                raise err from None
            print(f"warning: skipped a torn last record: {err}", file=sys.stderr)
            continue
        if not isinstance(record, dict):
            raise ValueError(f"{path}: line {no}: ledger record is not a JSON object")
        records.append((no, record))
    return records


def _emit(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True))


# -- subcommands ---------------------------------------------------------


def _cmd_pattern(args) -> int:
    h = parse_pattern(args.pattern)
    _emit(
        {
            "spec": h.spec,
            "family": h.family,
            "vertices": h.vertex_count,
            "edges": sorted(h.graph.edges()),
            "bipartition_sizes": [len(s) for s in h.bipartition] if h.bipartition else None,
            "tails": [list(t) for t in h.tails],
            "balanced": h.balanced,
            "has_perfect_matching": h.has_perfect_matching,
        }
    )
    return 0


# each construction family and the construct flags it reads: first the one it
# needs, last the one that sizes it
_FAMILIES = {"p2k": ("k",), "tail": ("a",), "overlay": ("pattern", "t")}

# the largest n a construction is built at: a coloring of K_n holds C(n, 2)
# colors, and every family builds a list of that many before it can refuse
MAX_CONSTRUCT_N = 4096


def _construction(family: str, n: int, size: Optional[int], h: Optional[PatternGraph]):
    """(coloring, its layout or None) of a family at n, `size` being what the
    family's sizing flag holds; a tail's a of None is the pattern's, and an
    overlay's t of None is the path recipe's."""
    if n > MAX_CONSTRUCT_N:
        raise ResourceLimitError(f"construct limited to n <= {MAX_CONSTRUCT_N}, got {n}")
    if family == "p2k":
        return p2k_multicoloring(n, size)
    if family == "tail":
        return (tail_forest_coloring(n, size) if size is not None else tail_coloring_for(n, h)[0]), None
    if h.family != "path":
        raise ValueError(f"{family} construction is wired for path patterns; use the library API otherwise")
    if size is None:
        size = ex_path(n, h.vertex_count).recipe["a"]
    return extremal_overlay(n, h, extremal_path_graph(n, h.vertex_count, size)), None


def _overwrite(path: str, text: str) -> bool:
    """Write text to path as UTF-8 in place, keeping the file's inode.

    No O_TRUNC: on ext4, truncating a file to zero and closing it starts
    writeback (the auto_da_alloc heuristic), about 0.1 ms per file, where an
    in-place write takes under 10 µs.  A tail longer than the new bytes is cut
    off afterwards, and only from a regular file: /dev/null refuses ftruncate.
    Like open(path, "w"), the write is neither atomic nor synced.  Returns
    whether path is a regular file.
    """
    data = text.encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        old = os.fstat(fd)
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        if stat.S_ISREG(old.st_mode) and old.st_size > len(data):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)
    return stat.S_ISREG(old.st_mode)


def _cmd_construct(args) -> int:
    for family, flags in _FAMILIES.items():
        for flag in flags:
            if getattr(args, flag) is not None and family != args.family:
                raise ValueError(f"--{flag} is for --family {family}; --family {args.family} does not use it")
    flags = _FAMILIES[args.family]
    if getattr(args, flags[0]) is None:
        raise ValueError(f"{args.family} needs --{flags[0]}")
    h = None if args.pattern is None else parse_pattern(args.pattern)
    coloring, layout = _construction(args.family, args.n, getattr(args, flags[-1]), h)

    if args.output:
        # a sidecar goes only beside a regular file, never beside /dev/null
        if _overwrite(args.output, coloring.to_json() + "\n") and layout is not None:
            layout_payload = layout.to_dict()
            layout_payload["verify"] = verify_layout(layout).to_dict()
            _overwrite(args.output + ".layout.json", json.dumps(layout_payload, sort_keys=True) + "\n")
        _emit({"written": args.output, "n": coloring.n, "k": coloring.k})
    else:
        _emit(coloring.to_dict())
    return 0


def _cmd_verify(args) -> int:
    with open(args.coloring, encoding="utf-8") as fh:
        coloring = EdgeColoring.from_json(fh.read())
    h = parse_pattern(args.pattern)
    # the file already spells out all C(n, 2) colors, so its n is the caller's choice
    report = nim_edges(coloring, h, max_n=coloring.n)
    _emit(report.to_dict())
    return 0


def _cmd_turan(args) -> int:
    h = parse_pattern(args.pattern)
    if args.method == "oracle":
        result = turan_oracle(args.n, h)
    elif args.method == "formula":
        result = turan_value(args.n, h, allow_oracle=False)
    else:
        result = turan_value(args.n, h)
    _emit(result.to_dict())
    return 0


def _cmd_search(args) -> int:
    h = parse_pattern(args.pattern)
    if args.construction_k is not None and args.seed_construction != "p2k":  # the p2k seed's --k
        raise ValueError("--construction-k sizes the p2k seed; it needs --seed-construction p2k")
    for flag, least in (("iterations", 0), ("restarts", 1), ("construction_k", 2)):
        value = getattr(args, flag)
        if value is not None and value < least:
            raise ValueError(f"--{flag.replace('_', '-')} must be >= {least}, got {value}")
    if args.mode == "exhaustive":
        if args.seed_construction:
            raise ValueError("--seed-construction seeds --mode hill only; exhaustive search takes no seed")
        if args.budget is None:  # recorded as the budget the search ran with
            args.budget = DEFAULT_NODE_BUDGET
        if args.budget < 1:
            raise ValueError(f"--budget must be >= 1, got {args.budget}")
        result = exhaustive_f(args.n, args.k, h, budget=args.budget)
    else:
        if args.budget is not None:
            raise ValueError("--budget bounds --mode exhaustive only; hill climbing takes no budget")
        result = hill_climb_f(
            args.n,
            args.k,
            h,
            seed=args.seed,
            iterations=args.iterations,
            restarts=args.restarts,
            seed_coloring=_build_seed(args, h) if args.seed_construction else None,
        )
    payload = result.to_dict()
    # every search flag, so a record replays exactly; the ledger path is not part of the run
    parameters = {
        key: value for key, value in vars(args).items() if key not in ("func", "command", "ledger")
    }
    _append_ledger(_ledger_path(args), "search", parameters, payload)
    _emit(payload)
    return 0


def _build_seed(args, h: PatternGraph) -> EdgeColoring:
    _hill_guard(args.n, h)  # a seed holds C(n, 2) colors: refuse n before building one
    family = args.seed_construction
    size = args.construction_k  # None unless --k sizes the family, as _cmd_search checks
    if family == "p2k" and size is None:
        if args.k % 2:
            raise ValueError("p2k seeding needs an even --k (or an explicit --construction-k)")
        size = args.k // 2
    coloring, _ = _construction(family, args.n, size, h)
    if coloring.k > args.k:
        raise ValueError(f"--k {args.k} is fewer than the {coloring.k} colors of the {family} seed")
    return coloring.with_colors(args.k) if coloring.k < args.k else coloring


# the result fields `report` reads from each search record, with their JSON types
_REPORT_FIELDS = {"n": int, "k": int, "pattern": str, "best_count": int, "exhaustive": bool}

# the report's columns in order, with their format specs in the text table (None: not shown)
_REPORT_COLUMNS = {
    "timestamp": None, "pattern": "<22", "n": ">4", "k": ">3", "best": ">6", "ex": ">6", "gap": ">5",
    "exhaustive": None,
}


def _cmd_report(args) -> int:
    path = _ledger_path(args)
    rows = []
    ex_by_case: dict[tuple[int, str], Optional[int]] = {}  # (n, pattern spec) -> ex(n, H)
    for no, record in read_ledger(path):
        if record.get("command") != "search":
            continue
        payload = record.get("result")
        for field, kind in _REPORT_FIELDS.items():
            # `type(...) is kind`, as bool is an int subclass but not a JSON integer
            if not isinstance(payload, dict) or type(payload.get(field)) is not kind:
                raise ValueError(f"{path}: line {no}: search record has no valid result.{field}")
        for field, least in (("k", 1), ("best_count", 0)):
            if payload[field] < least:
                raise ValueError(f"{path}: line {no}: result.{field} must be >= {least}, got {payload[field]}")
        case = (payload["n"], payload["pattern"])
        if case not in ex_by_case:
            try:
                ex_by_case[case] = turan_value(payload["n"], parse_pattern(payload["pattern"])).value
            except TuranUnavailableError:
                ex_by_case[case] = None
            except ValueError as exc:
                raise ValueError(f"{path}: line {no}: {exc}") from exc
        ex = ex_by_case[case]
        rows.append(
            {
                "timestamp": record.get("timestamp"),
                "pattern": payload["pattern"],
                "n": payload["n"],
                "k": payload["k"],
                "best": payload["best_count"],
                "ex": ex,
                "gap": None if ex is None else payload["best_count"] - (payload["k"] - 1) * ex,
                "exhaustive": payload["exhaustive"],
            }
        )
    totals = {
        "rows": len(rows),
        "best_sum": sum(r["best"] for r in rows),
        "gap_sum": sum(r["gap"] for r in rows if r["gap"] is not None),
    }
    header = {column: column for column in _REPORT_COLUMNS}
    if args.format == "json":
        _emit({"rows": rows, "totals": totals})
    elif args.format == "csv":
        sums = {"timestamp": "totals", "best": totals["best_sum"], "gap": totals["gap_sum"]}
        sums["exhaustive"] = totals["rows"]  # the row count goes in the last column
        for r in (header, *rows, sums):
            print(",".join(str(r.get(column, "")) for column in _REPORT_COLUMNS))
    else:
        shown = {column: spec for column, spec in _REPORT_COLUMNS.items() if spec is not None}
        for r in (header, *rows):
            print("".join(format("-" if r[column] is None else r[column], spec) for column, spec in shown.items()))
        print(f'rows={totals["rows"]} best_sum={totals["best_sum"]} gap_sum={totals["gap_sum"]}')
    return 0


# -- parser ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="nimcolor", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pattern", help="parse and pretty-print a pattern spec")
    p.add_argument("--pattern", required=True)
    p.set_defaults(func=_cmd_pattern)

    p = sub.add_parser("construct", help="build a coloring and write it as JSON")
    p.add_argument("--family", choices=_FAMILIES, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--a", type=int)
    p.add_argument("--t", type=int)
    p.add_argument("--pattern")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("verify", help="NIM report for a coloring file and a pattern")
    p.add_argument("--coloring", required=True)
    p.add_argument("--pattern", required=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("turan", help="Turan number by formula or oracle")
    p.add_argument("--pattern", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--method", choices=["formula", "oracle", "auto"], default="auto")
    p.set_defaults(func=_cmd_turan)

    p = sub.add_parser("search", help="maximize the NIM count over k-colorings")
    p.add_argument("--pattern", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--mode", choices=["exhaustive", "hill"], default="exhaustive")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--iterations", type=int, default=50)
    p.add_argument("--restarts", type=int, default=1)
    p.add_argument("--seed-construction", choices=_FAMILIES)
    p.add_argument("--construction-k", type=int)
    p.add_argument(
        "--budget", type=int,
        help=f"exhaustive mode only: the most search nodes, one per color tried on an edge (default {DEFAULT_NODE_BUDGET})",
    )
    p.add_argument("--ledger")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("report", help="summarize the search ledger")
    p.add_argument("--format", choices=["table", "csv", "json"], default="table")
    p.add_argument("--ledger")
    p.set_defaults(func=_cmd_report)

    return parser


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The full parser and each subcommand's own, built once per process: a
    build costs about 20 parses, and tests and the benchmark call main many
    times in one process."""
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return parser, sub.choices


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """The arguments build_parser().parse_args(argv) gives, parsed once.

    A subcommand's argv goes straight to that subcommand's parser, which the
    full parser would run inside its own parse, so an unrecognized argument
    is reported under the subcommand's usage line.  The full parser handles
    --version, an empty argv and unknown commands.  Raises SystemExit as
    argparse does.
    """
    parser, commands = _parsers()
    if argv and argv[0] in commands:
        args = commands[argv[0]].parse_args(argv[1:])
        args.command = argv[0]
        return args
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, ResourceLimitError, OSError) as exc:
        # a limit's hint names a library keyword or call, which the CLI has no flag for
        print(f"error: {exc.limit if isinstance(exc, ResourceLimitError) else exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
