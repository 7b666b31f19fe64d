import re
from pathlib import Path

import nimcolor

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


def test_all_lists_every_public_name_and_no_submodule():
    public = {name for name in vars(nimcolor) if not name.startswith("_")}
    submodules = {"cli", "constructions", "errors", "graphs", "nim", "patterns", "search", "turan"}
    assert len(nimcolor.__all__) == len(set(nimcolor.__all__))
    assert set(nimcolor.__all__) == public - submodules
