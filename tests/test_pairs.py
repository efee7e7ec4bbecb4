import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "pairs.py"
spec = importlib.util.spec_from_file_location("pairs", TOOL)
pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(pairs)

WALL = {"name": "wall_s", "better": "lower", "bound": 0.25}
OK = {"name": "ok_frac", "better": "higher", "bound": 0.01}


def runs(name, values):
    return [{name: v} for v in values]


class TestSummarize:
    def test_quartiles_and_wins(self):
        parent = runs("wall_s", [1.0, 1.1, 1.2, 1.3, 1.4])
        change = runs("wall_s", [0.9, 1.2, 1.1, 1.2, 1.3])
        # the parent ran first in pairs 0, 2 and 4
        order = [False, True, False, True, False]
        [(name, qa, qb, ratio, wins, first, unresolved)] = pairs.summarize(parent, change, [WALL], order)
        assert name == "wall_s"
        assert qa == pytest.approx((1.1, 1.2, 1.3))
        assert qb == pytest.approx((1.1, 1.2, 1.2))
        assert ratio == pytest.approx(1.0)
        # the change is lower in pairs 0, 2, 3 and 4
        assert wins == 4
        # the side that ran first won pair 3 alone
        assert first == 1
        # the parent's spread, 0.2 / 1.2, is within the bound
        assert not unresolved

    def test_higher_is_better(self):
        parent = runs("ok_frac", [1.0, 0.9, 1.0])
        change = runs("ok_frac", [1.0, 1.0, 0.8])
        [(*_, wins, first, unresolved)] = pairs.summarize(parent, change, [OK], [False, True, False])
        # pair 0 ties, and the side that ran first won pairs 1 and 2
        assert (wins, first) == (1, 2)
        # quartiles 0.95 and 1.0 over a median of 1.0: a spread of 0.05
        assert unresolved

    def test_wide_parent_spread_is_unresolved(self):
        parent = runs("wall_s", [1.0, 2.0, 3.0, 4.0])
        change = runs("wall_s", [0.5, 0.5, 0.5, 0.5])
        [(*_, ratio, wins, first, unresolved)] = pairs.summarize(parent, change, [WALL], [False, True] * 2)
        assert (ratio, wins, first, unresolved) == (0.2, 4, 2, True)

    def test_one_pair(self):
        [(_, qa, qb, ratio, wins, first, unresolved)] = pairs.summarize(
            runs("wall_s", [2.0]), runs("wall_s", [3.0]), [WALL], [False]
        )
        assert (qa, qb, ratio, wins, first, unresolved) == ((2.0,) * 3, (3.0,) * 3, 1.5, 0, 1, False)


def test_refuses_bytecode(tmp_path, capsys):
    # bytecode under either side's src/ stops the tool before any run
    for side in ("parent", "change"):
        (tmp_path / side / "bench").mkdir(parents=True)
        (tmp_path / side / "bench" / "run.py").write_text("raise SystemExit(3)\n")
        (tmp_path / side / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "change" / "src" / "pkg" / "__pycache__").mkdir()
    assert pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"), "--pairs", "1"]) == 2
    assert "change holds bytecode" in capsys.readouterr().err
