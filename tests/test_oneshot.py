import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "oneshot.py"
spec = importlib.util.spec_from_file_location("oneshot", TOOL)
oneshot = importlib.util.module_from_spec(spec)
spec.loader.exec_module(oneshot)


class TestSummary:
    def test_quartiles_and_wins(self):
        parent = [1.0, 1.1, 1.2, 1.3, 1.4]
        change = [0.9, 1.2, 1.1, 1.2, 1.3]
        # the parent ran first in runs 0, 2 and 4
        order = [False, True, False, True, False]
        name, qa, qb, ratio, wins, first, unresolved = oneshot.summary(parent, change, order, 0.25)
        assert name == "wall_s"
        assert qa == pytest.approx((1.1, 1.2, 1.3))
        assert qb == pytest.approx((1.1, 1.2, 1.2))
        assert ratio == pytest.approx(1.0)
        # the change is faster in runs 0, 2, 3 and 4; the side run first won run 3
        assert (wins, first) == (4, 1)
        # the parent's spread, 0.2 / 1.2, is within 0.25
        assert not unresolved

    def test_spread_past_the_bound_is_unresolved(self):
        # the same spread exceeds a 3% bound
        row = oneshot.summary([1.0, 1.1, 1.2, 1.3, 1.4], [1.0] * 5, [False, True] * 2 + [False], 0.03)
        assert row[-1]


def checkout(root, output):
    """A stand-in checkout whose ``traceinv`` command prints ``output``."""
    pkg = root / "src" / "traceinv"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "cli.py").write_text(f"def main():\n    print({output!r})\n    return 0\n")
    return root


@pytest.mark.parametrize("output, status", [("same", 0), ("other", 1)])
def test_runs_alternate_and_outputs_are_compared(tmp_path, capsys, output, status):
    parent = checkout(tmp_path / "parent", "same")
    change = checkout(tmp_path / "change", output)
    assert oneshot.main([str(parent), str(change), "--runs", "2", "--", "compare"]) == status
    out = capsys.readouterr().out.splitlines()
    assert [line.split()[:3] for line in out[:4]] == [
        ["run", "0", "parent"], ["run", "0", "change"], ["run", "1", "change"], ["run", "1", "parent"],
    ]
    assert out[4].startswith("one-shot wall_s")
    # the bytecode went to a temporary prefix, not into the checkouts
    assert not list(tmp_path.rglob("__pycache__"))


def test_needs_a_checkout(tmp_path, capsys):
    assert oneshot.main([str(tmp_path), str(tmp_path), "--", "compare"]) == 2
    assert "has no src/traceinv" in capsys.readouterr().err
