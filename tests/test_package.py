import re
from pathlib import Path

import traceinv

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_version_matches_pyproject():
    # a regex, not tomllib, so the check also runs on Python 3.10
    found = re.findall(r'(?m)^version = "([^"]+)"$', PYPROJECT.read_text())
    assert found == [traceinv.__version__]


def test_removed_names_stay_removed():
    # removed in 0.2.0, when imports were allowed to break, and StateFile in
    # 0.3.0, since a state file loads to the tuple or the vector it holds
    for name in ("from_net_tensor", "network_edges", "StateFile"):
        assert name not in traceinv.__all__
        assert not hasattr(traceinv, name)
