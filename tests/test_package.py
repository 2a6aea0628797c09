"""Package metadata."""

import re
from pathlib import Path


def test_version_matches_pyproject():
    # peelkit.__version__ is the one version string: pyproject.toml reads it
    # at build time and has no literal of its own (requires-python allows
    # 3.10, which has no tomllib)
    text = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    assert '\ndynamic = ["version"]\n' in text
    assert '\nversion = {attr = "peelkit.__version__"}\n' in text
    assert not re.search(r'^version = "', text, re.M), "a literal version in pyproject.toml"
