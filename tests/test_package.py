"""Package metadata."""

import re
from pathlib import Path

import peelkit


def test_version_matches_pyproject():
    # requires-python allows 3.10, which has no tomllib
    text = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    version = re.search(r'^version = "([^"]*)"$', text, re.M)
    assert version, "no version line in pyproject.toml"
    assert peelkit.__version__ == version.group(1)
