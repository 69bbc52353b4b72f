"""The CI workflow installs from pyproject.toml and runs the tier-1 command."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_the_workflow_installs_the_package_and_runs_tier_1_verbatim():
    # pyproject.toml's test extra is the one dependency list, and the tier-1
    # command is the one ROADMAP.md gives, character for character.
    roadmap = (ROOT / "ROADMAP.md").read_text()
    (tier1,) = re.findall(r"^\*\*Tier-1 verify:\*\* `([^`]+)`$", roadmap, re.M)
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    assert re.findall(r"^ +run: (.*)$", workflow, re.M) == ['python -m pip install ".[test]"', tier1]
