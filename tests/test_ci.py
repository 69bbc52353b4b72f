"""The CI workflow installs from pyproject.toml and runs the tier-1 command
on every Python it supports, the declared floor included."""

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


def test_the_workflow_tests_the_declared_python_floor():
    # Read with regular expressions: tomllib is not in Python 3.10, and the
    # test extra installs no YAML parser.
    pyproject = (ROOT / "pyproject.toml").read_text()
    (floor,) = re.findall(r'^requires-python = ">=(\d+\.\d+)"$', pyproject, re.M)
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    (matrix,) = re.findall(r"^ +python-version: \[(.*)\]$", workflow, re.M)
    versions = [tuple(map(int, v.strip(' "').split("."))) for v in matrix.split(",")]
    assert min(versions) == tuple(map(int, floor.split(".")))
    assert re.findall(r"^ +python-version: (.*)$", workflow, re.M)[1:] == [
        "${{ matrix.python-version }}"
    ]


def test_the_workflow_job_has_a_timeout():
    # A hung test fails the job in minutes, not at the runner's six-hour default.
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    jobs = re.findall(r"^  (\w+):$", workflow.split("\njobs:\n", 1)[1], re.M)
    timeouts = re.findall(r"^    timeout-minutes: (\d+)$", workflow, re.M)
    assert len(timeouts) == len(jobs) == 1 and 0 < int(timeouts[0]) <= 30
