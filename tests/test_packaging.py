import re
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_ci_tests_the_declared_python_floor():
    # the Tier-1 workflow runs on the oldest Python that pyproject.toml
    # admits, and on no other; a regex reads the workflow, as PyYAML is not
    # in the test extra
    floor = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["requires-python"]
    version = re.fullmatch(r">=\s*(3\.\d+)", floor).group(1)
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    tested = re.findall(r"^\s*python-version:\s*[\"']?([\d.]+)[\"']?\s*$", workflow, re.M)
    assert tested == [version]
