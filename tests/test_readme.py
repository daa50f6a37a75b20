"""The README names only entry points that the package exports."""

import re
from pathlib import Path

import polywave

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def test_readme_entry_points_are_exported():
    quick_start = re.search(r"from polywave import \((.*?)\)", README, re.S).group(1)
    others = re.search(r"Other entry points:(.*?)\n\n", README, re.S).group(1)
    names = re.findall(r"\w+", quick_start) + re.findall(r"`(\w+)`", others)
    assert len(names) >= 20
    assert [n for n in names if not hasattr(polywave, n)] == []
