"""The README names only entry points that the package exports, and lists
exactly the config keys and tokens that the parser accepts."""

import re
from pathlib import Path

import polywave
from polywave.scenario import SECTIONS

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def test_readme_entry_points_are_exported():
    quick_start = re.search(r"from polywave import \((.*?)\)", README, re.S).group(1)
    others = re.search(r"Other entry points:(.*?)\n\n", README, re.S).group(1)
    names = re.findall(r"\w+", quick_start) + re.findall(r"`(\w+)`", others)
    assert len(names) >= 20
    assert [n for n in names if not hasattr(polywave, n)] == []


def test_readme_config_table_matches_the_parser():
    """The README's table of accepted keys and tokens lists exactly the
    parser's sections, keys and tokens, and which sections are optional."""
    rows = re.findall(r"^\| `\[(\w+)\]`(.*?)\|(.*?)\|(.*?)\|$", README, re.M)
    readme = {
        section: ("(optional)" not in note, set(re.findall(r"`([\w.]+)`", keys)),
                  set(re.findall(r"`(\w+)`", tokens)))
        for section, note, keys, tokens in rows
    }
    parser = {}
    for section, (required, table) in SECTIONS.items():
        tokens = set()
        for key, value in table.items():
            if key.endswith(".i") and section == "media":
                tokens.update(*(kind_tokens for _, kind_tokens in value.values()))
            elif key.endswith(".i"):
                tokens.update(value)
        parser[section] = (required, set(table), tokens)
    assert readme == parser
