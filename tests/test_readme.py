"""The README names only entry points that the package exports, and lists
exactly the config keys and tokens that the parser accepts."""

import re
from pathlib import Path

import polywave
from polywave.scenario import CRITERIA, MEDIA, SECTIONS

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def test_readme_entry_points_are_exported():
    quick_start = re.search(r"from polywave import \((.*?)\)", README, re.S).group(1)
    others = re.search(r"Other entry points:(.*?)\n\n", README, re.S).group(1)
    names = re.findall(r"\w+", quick_start) + re.findall(r"`(\w+)`", others)
    assert len(names) >= 20
    assert [n for n in names if not hasattr(polywave, n)] == []


def readme_config_table() -> dict:
    """{section: (required, keys, {kind: (required tokens, optional tokens)})}
    from the README's table.  A row whose section cell is empty continues the
    section above; a kind is the `key=value` label that picks a token table,
    as ('criterion', 'fwm'), or None for a section's one table."""
    table = README[README.index("| section | keys |"):]
    table = table[:table.index("\n\n")]
    readme = {}
    for row in table.splitlines()[2:]:
        section, keys, tokens = (cell.strip() for cell in row.strip("|").split("|"))
        if section:
            name = re.fullmatch(r"`\[(\w+)\]`( \(optional\))?", section)
            keys = set(re.findall(r"`([\w.]+)`", keys))
            current = readme[name.group(1)] = (not name.group(2), keys, {})
        if not tokens:
            continue
        label = re.match(r"`(\w+) ?= ?(\w+)`: ", tokens)
        given, _, optional = tokens[label.end() if label else 0:].partition("optional")
        current[2][label.groups() if label else None] = (
            set(re.findall(r"`(\w+)`", given)), set(re.findall(r"`(\w+)`", optional))
        )
    return readme


def test_readme_config_table_matches_the_parser():
    """The README's table of accepted keys and tokens lists exactly the
    parser's sections and keys, which sections are optional, and the
    required and optional tokens of each wave kind, criterion and ray."""
    parser = {}
    for section, (required, keys) in SECTIONS.items():
        kinds = {}
        for key, value in keys.items():
            if value is MEDIA or value is CRITERIA:
                picked_by = "wave_kind" if value is MEDIA else "criterion"
                kinds.update({(picked_by, kind): spec[-1] for kind, spec in value.items()})
            elif key.endswith(".i"):
                kinds[None] = value
        parser[section] = (required, set(keys), {
            kind: ({t for t, spec in tokens.items() if spec[2]},
                   {t for t, spec in tokens.items() if not spec[2]})
            for kind, tokens in kinds.items()
        })
    assert readme_config_table() == parser
