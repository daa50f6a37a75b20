"""Scenario configs: flat text with named blocks and key = value lines.

Example::

    # three-segment rod
    [geometry]
    dimension = 1
    vertices = 0.0 | 0.25 | 0.55 | 1.0
    simplices = 0 1 | 1 2 | 2 3

    [media]
    wave_kind = em
    medium.0 = n=1.0
    medium.1 = n=1.5
    medium.2 = n=2.0

    [rays]
    ray.0 = origin=0.0005 direction=1 length=0.998 grid_step=0.001

    [detection]
    tol = 1e-6
    noise_sigma = 0.0
    seed = 1234
    candidates = 1.0,1.5 | 1.5,2.0 | 1.0,2.0

`SECTIONS` is the one table of what a config accepts: each section's keys
and the `key=value` tokens of each numbered `key.i` entry, each with the
converter that reads it.  Lists use `|` between entries; vector components
inside a token are comma-separated.  Input the table does not accept raises
ConfigParseError with its line and column: an unknown, malformed, repeated
or missing token, section or key, an index not written 0, 1, 2, ..., an id
that is not a plain integer, and a number that is not finite.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

from .acoustic import AcousticMedium
from .detect import (
    DetectionReport,
    Ray,
    VertexHit,
    detect_interfaces_acoustic,
    detect_interfaces_em,
    detect_vertex_cascade,
    detect_vertex_coupled_mode,
    detect_vertex_fwm,
    synthesize_ray_trace,
)
from .fresnel import EmMedium
from .geometry import SimplicialComplex, build_complex
from .traceio import SchemaMismatch


class ConfigParseError(Exception):
    def __init__(self, line: int, col: int, message: str):
        self.line = line
        self.col = col
        self.message = message
        super().__init__(f"line {line}, col {col}: {message}")


def parse_blocks(text: str) -> dict:
    """Raw parse: {section: {key: (value, line, col_of_value)}}, with the
    section header position under the '' key."""
    sections: dict[str, dict] = {}
    current: dict | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip()
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        indent = len(line) - len(line.lstrip())
        if stripped.startswith("["):
            if not stripped.endswith("]") or len(stripped) < 3:
                raise ConfigParseError(lineno, indent + 1, f"malformed section header {stripped!r}")
            name = stripped[1:-1].strip()
            if not name:
                raise ConfigParseError(lineno, indent + 2, "empty section name")
            if name in sections:
                raise ConfigParseError(lineno, indent + 1, f"duplicate section [{name}]")
            current = {"": ("", lineno, indent + 1)}
            sections[name] = current
            continue
        if current is None:
            raise ConfigParseError(lineno, indent + 1, "key outside any [section]")
        if "=" not in stripped:
            raise ConfigParseError(lineno, indent + 1, f"expected key = value, got {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if not key:
            raise ConfigParseError(lineno, indent + 1, "empty key before '='")
        if key in current:
            raise ConfigParseError(lineno, indent + 1, f"duplicate key {key!r}")
        col = raw.index("=") + 2
        current[key] = (value.strip(), lineno, col)
    return sections


@dataclass
class VertexCheck:
    criterion: str
    ray_ids: tuple[int, ...]
    tol: float
    window: float | None = None
    position: tuple | None = None
    kappa_min: float = 1e-6
    chi3: float = 0.0
    pumps: tuple = (1.0, 1.0, 1.0)


@dataclass
class Scenario:
    complex: SimplicialComplex
    wave_kind: str
    media: dict
    rays: list[Ray]
    tol: float = 1e-6
    noise_sigma: float = 0.0
    seed: int = 0
    paper_exact: bool = False
    candidates: list = field(default_factory=list)
    vertex_checks: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# converters: text -> value, or a ValueError that says what was expected

_INT = r"[+-]?[0-9]+"
_INTEGER = re.compile(_INT)
_INDEX = re.compile(r"0|[1-9][0-9]*")  # the i of key.i: no sign, no leading zero


def _number(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


def _integer(text: str) -> int:
    """An optional sign and ASCII digits: '3.4', 'inf' and '0_3' are errors."""
    if not _INTEGER.fullmatch(text):
        raise ValueError(f"expected an integer, got {text!r}")
    return int(text)


def _bounded(convert, holds, wanted: str):
    """convert, then a ValueError unless holds(value): for values that no
    class checks when it is built."""

    def check(text: str):
        value = convert(text)
        if not holds(value):
            raise ValueError(f"expected {wanted}, got {text!r}")
        return value

    return check


_positive = _bounded(_number, lambda value: value > 0, "a number > 0")
_nonnegative = _bounded(_number, lambda value: value >= 0, "a number >= 0")


def _flag(text: str) -> bool:
    if text.lower() in ("true", "1", "yes"):
        return True
    if text.lower() in ("false", "0", "no"):
        return False
    raise ValueError(f"expected true/false, got {text!r}")


def _numbers(sep: str | None):
    """Numbers split by sep (by whitespace when None)."""
    return lambda text: tuple(map(_number, text.split(sep)))


def _integers(sep: str | None):
    """Integers split by sep (by whitespace when None).  One regex checks the
    whole list; only a list that fails it is read id by id, to name the bad id."""
    between = r"\s+" if sep is None else re.escape(sep)
    pattern = re.compile(rf"{_INT}(?:{between}{_INT})*")
    return lambda text: tuple(map(int if pattern.fullmatch(text) else _integer, text.split(sep)))


_vector = _numbers(",")


def _pair(text: str) -> tuple[float, float]:
    pair = _vector(text)
    if len(pair) != 2:
        raise ValueError(f"need pairs, got {len(pair)} numbers")
    return pair


def _list(item):
    """Entries split by '|', each read by item."""

    def convert(text: str) -> list:
        out = []
        for part in map(str.strip, text.split("|")):
            if not part:
                raise ValueError("empty entry in list")
            try:
                out.append(item(part))
            except ValueError as exc:
                raise ValueError(f"bad entry {part!r}: {exc}") from None
        return out

    return convert


def _one_of(options, noun: str, fold=str):
    def convert(text: str) -> str:
        if fold(text) not in options:
            raise ValueError(f"unknown {noun} {text!r} (accepted: {', '.join(sorted(options))})")
        return fold(text)

    return convert


# ---------------------------------------------------------------------------
# the table: every section, key and token a config accepts, and its converter

RAYS_PER_CRITERION = {  # criterion -> (fewest, most, as said in errors)
    "coupled_mode": (2, 2, "exactly 2 rays"),
    "cascade": (2, math.inf, "at least 2 rays"),
    "fwm": (1, 1, "exactly 1 ray"),
}

# A token table maps each token of a `key.i` entry to (the field it sets,
# its converter, whether the field is required).  Tokens that set the same
# field are alternatives, of which at most one may be given.
MEDIA = {  # wave kind -> (medium class, token table)
    "em": (EmMedium, {"n": ("refractive_index", _number, True)}),
    "acoustic": (AcousticMedium, {
        "z": ("impedance", _number, True),
        "c": ("sound_speed", _number, True),
        "rho": ("density", _number, False),
    }),
}

SECTIONS = {  # section -> (required, {key: converter, or `key.i`: its token table})
    "geometry": (True, {
        "dimension": _integer,
        "vertices": _list(_numbers(None)),
        "simplices": _list(_integers(None)),
    }),
    "media": (True, {"wave_kind": _one_of(MEDIA, "wave kind", str.lower), "medium.i": MEDIA}),
    "rays": (True, {"ray.i": {
        "origin": ("origin", _vector, True),
        "direction": ("direction", _vector, True),
        "length": ("length", _number, True),
        "grid_step": ("grid_step", _number, True),
    }}),
    "detection": (False, {
        "tol": _positive,
        "noise_sigma": _nonnegative,
        "seed": _bounded(_integer, lambda value: value >= 0, "an integer >= 0"),
        "paper_exact": _flag,
        "candidates": _list(_pair),
    }),
    "vertices": (False, {"check.i": {
        "criterion": ("criterion", _one_of(RAYS_PER_CRITERION, "criterion"), True),
        "ray": ("ray_ids", lambda text: (_integer(text),), True),
        "rays": ("ray_ids", _integers(","), True),
        "tol": ("tol", _positive, False),
        "window": ("window", _positive, False),
        "position": ("position", _vector, False),
        "kappa_min": ("kappa_min", _nonnegative, False),
        "chi3": ("chi3", _number, False),
        "pumps": ("pumps", _vector, False),
    }}),
}


def _fail(entry, message: str):
    _, line, col = entry
    raise ConfigParseError(line, col, message)


def _section(sections: dict, name: str) -> tuple[dict, list, dict | None]:
    """[name]'s plain keys, converted; its `key.i` entries as (key, entry)
    pairs, in index order; and the token table of those entries."""
    required, table = SECTIONS[name]
    tokens = next((table[key] for key in table if "." in key), None)
    if name not in sections:
        if required:
            raise ConfigParseError(0, 0, f"missing required section [{name}]")
        return {}, [], tokens
    fields, entries = {}, {}
    for key, entry in sections[name].items():
        if not key:  # the section header's position
            continue
        prefix, dot, index = key.partition(".")
        if (prefix + ".i" if dot else key) not in table:
            raise ConfigParseError(entry[1], 1, f"unknown key {key!r} in [{name}]")
        if not dot:
            try:
                fields[key] = table[key](entry[0])
            except ValueError as exc:
                _fail(entry, f"{key}: {exc}")
        elif _INDEX.fullmatch(index):
            entries[int(index)] = (key, entry)
        else:
            raise ConfigParseError(entry[1], 1, f"{name}: bad index in key {key!r} (use 0, 1, ...)")
    header = sections[name][""]
    for key in table:
        if required and "." not in key and key not in fields:
            _fail(header, f"missing required key {key!r} in this section")
    if sorted(entries) != list(range(len(entries))):
        _fail(header, f"{name}: indices must be contiguous from 0, got {sorted(entries)}")
    return fields, [entries[i] for i in range(len(entries))], tokens


def _spelled(table: dict, field: str) -> str:
    """The tokens that set field, as written: 'n=', or 'ray= or rays='."""
    return " or ".join(f"{token}=" for token, spec in table.items() if spec[0] == field)


def _tokens(entry, what: str, table: dict) -> dict:
    """The fields of an 'a=1 b=2,3' entry, read by its token table.
    Malformed, repeated, missing required and unknown tokens are errors,
    reported in that order; then each value is converted."""
    given = {}
    for token in entry[0].split():
        key, _, text = token.partition("=")
        if not key or not text:
            _fail(entry, f"{what}: malformed token {token!r}, expected key=value")
        if key in given:
            _fail(entry, f"{what}: repeated token {key}=")
        given[key] = text
    for token, (field, _, required) in table.items():
        if required and token not in given and not any(
            table[key][0] == field for key in given if key in table
        ):
            needs = dict.fromkeys(_spelled(table, f) for f, _, req in table.values() if req)
            _fail(entry, f"{what}: missing {_spelled(table, field)} (needs {' '.join(needs)})")
    if not given.keys() <= table.keys():
        unknown = next(key for key in given if key not in table)
        _fail(entry, f"{what}: unknown token {unknown}= (accepted: {', '.join(sorted(table))})")
    fields = {}
    for key, text in given.items():
        field, convert, _ = table[key]
        if field in fields:
            _fail(entry, f"{what}: give only one of {_spelled(table, field)}")
        try:
            fields[field] = convert(text)
        except ValueError as exc:
            _fail(entry, f"{what} {key}: {exc}")
    return fields


def _build(cls, fields: dict, entry, what: str):
    """cls(**fields), with the ValueError of a check in cls reported as a
    ConfigParseError at the entry."""
    try:
        return cls(**fields)
    except ValueError as exc:
        _fail(entry, f"{what}: {exc}")


def load_scenario_text(text: str) -> Scenario:
    sections = parse_blocks(text)
    for name, section in sections.items():
        if name not in SECTIONS:
            _fail(section[""], f"unknown section [{name}]")
    geometry, _, _ = _section(sections, "geometry")
    media_keys, medium_entries, kinds = _section(sections, "media")
    medium_class, medium_tokens = kinds[media_keys["wave_kind"]]
    media = {
        i: _build(medium_class, _tokens(entry, key, medium_tokens), entry, key)
        for i, (key, entry) in enumerate(medium_entries)
    }
    if len(media) != len(geometry["simplices"]):
        count = f"{len(media)} media for {len(geometry['simplices'])} simplices"
        _fail(sections["media"][""], f"{count}; every simplex needs one")
    cpx = build_complex(media={i: i for i in media}, **geometry)

    # an empty [rays] block is legal: simulate then writes an empty trace file
    _, ray_entries, ray_tokens = _section(sections, "rays")
    rays = []
    for key, entry in ray_entries:
        fields = _tokens(entry, key, ray_tokens)
        direction = fields["direction"]
        if len(fields["origin"]) != cpx.dimension or len(direction) != cpx.dimension:
            _fail(entry, f"{key}: origin/direction must have {cpx.dimension} components")
        norm = math.sqrt(sum(d * d for d in direction))
        if norm == 0.0:
            _fail(entry, f"{key}: zero direction vector")
        fields["direction"] = tuple(d / norm for d in direction)
        rays.append(_build(Ray, fields, entry, key))

    detection, _, _ = _section(sections, "detection")
    scenario = Scenario(complex=cpx, media=media, rays=rays, **media_keys, **detection)
    _, check_entries, check_tokens = _section(sections, "vertices")
    for key, entry in check_entries:
        check = VertexCheck(**{"tol": scenario.tol, **_tokens(entry, key, check_tokens)})
        absent = [r for r in check.ray_ids if not 0 <= r < len(rays)]
        if absent:
            _fail(entry, f"{key}: no ray {absent[0]}")
        low, high, wanted = RAYS_PER_CRITERION[check.criterion]
        if not low <= len(check.ray_ids) <= high:
            _fail(entry, f"{key}: {check.criterion} takes {wanted}, got {len(check.ray_ids)}")
        scenario.vertex_checks.append(check)
    return scenario


def load_scenario(path) -> Scenario:
    with open(path) as fh:
        return load_scenario_text(fh.read())


def run_simulate(scenario: Scenario) -> list:
    """Synthesize one trace per configured ray; ray i uses seed + i."""
    return [
        synthesize_ray_trace(
            scenario.complex,
            scenario.media,
            ray,
            noise_sigma=scenario.noise_sigma,
            seed=scenario.seed + i,
            ray_id=i,
        )
        for i, ray in enumerate(scenario.rays)
    ]


def run_detect(scenario: Scenario, traces) -> DetectionReport:
    """Interface detection on every trace plus configured vertex checks."""
    by_id = {tr.ray_id: tr for tr in traces}
    interface_hits = []
    for ray_id in sorted(by_id) if scenario.candidates else []:
        tr = by_id[ray_id]
        if tr.wave_kind == "em":
            interface_hits.extend(detect_interfaces_em(tr, scenario.candidates, scenario.tol))
        else:
            interface_hits.extend(
                detect_interfaces_acoustic(
                    tr, scenario.candidates, scenario.tol, paper_exact=scenario.paper_exact
                )
            )
    vertex_hits = []
    for check in scenario.vertex_checks:
        missing = [r for r in check.ray_ids if r not in by_id]
        if missing:
            raise SchemaMismatch(f"vertex check names ray(s) {missing} absent from the traces")
        trs = [by_id[r] for r in check.ray_ids]
        if check.criterion == "coupled_mode":
            verdict = detect_vertex_coupled_mode(
                trs[0], trs[1], check.window, check.tol, check.kappa_min
            )
        elif check.criterion == "cascade":
            verdict = detect_vertex_cascade(trs, check.position, None, check.tol)
        else:
            verdict = detect_vertex_fwm(trs[0], check.chi3, check.pumps, check.tol, check.window)
        if verdict.is_vertex:  # the report lists accepted verdicts only
            vertex_hits.append(
                VertexHit(
                    position=verdict.position,
                    criterion=verdict.criterion,
                    residual=verdict.residual,
                    ray_ids=check.ray_ids,
                    degenerate=verdict.degenerate,
                )
            )
    return DetectionReport(
        interface_hits=interface_hits,
        vertex_hits=vertex_hits,
        params_used={
            "tol": scenario.tol,
            "noise_sigma": scenario.noise_sigma,
            "seed": scenario.seed,
            "paper_exact": scenario.paper_exact,
            "wave_kind": scenario.wave_kind,
            "coefficient_variant": "paper_exact" if scenario.paper_exact else "energy_conserving",
            "candidates": [list(c) for c in scenario.candidates],
            "vertex_checks": len(scenario.vertex_checks),
        },
    )
