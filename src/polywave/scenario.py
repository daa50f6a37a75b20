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

Tuple lists use `|` between entries; vector components inside a key=value
token are comma-separated.  Malformed input raises ConfigParseError with
line/column diagnostics, as do unknown sections, keys and tokens.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

from .acoustic import AcousticMedium
from .detect import (
    DetectionReport,
    Ray,
    detect_interfaces_acoustic,
    detect_interfaces_em,
    detect_vertex_cascade,
    detect_vertex_coupled_mode,
    detect_vertex_fwm,
    synthesize_ray_trace,
    verdicts_to_hits,
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


SECTION_KEYS = {  # section -> pattern of the keys it accepts
    "geometry": r"dimension|vertices|simplices",
    "media": r"wave_kind|medium\..*",
    "rays": r"ray\..*",
    "detection": r"tol|noise_sigma|seed|paper_exact|candidates",
    "vertices": r"check\..*",
}
EM_TOKENS = ("n",)
ACOUSTIC_TOKENS = ("c", "rho", "z")
RAY_TOKENS = ("origin", "direction", "length", "grid_step")
CHECK_TOKENS = ("chi3", "criterion", "kappa_min", "position", "pumps", "ray", "rays", "tol", "window")

RAYS_PER_CRITERION = {  # criterion -> (fewest, most, as said in errors)
    "coupled_mode": (2, 2, "exactly 2 rays"),
    "cascade": (2, math.inf, "at least 2 rays"),
    "fwm": (1, 1, "exactly 1 ray"),
}


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


def _req(sections: dict, name: str) -> dict:
    if name not in sections:
        raise ConfigParseError(0, 0, f"missing required section [{name}]")
    return sections[name]


def _get(section: dict, key: str):
    if key in section:
        return section[key]
    _, line, col = section[""]
    raise ConfigParseError(line, col, f"missing required key {key!r} in this section")


def _float(entry, what: str) -> float:
    value, line, col = entry
    try:
        return float(value)
    except ValueError:
        raise ConfigParseError(line, col, f"{what}: expected a number, got {value!r}") from None


def _int(entry, what: str) -> int:
    value, line, col = entry
    try:
        return int(value)
    except ValueError:
        raise ConfigParseError(line, col, f"{what}: expected an integer, got {value!r}") from None


def _bool(entry, what: str) -> bool:
    value, line, col = entry
    if value.lower() in ("true", "1", "yes"):
        return True
    if value.lower() in ("false", "0", "no"):
        return False
    raise ConfigParseError(line, col, f"{what}: expected true/false, got {value!r}")


def _tuple_list(entry, what: str, sep: str):
    """Split 'a b | c d' (sep=' ') or 'a,b | c,d' (sep=',') into float tuples."""
    value, line, col = entry
    out = []
    for part in value.split("|"):
        part = part.strip()
        if not part:
            raise ConfigParseError(line, col, f"{what}: empty entry in list")
        items = part.split(sep) if sep != " " else part.split()
        try:
            out.append(tuple(float(x) for x in items))
        except ValueError:
            raise ConfigParseError(line, col, f"{what}: bad entry {part!r}") from None
    return out


def _token_map(entry, what: str) -> dict:
    """Split 'a=1 b=2,3' into {'a': '1', 'b': '2,3'} keeping positions."""
    value, line, col = entry
    out = {}
    for token in value.split():
        if "=" not in token:
            raise ConfigParseError(line, col, f"{what}: expected key=value tokens, got {token!r}")
        k, _, v = token.partition("=")
        if not k or not v:
            raise ConfigParseError(line, col, f"{what}: malformed token {token!r}")
        out[k] = (v, line, col)
    return out


def _known_tokens(tokens: dict, allowed: tuple, entry, what: str) -> None:
    for k in tokens:
        if k not in allowed:
            _, line, col = entry
            raise ConfigParseError(line, col, f"{what}: unknown token {k}= (accepted: {', '.join(allowed)})")


def _known_sections(sections: dict) -> None:
    for name, section in sections.items():
        _, line, col = section[""]
        if name not in SECTION_KEYS:
            raise ConfigParseError(line, col, f"unknown section [{name}]")
        for key, (_, line, _) in section.items():
            if key and not re.fullmatch(SECTION_KEYS[name], key):
                raise ConfigParseError(line, 1, f"unknown key {key!r} in [{name}]")


def _ids(items: list[str], entry, what: str) -> tuple[int, ...]:
    """Integer ids: '3.4', 'inf' or 'nan' is an error, not a truncated id."""
    _, line, col = entry
    if not items:
        raise ConfigParseError(line, col, f"{what}: empty entry in list")
    return tuple(_int((x, line, col), what) for x in items)


def _indexed_keys(section: dict, prefix: str, what: str, required: bool = True):
    """Contiguous prefix.0 .. prefix.N-1 entries, in order."""
    found = {}
    for key in section:
        if key.startswith(prefix + "."):
            suffix = key[len(prefix) + 1 :]
            _, line, col = section[key]
            try:
                idx = int(suffix)
            except ValueError:
                raise ConfigParseError(line, 1, f"{what}: bad index in key {key!r}") from None
            found[idx] = section[key]
    if not found:
        if not required:
            return []
        _, line, col = section[""]
        raise ConfigParseError(line, col, f"{what}: no {prefix}.<i> entries")
    if sorted(found) != list(range(len(found))):
        _, line, col = section[""]
        raise ConfigParseError(
            line, col, f"{what}: {prefix} indices must be contiguous from 0, got {sorted(found)}"
        )
    return [found[i] for i in range(len(found))]


def _parse_vector(text: str, entry, what: str) -> tuple:
    try:
        return tuple(float(x) for x in text.split(","))
    except ValueError:
        _, line, col = entry
        raise ConfigParseError(line, col, f"{what}: bad vector {text!r}") from None


def load_scenario_text(text: str) -> Scenario:
    sections = parse_blocks(text)
    _known_sections(sections)

    geo = _req(sections, "geometry")
    dimension = _int(_get(geo, "dimension"), "dimension")
    vertices = _tuple_list(_get(geo, "vertices"), "vertices", " ")
    entry = _get(geo, "simplices")
    simplices = [_ids(part.split(), entry, "simplices") for part in entry[0].split("|")]

    med = _req(sections, "media")
    wave_kind = _get(med, "wave_kind")[0].lower()
    if wave_kind not in ("em", "acoustic"):
        _, line, col = _get(med, "wave_kind")
        raise ConfigParseError(line, col, f"wave_kind must be em or acoustic, got {wave_kind!r}")
    medium_entries = _indexed_keys(med, "medium", "media")
    media: dict = {}
    for i, entry in enumerate(medium_entries):
        tokens = _token_map(entry, f"medium.{i}")
        if wave_kind == "em":
            if "n" not in tokens:
                _, line, col = entry
                raise ConfigParseError(line, col, f"medium.{i}: EM medium needs n=<index>")
            _known_tokens(tokens, EM_TOKENS, entry, f"medium.{i}")
            media[i] = EmMedium(refractive_index=_float(tokens["n"], f"medium.{i} n"))
        else:
            if "z" not in tokens or "c" not in tokens:
                _, line, col = entry
                raise ConfigParseError(
                    line, col, f"medium.{i}: acoustic medium needs z=<impedance> c=<speed>"
                )
            _known_tokens(tokens, ACOUSTIC_TOKENS, entry, f"medium.{i}")
            media[i] = AcousticMedium(
                impedance=_float(tokens["z"], f"medium.{i} z"),
                sound_speed=_float(tokens["c"], f"medium.{i} c"),
                density=_float(tokens["rho"], f"medium.{i} rho") if "rho" in tokens else None,
            )
    if len(media) != len(simplices):
        _, line, col = med[""]
        raise ConfigParseError(
            line, col, f"{len(media)} media for {len(simplices)} simplices; every simplex needs one"
        )

    cpx = build_complex(dimension, vertices, simplices, media={i: i for i in range(len(simplices))})

    rays_sec = _req(sections, "rays")
    # an empty [rays] block is legal: simulate then writes an empty trace file
    ray_entries = _indexed_keys(rays_sec, "ray", "rays", required=False)
    rays = []
    for i, entry in enumerate(ray_entries):
        tokens = _token_map(entry, f"ray.{i}")
        for need in RAY_TOKENS:
            if need not in tokens:
                _, line, col = entry
                raise ConfigParseError(line, col, f"ray.{i}: missing {need}=")
        _known_tokens(tokens, RAY_TOKENS, entry, f"ray.{i}")
        origin = _parse_vector(tokens["origin"][0], entry, f"ray.{i} origin")
        direction = _parse_vector(tokens["direction"][0], entry, f"ray.{i} direction")
        if len(origin) != dimension or len(direction) != dimension:
            _, line, col = entry
            raise ConfigParseError(line, col, f"ray.{i}: origin/direction must have {dimension} components")
        norm = math.sqrt(sum(d * d for d in direction))
        if norm == 0.0:
            _, line, col = entry
            raise ConfigParseError(line, col, f"ray.{i}: zero direction vector")
        direction = tuple(d / norm for d in direction)
        rays.append(
            Ray(
                origin=origin,
                direction=direction,
                length=_float(tokens["length"], f"ray.{i} length"),
                grid_step=_float(tokens["grid_step"], f"ray.{i} grid_step"),
            )
        )

    scenario = Scenario(complex=cpx, wave_kind=wave_kind, media=media, rays=rays)

    det = sections.get("detection", {"": ("", 0, 0)})
    if "tol" in det:
        scenario.tol = _float(det["tol"], "tol")
    if "noise_sigma" in det:
        scenario.noise_sigma = _float(det["noise_sigma"], "noise_sigma")
    if "seed" in det:
        scenario.seed = _int(det["seed"], "seed")
    if "paper_exact" in det:
        scenario.paper_exact = _bool(det["paper_exact"], "paper_exact")
    if "candidates" in det:
        pairs = _tuple_list(det["candidates"], "candidates", ",")
        for p in pairs:
            if len(p) != 2:
                _, line, col = det["candidates"]
                raise ConfigParseError(line, col, f"candidates: need pairs, got {p}")
        scenario.candidates = pairs

    if "vertices" in sections:
        for i, entry in enumerate(_indexed_keys(sections["vertices"], "check", "vertices")):
            tokens = _token_map(entry, f"check.{i}")
            if "criterion" not in tokens:
                _, line, col = entry
                raise ConfigParseError(line, col, f"check.{i}: missing criterion=")
            criterion = tokens["criterion"][0]
            if criterion not in RAYS_PER_CRITERION:
                _, line, col = entry
                raise ConfigParseError(line, col, f"check.{i}: unknown criterion {criterion!r}")
            if "ray" in tokens:
                ray_ids = (_int(tokens["ray"], f"check.{i} ray"),)
            elif "rays" in tokens:
                ray_ids = _ids(tokens["rays"][0].split(","), entry, f"check.{i} rays")
            else:
                _, line, col = entry
                raise ConfigParseError(line, col, f"check.{i}: missing ray= or rays=")
            _known_tokens(tokens, CHECK_TOKENS, entry, f"check.{i}")
            for r in ray_ids:
                if not 0 <= r < len(rays):
                    _, line, col = entry
                    raise ConfigParseError(line, col, f"check.{i}: no ray {r}")
            low, high, wanted = RAYS_PER_CRITERION[criterion]
            if not low <= len(ray_ids) <= high:
                _, line, col = entry
                raise ConfigParseError(
                    line, col, f"check.{i}: {criterion} takes {wanted}, got {len(ray_ids)}"
                )
            check = VertexCheck(
                criterion=criterion,
                ray_ids=ray_ids,
                tol=_float(tokens["tol"], f"check.{i} tol") if "tol" in tokens else scenario.tol,
            )
            if "window" in tokens:
                check.window = _float(tokens["window"], f"check.{i} window")
            if "position" in tokens:
                check.position = _parse_vector(tokens["position"][0], entry, f"check.{i} position")
            if "kappa_min" in tokens:
                check.kappa_min = _float(tokens["kappa_min"], f"check.{i} kappa_min")
            if "chi3" in tokens:
                check.chi3 = _float(tokens["chi3"], f"check.{i} chi3")
            if "pumps" in tokens:
                check.pumps = _parse_vector(tokens["pumps"][0], entry, f"check.{i} pumps")
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
    verdicts = []
    for check in scenario.vertex_checks:
        missing = [r for r in check.ray_ids if r not in by_id]
        if missing:
            raise SchemaMismatch(f"vertex check names ray(s) {missing} absent from the traces")
        trs = [by_id[r] for r in check.ray_ids]
        if check.criterion == "coupled_mode":
            window = check.window
            if window is None:
                window = float(trs[0].z[-1] - trs[0].z[0]) + trs[0].ray.grid_step
            verdicts.append(
                detect_vertex_coupled_mode(trs[0], trs[1], window, check.tol, check.kappa_min)
            )
        elif check.criterion == "cascade":
            verdicts.append(detect_vertex_cascade(trs, check.position, None, check.tol))
        else:
            verdicts.append(
                detect_vertex_fwm(trs[0], check.chi3, check.pumps, check.tol, check.window)
            )
    return DetectionReport(
        interface_hits=interface_hits,
        vertex_hits=verdicts_to_hits(verdicts),
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
