"""Deterministic file formats: point sets, relations, analysis reports.

Every document is a JSON object with `format_version` and `kind` keys.
Rationals are written as lowest-terms strings ("3", "-1/2"), field
elements as {conductor, coeffs}.  Serialization is byte deterministic:
keys are sorted, floats use their shortest round-trip form, and a
trailing newline closes each file.
"""

from __future__ import annotations

import dataclasses
import json
import math
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _encode_str

from .cyclotomic import CycNum, _from_ints, phi, root_of_unity
from .distgraph import MODES, AnalysisReport
from .errors import WorkBudgetExceeded
from .mann import WORK_BUDGET, RelationTuple
from .pointsets import PointSet

FORMAT_VERSION = 1


def _parse_rational(s) -> tuple:
    """(num, den) of a rational string in lowest-terms form, "3" or "-1/2",
    with den 1 for an integer: the strings `str(Fraction)` writes, no other."""
    if not isinstance(s, str):
        raise ValueError(f"expected a rational string, got {s!r}")
    head, slash, tail = s.partition("/")
    try:
        num, den = int(head), int(tail) if slash else 1
        # int() also takes signs, spaces, "_" and non-ASCII digits; str() does not give them back
        digits = str(num) == head and str(den) == (tail if slash else "1") and den >= 1
    except ValueError:  # not an int, or more digits than int() converts
        digits = False
    if not digits:
        raise ValueError(f"bad rational {_clip(s)!r}: expected lowest-terms form such as '3' or '-1/2'")
    if math.gcd(num, den) != 1 or (slash and den == 1):
        raise ValueError(f"rational {_clip(s)!r} is not in lowest-terms form {_clip(str(Fraction(num, den)))!r}")
    return num, den


def _clip(s: str) -> str:
    return s if len(s) <= 40 else s[:40] + "..."


def str_to_fraction(s) -> Fraction:
    return Fraction(*_parse_rational(s))


class _Rationals(dict):
    """(num, den) of each rational string, parsed by `_parse_rational` on
    its first lookup only; one load shares one, as its points repeat a
    few strings, "0" most of all."""

    def __missing__(self, s):
        self[s] = parsed = _parse_rational(s)
        return parsed


def _strs_to_cycnum(n: int, strs: list, rationals: _Rationals) -> CycNum:
    """The element of conductor n whose phi(n) coordinates are the rational
    strings strs, scaled to the lcm of their denominators.

    Each distinct string is looked up once, in order of first occurrence,
    so the first bad string in strs is the one refused.  A list holding a
    value that is not a string is parsed value by value instead, and
    `_parse_rational` refuses its first bad value: a list or an object is
    never used as a key.
    """
    distinct = dict.fromkeys(strs) if set(map(type, strs)) == {str} else strs
    pairs = [rationals[s] if type(s) is str else _parse_rational(s) for s in distinct]
    den = math.lcm(*(d for _, d in pairs))
    scaled = {s: num * (den // d) for s, (num, d) in zip(distinct, pairs)}
    return _from_ints(n, list(map(scaled.__getitem__, strs)), den)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _coord_strs(x: CycNum) -> list:
    """x's coordinates as lowest-terms rational strings, read off nums / den;
    an integral point's zeros share one string, as most coordinates of large sets are 0."""
    if x.den == 1:
        return [str(c) if c else "0" for c in x.nums]
    gs = [math.gcd(c, x.den) for c in x.nums]
    return [str(c // g) if g == x.den else f"{c // g}/{x.den // g}" for c, g in zip(x.nums, gs)]


def cycnum_to_obj(x: CycNum) -> dict:
    return {"conductor": x.conductor, "coeffs": _coord_strs(x)}


def obj_to_cycnum(d) -> CycNum:
    if not isinstance(d, dict) or "conductor" not in d or "coeffs" not in d:
        raise ValueError("malformed field element")
    n, coeffs = d["conductor"], d["coeffs"]
    if not _is_int(n) or n < 1 or not isinstance(coeffs, list):
        raise ValueError("malformed field element")
    # phi(n) >= sqrt(n / 2), so the coefficient count bounds the conductor
    if n > 2 * len(coeffs) ** 2 or len(coeffs) != phi(n):
        raise ValueError(f"a field element of conductor {n} needs phi({n}) coefficients")
    return _strs_to_cycnum(n, coeffs, _Rationals())


# ---------------------------------------------------------------------------
# point sets
# ---------------------------------------------------------------------------

def pointset_to_obj(ps: PointSet) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kind": "pointset",
        "conductor": ps.conductor,
        "provenance": {
            "name": ps.provenance["name"],
            "params": ps.provenance.get("params", {}),
            "seed": ps.seed,
        },
        "points": [_coord_strs(p) for p in ps.points],
    }


def obj_to_pointset(d) -> PointSet:
    _expect(d, "pointset", ("conductor", "points"))
    conductor = d["conductor"]
    if not _is_int(conductor) or conductor < 1:
        raise ValueError("conductor must be a positive integer")
    prov = d.get("provenance", {})
    if not isinstance(prov, dict):
        raise ValueError("provenance must be an object")
    rows = d["points"]
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise ValueError("points must be a list of coefficient lists")
    # phi(n) >= sqrt(n / 2), so the row length bounds the conductor and
    # the factoring inside phi costs no more than the file's length
    if rows and conductor > 2 * len(rows[0]) ** 2:
        raise ValueError(f"conductor {conductor} needs more than {len(rows[0])} coefficients a point")
    if any(len(row) != phi(conductor) for row in rows):
        raise ValueError(f"every point needs phi({conductor}) = {phi(conductor)} coefficients")
    rationals = _Rationals()
    points = tuple(_strs_to_cycnum(conductor, row, rationals) for row in rows)
    return PointSet(
        conductor=conductor,
        points=points,
        provenance={"name": prov.get("name", ""), "params": prov.get("params", {})},
        seed=prov.get("seed", 0),
    )


# ---------------------------------------------------------------------------
# relation tuples
# ---------------------------------------------------------------------------

def relation_to_obj(t: RelationTuple) -> dict:
    m = math.lcm(2, *(r.conductor for r in t.roots))
    return {
        "format_version": FORMAT_VERSION,
        "kind": "relation",
        "k": len(t),
        "conductor": m,
        "roots": [int(turn * m) for turn in t.turns],
        "coeffs": [str(c) for c in t.coeffs],
        "target": cycnum_to_obj(t.target),
        "minimal": t.minimal,
    }


def obj_to_relation(d) -> RelationTuple:
    _expect(d, "relation", ("conductor", "roots", "coeffs", "target"))
    m = d["conductor"]
    if not _is_int(m) or m < 1:
        raise ValueError("conductor must be a positive integer")
    exps, coeffs, minimal = d["roots"], d["coeffs"], d.get("minimal", False)
    if not isinstance(exps, list) or not isinstance(coeffs, list):
        raise ValueError("roots and coeffs must be lists")
    if not all(_is_int(e) and 0 <= e < m for e in exps):
        raise ValueError(f"root exponents must be integers in [0, {m})")
    if not _is_int(d.get("k")) or d["k"] != len(exps):
        raise ValueError("relation length disagrees with its roots")
    if not isinstance(minimal, bool):
        raise ValueError("minimal must be true or false")
    coeffs = tuple(str_to_fraction(c) for c in coeffs)
    target = obj_to_cycnum(d["target"])
    # the check reads root rows of the table of r = rad(n), r * phi(r) ints, which
    # n * phi(n) bounds; n alone bounds that from below, so phi(n) is only taken for small n
    n = math.lcm(2, m, target.conductor)
    work = n if n > WORK_BUDGET else n * phi(n)
    if work > WORK_BUDGET:
        raise WorkBudgetExceeded(
            work,
            WORK_BUDGET,
            f"relation root table at conductor {n} is too large to check "
            f"(over {WORK_BUDGET} entries)",
        )
    return RelationTuple(
        roots=tuple(root_of_unity(e, m) for e in exps),
        coeffs=coeffs,
        target=target,
        minimal=minimal,
    )


def relations_to_obj(relations) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kind": "relation_list",
        "relations": [
            {k: v for k, v in relation_to_obj(t).items() if k != "format_version"}
            for t in relations
        ],
    }


def obj_to_relations(d) -> list:
    _expect(d, "relation_list", ("relations",))
    if not isinstance(d["relations"], list) or not all(isinstance(s, dict) for s in d["relations"]):
        raise ValueError("relations must be a list of objects")
    out = []
    for sub in d["relations"]:
        sub = dict(sub)
        sub["format_version"] = FORMAT_VERSION
        out.append(obj_to_relation(sub))
    return out


# ---------------------------------------------------------------------------
# analysis reports
# ---------------------------------------------------------------------------

def report_to_obj(r: AnalysisReport) -> dict:
    obj = {"format_version": FORMAT_VERSION, "kind": "analysis_report", **dataclasses.asdict(r)}
    obj["peel_threshold"] = str(r.peel_threshold)
    return obj


_REPORT_KEYS = tuple(f.name for f in dataclasses.fields(AnalysisReport))


def _is_ceiling(entry) -> bool:
    return (
        isinstance(entry, dict)
        and sorted(entry) == ["applicable", "holds"]
        and isinstance(entry["applicable"], bool)
        and isinstance(entry["holds"], (bool, type(None)))
    )


# every other report field is a count: an int that is not a bool
_REPORT_CHECKS = {
    "provenance_name": lambda x: isinstance(x, str),
    "mode": lambda x: x in MODES,
    "excess_exponent": lambda x: x is None or isinstance(x, float),
    "peel_threshold": lambda x: isinstance(x, str),
    "peeled_min_degree": lambda x: x is None or _is_int(x),
    "path_source_min": lambda x: x is None or _is_int(x),
    "bounds": lambda x: (
        isinstance(x, dict)
        and sorted(x) == sorted(_BOUND_KEYS)
        and all(isinstance(v, float) if key == "continuation_discounted" else _is_int(v) for key, v in x.items())
    ),
    "ceilings": lambda x: (
        isinstance(x, dict)
        and sorted(x) == sorted(_CSV_CEILINGS)
        and all(map(_is_ceiling, x.values()))
    ),
    "all_ceilings_hold": lambda x: isinstance(x, bool),
}


def obj_to_report(d) -> AnalysisReport:
    _expect(d, "analysis_report", _REPORT_KEYS)
    bad = [key for key in _REPORT_KEYS if not _REPORT_CHECKS.get(key, _is_int)(d[key])]
    if bad:
        raise ValueError(f"report fields of the wrong type: {', '.join(bad)}")
    fields = {key: d[key] for key in _REPORT_KEYS}
    fields["peel_threshold"] = str_to_fraction(d["peel_threshold"])
    fields["bounds"] = dict(d["bounds"])
    fields["ceilings"] = {k: dict(v) for k, v in d["ceilings"].items()}
    return AnalysisReport(**fields)


_CSV_CEILINGS = ("relation_count", "two_path", "peeling", "continuation")
_BOUND_KEYS = ("relation_count", "two_path", "continuation", "continuation_discounted")


def _csv_columns(key):
    """CSV columns of one report field, as (header, keys into the field) pairs."""
    if key == "bounds":
        return [(f"bound_{name}", (name,)) for name in _BOUND_KEYS]
    if key == "ceilings":
        parts = ("applicable", "holds")
        return [(f"ceiling_{name}_{p}", (name, p)) for name in _CSV_CEILINGS for p in parts]
    return [(key, ())]


_CSV_COLUMNS = [(key, head, path) for key in _REPORT_KEYS for head, path in _csv_columns(key)]

REPORT_CSV_HEADER = ["format_version"] + [head for _, head, _ in _CSV_COLUMNS]


def _cell(value) -> str:
    if value is None:
        return ""
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def report_csv_row(r: AnalysisReport) -> list:
    row = [_cell(FORMAT_VERSION)]
    for key, _, path in _CSV_COLUMNS:
        value = getattr(r, key)
        for part in path:
            value = value[part]
        row.append(_cell(value))
    return row


def report_csv_text(reports) -> str:
    lines = [",".join(REPORT_CSV_HEADER)]
    for r in reports:
        lines.append(",".join(report_csv_row(r)))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# files
# ---------------------------------------------------------------------------

def canonical_json(doc) -> str:
    """`json.dumps(doc, sort_keys=True, indent=2)` plus a newline, for
    documents whose object keys are strings."""
    return _json_text(doc, "\n") + "\n"


def _json_text(x, newline) -> str:
    """x as `json.dumps(..., sort_keys=True, indent=2)` writes it at the
    indent that `newline` ("\n" and the indent) carries; a list of strings,
    such as a point's coordinates, is written with one join."""
    if isinstance(x, dict) and x:
        inner = newline + "  "
        items = (f"{_encode_str(k)}: {_json_text(x[k], inner)}" for k in sorted(x))
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(x, (list, tuple)) and x:
        inner = newline + "  "
        if all(type(v) is str for v in x):
            items = map(_encode_str, x)
        else:
            items = (_json_text(v, inner) for v in x)
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    return json.dumps(x)


def save_json(path, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(doc))


def _reject_constant(name):
    raise ValueError(f"{name} is not a JSON value")


def _json_int(text):
    try:
        return int(text)
    except ValueError:  # more digits than int() converts
        raise ValueError(f"integer of {len(text)} digits is too long") from None


def _json_float(text):
    x = float(text)
    if not math.isfinite(x):  # a literal past the double range, such as 1e999
        raise ValueError(f"number {_clip(text)} is out of range")
    return x


def load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(
                fh, parse_constant=_reject_constant, parse_float=_json_float, parse_int=_json_int
            )
        except RecursionError:
            raise ValueError("document is nested too deeply") from None
    if not isinstance(doc, dict):
        raise ValueError("document root must be an object")
    return doc


def _expect(d, kind: str, keys=()) -> None:
    if not isinstance(d, dict):
        raise ValueError(f"malformed {kind} document")
    if d.get("format_version") != FORMAT_VERSION:
        raise ValueError(
            f"unsupported format_version {d.get('format_version')!r}, expected {FORMAT_VERSION}"
        )
    if d.get("kind") != kind:
        raise ValueError(f"expected a {kind} document, got {d.get('kind')!r}")
    missing = [k for k in keys if k not in d]
    if missing:
        raise ValueError(f"{kind} document is missing keys: {', '.join(missing)}")


def load_pointset(path) -> PointSet:
    return obj_to_pointset(load_json(path))


def save_pointset(path, ps: PointSet) -> None:
    save_json(path, pointset_to_obj(ps))


def load_report(path) -> AnalysisReport:
    return obj_to_report(load_json(path))


def save_report(path, r: AnalysisReport) -> None:
    save_json(path, report_to_obj(r))


def load_relations(path) -> list:
    return obj_to_relations(load_json(path))


def save_relations(path, relations) -> None:
    save_json(path, relations_to_obj(relations))
