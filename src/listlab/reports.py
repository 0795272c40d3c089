"""Report envelopes: versioned JSON with a canonical byte region, plus CSV.

Every emitted report is {"schema": 1, "command": ..., "params": ...,
"results": ..., "meta": ...}. The canonical bytes cover everything except
"meta" (wall-clock time and similar non-reproducible fields live there), with
keys sorted and compact separators, so determinism checks can hash them.
Result records, queries and certificates inherit `Record`, whose `as_dict`
is the one place where a dataclass becomes JSON.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from dataclasses import fields
from fractions import Fraction

SCHEMA_VERSION = 1

# fixed column sets for every command with a CSV form
REPO_CSV_COLUMNS = {
    "oracle profile": ["list_size", "standard_radius", "average_radius"],
    "bounds table": [
        "q", "eps", "regime", "sampled_rate", "rs_rate", "johnson_rate",
        "capacity", "capacity_small_eps", "beats_johnson",
    ],
    "chain build": [
        "level", "lam_size", "coords", "pl_sum", "q_bound", "retries",
        "step_distance", "width_rhs", "holder_lhs", "holder_rhs",
    ],
    "experiment beyond-johnson": [
        "seed_index", "distance", "johnson_radius", "johnson_clamped",
        "standard_radii", "average_radii", "beyond_at",
    ],
}


class Record:
    """Base of the result dataclasses: `as_dict` writes every field by name.

    A Fraction becomes its exact string, a tuple or list a list, a dict keeps
    its keys with converted values, and a nested record its own dict.
    Subclasses extend `as_dict` only with keys that are not fields, such as
    the float twin of an exact value or a certificate's schema and kind (a
    net level also renames `lam` to `messages`).
    """

    def as_dict(self) -> dict:
        return {f.name: _jsonable(getattr(self, f.name)) for f in fields(self)}


def _jsonable(value):
    if hasattr(value, "as_dict"):
        return value.as_dict()
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (tuple, list)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    return value


def read_section(doc, known, what: str) -> dict:
    """`doc` if it is a JSON object whose keys all lie in `known`.

    The reader of every config section: anything else is a ValueError that
    names the section as `what` ("unknown <what>: [...]").
    """
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must form a JSON object, got {doc!r}")
    unknown = set(doc) - set(known)
    if unknown:
        raise ValueError(f"unknown {what}: {sorted(unknown)}")
    return doc


def require_keys(doc, keys, what: str) -> None:
    """A ValueError naming `what` unless `doc` is a JSON object with every key in `keys`."""
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be a JSON object")
    missing = [key for key in keys if key not in doc]
    if missing:
        raise ValueError(f"{what} lacks {missing}")


def build_report(command: str, params: dict, results: dict, meta: dict | None = None) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "command": command,
        "params": params,
        "results": results,
        "meta": meta or {},
    }


def canonical_bytes(report: dict) -> bytes:
    """The hashed region: the report without its meta block, key-sorted. A NaN
    or infinity, which JSON cannot carry, is a ValueError."""
    trimmed = {k: v for k, v in report.items() if k != "meta"}
    return json.dumps(trimmed, sort_keys=True, separators=(",", ":"), allow_nan=False).encode()


def render_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"


def render_csv(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
