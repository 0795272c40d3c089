"""Run configuration: tuning constants, enumeration budgets, defaults.

The config file is JSON with up to three keys: "constants" (see
ConstantsConfig), "budgets" (enumeration caps for the exhaustive routines),
and "defaults" (only the eta rule for the net hierarchy, which must be the
fixed DEFAULT_ETA_RULE; reports echo it for provenance).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields

from .errors import InfeasibleError
from .reports import Record, read_section

DEFAULT_ETA_RULE = "1/log2(L)"
MAX_SCAN_LENGTH = 53  # longest exact packed scan histogram: 2^n, an exact float64 to n = 53


@dataclass(frozen=True)
class ConstantsConfig(Record):
    """Tunable constants for the sampled-code bound and the chaining checks.

    Defaults are 1.0 except the chaining knobs: c1 defaults to 16.0 so the
    coupling c1 >= 16 * C5 holds at the default C5 = 1.0, and c0 (the list
    size below which chaining degenerates to a single level) defaults to 16.
    """

    C0: float = 1.0
    C3: float = 1.0
    C4: float = 1.0
    C5: float = 1.0
    C6: float = 1.0
    C7: float = 1.0
    c0: float = 16.0
    c1: float = 16.0

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
                raise ValueError(f"constant {f.name} must be a positive finite real, got {v!r}")
            object.__setattr__(self, f.name, float(v))

    def validate_chaining(self) -> None:
        """Coupling required whenever the chaining checks run."""
        if self.c1 < 16 * self.C5:
            raise ValueError(f"chaining requires c1 >= 16*C5, got c1={self.c1}, C5={self.C5}")


def constants_from_dict(doc: dict) -> ConstantsConfig:
    known = [f.name for f in fields(ConstantsConfig)]
    return ConstantsConfig(**read_section(doc, known, "constants"))


@dataclass(frozen=True)
class Budgets(Record):
    """Caps on exhaustive enumeration sizes, and the checks that charge them.

    Every exact computation takes one of these as its `budgets` keyword and
    completes within it, raises InfeasibleError, or, where its caller allows,
    gives a sampled answer labelled as such. Three things are charged: the N
    codewords of a row space, the q^n * N comparisons of an exhaustive
    received-word scan, and the subsets of a subset enumeration. `mass_route`
    picks a plurality mass's route from the last two.
    """

    max_codewords: int = 1 << 22
    max_received_words: int = 1 << 28
    max_subsets: int = 1 << 22

    def __post_init__(self):
        for name in ("max_codewords", "max_received_words", "max_subsets"):
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool) or v < 1:
                raise ValueError(f"{name} must be a positive integer, got {v!r}")

    def check_codewords(self, n_words: int) -> None:
        """Refuse to enumerate a row space of more than max_codewords words."""
        if n_words > self.max_codewords:
            raise InfeasibleError(f"row space has {n_words} codewords, budget {self.max_codewords}")

    def scan_cost(self, code) -> int:
        """Comparisons of an exhaustive scan of `code`: q^n received words
        against its N codewords."""
        return code.field.q**code.n * code.size

    def check_scan(self, code, what: str) -> None:
        """Refuse an exhaustive scan of `code` costing more than max_received_words."""
        cost = self.scan_cost(code)
        if cost > self.max_received_words:
            raise InfeasibleError(
                f"{what} needs {cost} comparisons, budget {self.max_received_words}"
            )

    def mass_route(self, code, L: int, *, sampled: bool = False) -> str:
        """Route of a plurality mass of `code` at list size L: "scan" when its
        q^n * N comparisons fit max_received_words, n <= MAX_SCAN_LENGTH, and
        cost no more than the C(N, L) subsets or those are over max_subsets,
        else "subsets". Over both budgets: "sampled" if the caller allows it,
        else InfeasibleError. Callers charge max_codewords (a vacuous query never does)."""
        scan_cost = self.scan_cost(code)
        subset_count = math.comb(code.size, L)
        scan_ok = scan_cost <= self.max_received_words and code.n <= MAX_SCAN_LENGTH
        subsets_ok = subset_count <= self.max_subsets
        if not scan_ok and not subsets_ok:
            if sampled:
                return "sampled"
            past = f" at length {code.n} > {MAX_SCAN_LENGTH}" if code.n > MAX_SCAN_LENGTH else ""
            raise InfeasibleError(
                f"exact mass needs a scan of {scan_cost} comparisons{past} or {subset_count} "
                f"subsets; budgets are {self.max_received_words} and {self.max_subsets}"
            )
        return "scan" if scan_ok and (not subsets_ok or scan_cost <= subset_count) else "subsets"


def budgets_from_dict(data: dict) -> Budgets:
    known = [f.name for f in fields(Budgets)]
    return Budgets(**read_section(data, known, "budget keys"))


@dataclass(frozen=True)
class RunConfig(Record):
    """Everything a command needs beyond its own arguments."""

    constants: ConstantsConfig = field(default_factory=ConstantsConfig)
    budgets: Budgets = field(default_factory=Budgets)

    def as_dict(self) -> dict:
        return {**super().as_dict(), "defaults": {"eta_rule": DEFAULT_ETA_RULE}}


def config_from_dict(data: dict) -> RunConfig:
    read_section(data, ("constants", "budgets", "defaults"), "config keys")
    constants = constants_from_dict(data.get("constants", {}))
    budgets = budgets_from_dict(data.get("budgets", {}))
    defaults = read_section(data.get("defaults", {}), ("eta_rule",), "default keys")
    eta_rule = defaults.get("eta_rule", DEFAULT_ETA_RULE)
    if eta_rule != DEFAULT_ETA_RULE:
        raise ValueError(f"unsupported eta rule {eta_rule!r}")
    return RunConfig(constants=constants, budgets=budgets)


def load_config(path: str) -> RunConfig:
    with open(path, encoding="utf-8") as fh:
        return config_from_dict(json.load(fh))
