"""listlab: a finite-field coding lab.

Exact small-scale oracles for (average-radius) list decodability, plurality
calculus over codeword sets, Johnson-type agreement bounds, and Monte Carlo
experiments for a Gaussian chaining construction over randomly sampled codes.

`listlab.<module>` imports that submodule the first time it is read, so
importing the package loads none of them (and no numpy).
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

_SUBMODULES = frozenset({
    "bounds", "chaining", "cli", "config", "errors", "galois", "harness",
    "linear_code", "oracle", "plurality", "reports", "seeds",
})


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
