"""Locate the checkout's library and load the modules the benchmark drives.

The benchmark runs from a source checkout: the package is imported from
``src/`` next to this directory, never from an installed copy.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

MODULES = ("analytics", "catalog", "combinatorics", "counting", "enumeration", "hnf",
           "polynomials", "verify")


def load() -> SimpleNamespace:
    """The library's modules by short name; exits when the checkout lacks them."""
    package = SRC / "subring_census"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no library at {package}; run from a full source checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    mods = {name: importlib.import_module(f"subring_census.{name}") for name in MODULES}
    loaded_from = Path(mods["hnf"].__file__).resolve().parent
    if loaded_from != package:
        sys.exit(f"perfbench: imported subring_census from {loaded_from}, expected {package}")
    return SimpleNamespace(**mods)
