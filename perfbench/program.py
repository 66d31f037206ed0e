"""Import leibniz_lab from the src/ tree of the checkout this directory sits in."""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = ("scalars", "linalg", "algebra", "blocks", "pencil", "classify", "iso", "formats", "cli")


def load():
    """The leibniz_lab submodules, by short name.

    Exits with status 2 when the checkout holds no leibniz_lab sources, so a
    copy of the benchmark alone fails instead of measuring another install.
    """
    init = SRC / "leibniz_lab" / "__init__.py"
    if not init.is_file():
        print(f"error: no leibniz_lab sources at {init}", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("leibniz_lab")
    if Path(pkg.__file__).resolve() != init.resolve():
        print(f"error: leibniz_lab imported from {pkg.__file__}", file=sys.stderr)
        raise SystemExit(2)
    return {name: importlib.import_module(f"leibniz_lab.{name}") for name in MODULES}


def fixture_path(name):
    return SRC / "leibniz_lab" / "fixtures" / name
