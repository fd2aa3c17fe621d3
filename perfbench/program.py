"""Locating the program under test: the otto_tls sources of this checkout."""

from __future__ import annotations

import importlib
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def require_source() -> None:
    """Exit with status 2 unless this checkout holds the otto_tls sources."""
    if not (SRC / "otto_tls" / "__init__.py").is_file():
        sys.exit(f"perfbench: no otto_tls sources under {SRC}")


def child_env() -> dict[str, str]:
    """Environment for running the CLI from this checkout's sources."""
    return dict(os.environ, PYTHONPATH=str(SRC))


def import_package():
    """Import otto_tls from this checkout, never from an installed copy."""
    require_source()
    sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("otto_tls")
    if Path(pkg.__file__).resolve().parent != SRC / "otto_tls":
        sys.exit(f"perfbench: imported otto_tls from {pkg.__file__}, not {SRC}")
    return pkg
