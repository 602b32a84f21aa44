"""Locate the checkout the benchmark runs in and load qkdlab from its sources."""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: spans and layer totals of traced runs are written here
OUT_DIR = ROOT / ".perfbench"


def has_sources() -> bool:
    return (SRC / "qkdlab" / "__init__.py").is_file()


def use_checkout_sources() -> None:
    """Put src/ first on sys.path and make sure qkdlab is imported from it."""
    if not has_sources():
        raise SystemExit(f"perfbench: no qkdlab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import qkdlab

    if Path(qkdlab.__file__).resolve().parent != SRC / "qkdlab":
        raise SystemExit(f"perfbench: qkdlab was imported from {qkdlab.__file__}, not {SRC}")
