"""Locate the triqec sources of the checkout the benchmark runs in.

The benchmark always measures the package under ``src/`` of the current
directory, never an installed copy, so a checkout that lacks the sources
must fail instead of silently timing something else.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path


class MissingSource(RuntimeError):
    """The current directory holds no triqec sources."""


def source_dir() -> Path:
    src = Path.cwd() / "src"
    if not (src / "triqec" / "__init__.py").is_file():
        raise MissingSource(f"no triqec package under {src}; run from the root of a checkout")
    return src


def use_source() -> Path:
    """Put ``src/`` first on the import path and check triqec resolves there."""
    src = source_dir()
    sys.path.insert(0, str(src))
    import triqec

    if not Path(triqec.__file__).resolve().is_relative_to(src.resolve()):
        raise MissingSource(f"triqec imported from {triqec.__file__}, not from {src}")
    return src


def child_env(src: Path) -> dict[str, str]:
    """Environment for triqec subprocesses: the checkout's sources, no seed override."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    env.pop("TRIQEC_SEED", None)
    return env
