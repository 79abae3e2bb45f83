"""Shared fixtures: backend availability, cached census runs and an
import scan.

When `linkcensus` is imported from this checkout's `src/`, the session
first builds the compiled kernel in place (`python setup.py build_ext
--inplace`) if it is missing or older than `_engine.c`.  A failed build
does not stop collection; its output is kept in `ENGINE_BUILD_LOG` so
that tests which need the kernel can show it.
"""

import ast
import functools
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

import linkcensus
from linkcensus.search import CensusResult, SearchConfig, enumerate_census

REPO = Path(__file__).resolve().parent.parent
ENGINE_C = REPO / "src" / "linkcensus" / "_engine.c"


def _engine_is_current() -> bool:
    spec = importlib.util.find_spec("linkcensus._engine")
    return (spec is not None
            and Path(spec.origin).stat().st_mtime >= ENGINE_C.stat().st_mtime)


def build_engine_in_place() -> str:
    """Build `linkcensus._engine` next to the sources when it is missing
    or stale; return the build output ('' when nothing was built)."""
    if (Path(linkcensus.__file__).resolve().parent != ENGINE_C.parent
            or _engine_is_current()):
        return ""
    proc = subprocess.run([sys.executable, "setup.py", "build_ext", "--inplace"],
                          cwd=REPO, capture_output=True, text=True)
    importlib.invalidate_caches()
    return (f"$ python setup.py build_ext --inplace  (exit {proc.returncode})\n"
            f"{proc.stdout}{proc.stderr}")


ENGINE_BUILD_LOG = build_engine_in_place()


def fast_backend_available() -> bool:
    try:
        from linkcensus import _engine  # noqa: F401
        return True
    except ImportError:
        return False


needs_fast = pytest.mark.skipif(
    not fast_backend_available(),
    reason="compiled engine not built",
)


@functools.lru_cache(maxsize=None)
def census(n: int, mode: str = "all", level: int = 2,
           backend: str | None = None) -> CensusResult:
    config = SearchConfig(n=n, mode=mode, level=level)
    return enumerate_census(config, backend=backend)


def imported_modules(path: Path) -> set[str]:
    """Every dotted part of every name the source file `path` imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return {part for name in names for part in name.split(".")}
