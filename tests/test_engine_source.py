"""The shipped sources: `_engine.c` is current with `_engine.pyx`, and
`src/` defines nothing that only the tests reach.

`setup.py` compiles the pre-generated `_engine.c`, so the C file rather
than the .pyx is the kernel the suite checks.  The check is the
benchmark's own `check_provenance` (`perfbench/run.py`): every source
line that Cython quotes in a `"linkcensus/_engine.pyx":N` comment block
must equal the .pyx line it stands for.  Both checks read their files
relative to the root of the checkout.
"""

import ast
import importlib.util
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "linkcensus"


def test_engine_c_quotes_current_pyx(monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", REPO / "perfbench" / "run.py")
    bench = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, bench)
    spec.loader.exec_module(bench)
    monkeypatch.chdir(REPO)
    try:
        bench.check_provenance()
    except bench.BenchError as exc:
        pytest.fail(f"{exc}; regenerate _engine.c as setup.py describes")


def _referenced(node: ast.AST) -> set[str]:
    """Names, attributes and imported names used anywhere under `node`;
    strings and docstrings name nothing."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name.rsplit(".", 1)[-1])
    return names


def _assigned(path: Path, target: str):
    """The literal value assigned to the module-level name `target`."""
    for node in ast.parse(path.read_text()).body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == target
                        for t in node.targets)):
            return ast.literal_eval(node.value)
    return ()


def _defined(node: ast.stmt) -> list[str]:
    """The names a module-level statement defines: a function or class,
    or the plain names it assigns, dunder names apart."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [t.id for t in targets if isinstance(t, ast.Name)
            and not (t.id.startswith("__") and t.id.endswith("__"))]


def test_src_defines_only_what_the_program_reaches():
    """Every top-level function, class and assigned name in `src/` is
    referenced in `src/` outside its own definition, exported in
    `__all__`, or patched by name through `PATCHES` in
    `perfbench/tracer.py`; dunder names are exempt.  Code and tables that
    only the tests read belong in `tests/oracles.py`."""
    definitions = {}  # (module, name) -> the names its own statement uses
    used = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            names = _referenced(node)
            defined = _defined(node)
            for name in defined:
                definitions[(path.stem, name)] = names
            if not defined:
                used |= names
    for key, names in definitions.items():
        used |= {name for name in names if name != key[1]}
    used |= set(_assigned(SRC / "__init__.py", "__all__"))
    patched = {(module, attr) for module, attr, _ in
               _assigned(REPO / "perfbench" / "tracer.py", "PATCHES")}
    unreached = sorted(f"{module}.{name}" for module, name in definitions
                       if name not in used and (module, name) not in patched)
    assert unreached == []
