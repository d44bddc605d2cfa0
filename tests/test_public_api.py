"""The public API surface: every advertised name imports and resolves,
and every top-level name in ``src/repro`` has a caller outside tests."""

import ast
import functools
import importlib
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]

PACKAGES = [
    "repro",
    "repro.tensor",
    "repro.nn",
    "repro.optim",
    "repro.data",
    "repro.graphs",
    "repro.core",
    "repro.baselines",
    "repro.eval",
    "repro.rebalance",
    "repro.utils",
]


class TestPublicAPI:
    @pytest.mark.parametrize("package", PACKAGES)
    def test_package_imports(self, package):
        module = importlib.import_module(package)
        assert module is not None

    @pytest.mark.parametrize("package", PACKAGES)
    def test_all_names_resolve(self, package):
        module = importlib.import_module(package)
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{package}.__all__ lists missing {name!r}"

    @pytest.mark.parametrize("package", PACKAGES)
    def test_module_docstring(self, package):
        module = importlib.import_module(package)
        assert module.__doc__, f"{package} lacks a module docstring"

    def test_version(self):
        import repro

        assert repro.__version__ == "1.0.0"

    def test_registries_cover_table1(self):
        """The baseline registries plus STGNN-DJD span Table I's methods."""
        from repro.baselines import CLASSICAL_BASELINES, DEEP_BASELINES

        methods = set(CLASSICAL_BASELINES) | set(DEEP_BASELINES) | {"STGNN-DJD"}
        expected = {
            "HA", "ARIMA", "XGBoost", "MLP", "RNN", "LSTM",
            "GCNN", "MGNN", "ASTGCN", "STSGCN", "GBike", "STGNN-DJD",
        }
        assert methods == expected

    def test_public_classes_documented(self):
        """Every public class/function in the top-level API has a docstring."""
        import repro

        for name in repro.__all__:
            obj = getattr(repro, name)
            if callable(obj):
                assert obj.__doc__, f"repro.{name} lacks a docstring"


# ----------------------------------------------------------------------
# Reachability: a top-level def or class in src/repro is reached when its
# name appears (as a word, so a docstring cross-reference counts) in
#   * examples/, benchmarks/ or perfbench/;
#   * src/ module-level code, not counting imports, ``__all__`` or the
#     module docstring (so a package re-export alone reaches nothing);
#   * the body of a def or class that is itself reached.
# ----------------------------------------------------------------------
CALLER_DIRS = ("examples", "benchmarks", "perfbench")

_BACKEND = ("repro.backend stays whole: perfbench imports it, and folding "
            "it into repro.tensor comes with a perfbench edit")
_REAL = ("the CSV loader for the Divvy and LA Metro exports; Table I on "
         "real data waits until those files are in the repository")
_SEAM = "a test seam: scoped global state that tests set and restore"

#: Unreached names that stay, each with the reason it stays.
UNREACHED_ALLOWED = {
    "repro/backend/pool.py:active_pool": _BACKEND,
    "repro/backend/registry.py:has_op": _BACKEND,
    "repro/data/real.py:RealImport": _REAL,
    "repro/data/real.py:detect_layout": _REAL,
    "repro/data/real.py:parse_timestamp": _REAL,
    "repro/data/real.py:read_real_trips": _REAL,
    "repro/data/real.py:window_days": _REAL,
    "repro/faults/plan.py:disarm": _SEAM,
    "repro/obs/events.py:active_sink": _SEAM,
    "repro/obs/registry.py:metrics_enabled": _SEAM,
    "repro/obs/registry.py:metrics_scope": _SEAM,
    "repro/obs/trace.py:seed_trace_ids": _SEAM,
    "repro/obs/trace.py:trace_scope": _SEAM,
}

_WORD = re.compile(r"[A-Za-z_]\w*")
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _words(text: str) -> set[str]:
    return set(_WORD.findall(text))


def _counts_as_code(index: int, stmt: ast.stmt) -> bool:
    if isinstance(stmt, (ast.Import, ast.ImportFrom)):
        return False
    if index == 0 and isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
        return False  # module docstring
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    return not any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


@functools.cache
def unreached_names() -> frozenset[str]:
    """``"<module path>:<name>"`` of every top-level def or class in
    src/repro that nothing outside tests/ reaches."""
    seen: set[str] = set()
    for directory in CALLER_DIRS:
        for path in (REPO / directory).rglob("*.py"):
            seen |= _words(path.read_text(encoding="utf-8"))
    bodies: dict[str, list[tuple[str, str]]] = {}  # name -> (module, source)
    src = REPO / "src"
    for path in sorted((src / "repro").rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        module = path.relative_to(src).as_posix()

        def source(node: ast.AST) -> str:
            return "\n".join(lines[node.lineno - 1:node.end_lineno])

        for index, stmt in enumerate(ast.parse(text).body):
            if isinstance(stmt, _DEFS):
                # From the def/class line on: decorators run at import,
                # so they count as module-level code.
                bodies.setdefault(stmt.name, []).append((module, source(stmt)))
                for decorator in stmt.decorator_list:
                    seen |= _words(source(decorator))
            elif _counts_as_code(index, stmt):
                seen |= _words(source(stmt))
    reached: set[str] = set()
    frontier = seen & bodies.keys()
    while frontier:
        name = frontier.pop()
        reached.add(name)
        for _, body in bodies[name]:
            frontier |= (_words(body) & bodies.keys()) - reached
    return frozenset(
        f"{module}:{name}"
        for name, sites in bodies.items() if name not in reached
        for module, _ in sites
    )


class TestReachability:
    def test_every_name_has_a_caller_outside_tests(self):
        unexpected = sorted(unreached_names() - UNREACHED_ALLOWED.keys())
        assert not unexpected, (
            "only tests reach these names; delete them, or give each an "
            "UNREACHED_ALLOWED entry with the reason it stays:\n  "
            + "\n  ".join(unexpected)
        )

    def test_allowlist_entries_are_still_unreached(self):
        stale = sorted(UNREACHED_ALLOWED.keys() - unreached_names())
        assert not stale, f"reached or gone, drop from UNREACHED_ALLOWED: {stale}"
