"""Guards on the shape of the source tree."""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Public functions that no src code and no benchmark operation calls, each
# kept for the tests, with the reason.
UNCALLED = {
    "gamma_seifert_form": "an independent closed form of gamma, checked against seifert_traces(ctx)[2]",
    "char_poly": "the tests' entry to the power-sum path, checked against sympy and a resultant",
    "fixtures_to_json": "writes the edited fixture files of the verify-paper negative controls",
}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def _used_names(tree: ast.Module) -> set:
    """Every name read as a variable or an attribute; import aliases,
    docstrings and comments are not among them."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def unread_imports(root: Path) -> set:
    """(file, name) for each name that a module of root/src/cvtk or root/tests
    imports and never reads.  `from __future__` imports are directives, and
    what the package's __init__ imports is there for its importers."""
    out = set()
    for path in sorted([*(root / "src" / "cvtk").glob("*.py"), *(root / "tests").glob("*.py")]):
        if path == root / "src" / "cvtk" / "__init__.py":
            continue
        tree = _parse(path)
        used = _used_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            out.update((path.relative_to(root).as_posix(), name)
                       for name in bound if name not in used)
    return out


def uncalled_public_functions(root: Path) -> set:
    """Module-level public functions of root/src/cvtk that no src module and
    no call of perfbench/child.py names."""
    trees = [_parse(path) for path in sorted((root / "src" / "cvtk").glob("*.py"))]
    used = set().union(*map(_used_names, trees + [_parse(root / "perfbench" / "child.py")]))
    return {
        node.name
        for tree in trees
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and not node.name.startswith("_")
        and node.name not in used
    }


def test_every_public_function_has_a_caller():
    """A public function that only the tests reach is either deleted or
    named in UNCALLED with its reason.  Methods are out of scope: names such
    as content and to_json belong to several classes, so a use of one cannot
    be told from a use of another by name."""
    assert uncalled_public_functions(ROOT) == set(UNCALLED)


def test_every_import_is_read():
    """An import that nothing reads still costs its load on every run that
    reaches the module, and hides which dependencies are real."""
    assert unread_imports(ROOT) == set()


def environment_reads(root: Path) -> set:
    """(file, line) of each read of the process environment in a module of
    root/src/cvtk: os.environ, os.getenv, or either imported from os."""
    names = {"environ", "getenv"}
    out = set()
    for path in sorted((root / "src" / "cvtk").glob("*.py")):
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Attribute):
                hit = isinstance(node.value, ast.Name) and node.value.id == "os" and node.attr in names
            elif isinstance(node, ast.ImportFrom):
                hit = node.module == "os" and any(alias.name in names for alias in node.names)
            else:
                continue
            if hit:
                out.add((path.relative_to(root).as_posix(), node.lineno))
    return out


def test_src_reads_no_environment():
    """What a run does is set by its arguments alone: an environment
    variable is a second, unlisted input that the option table's validation
    never sees."""
    assert environment_reads(ROOT) == set()


def concurrency_imports(root: Path) -> set:
    """(file, module) for each import of threading, multiprocessing or
    concurrent, or of a submodule of one, in a module of root/src/cvtk."""
    banned = {"threading", "multiprocessing", "concurrent"}
    out = set()
    for path in sorted((root / "src" / "cvtk").glob("*.py")):
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                modules = [node.module]
            else:
                continue
            out.update((path.relative_to(root).as_posix(), m)
                       for m in modules if m.split(".")[0] in banned)
    return out


def test_src_starts_no_threads_or_processes():
    """cvtk is single-process: nothing starts a thread or a worker, so its
    module caches (cheb's polynomial tables among them) are filled without
    a lock."""
    assert concurrency_imports(ROOT) == set()


def modular_importers(root: Path) -> set:
    """The modules of root/src/cvtk, ratpoly aside, that import a name of
    ratpoly's GF(p) helpers: a _gfb* or _gf_* function, or _GFB_PRIMES."""
    out = set()
    for path in sorted((root / "src" / "cvtk").glob("*.py")):
        if path.name == "ratpoly.py":
            continue
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.ImportFrom) and any(
                alias.name.startswith(("_gfb", "_gf_")) or alias.name == "_GFB_PRIMES"
                for alias in node.names
            ):
                out.add(path.name)
    return out


def test_one_owner_of_modular_arithmetic():
    """Modular arithmetic serves two jobs outside ratpoly: factor's
    irreducibility certificate and numfield's non-square witness.  A fact
    decided mod p elsewhere, such as the mod-2 meridian certificate, is read
    from the routine that owns it (cheb.square_mod_two), not derived again."""
    assert modular_importers(ROOT) == {"factor.py", "numfield.py"}


def function_local_imports(root: Path) -> list:
    """(file, line, module) of each import inside a function body in a
    module of root/src/cvtk."""
    out = []
    for path in sorted((root / "src" / "cvtk").glob("*.py")):
        for func in ast.walk(_parse(path)):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    modules = [node.module]
                else:
                    continue
                out.extend((path.relative_to(root).as_posix(), node.lineno, m) for m in modules)
    return sorted(set(out))


def test_imports_are_at_module_level():
    """An import inside a function hides a dependency and is paid again on
    every call.  The one exception is dataclasses in the package's
    __init__, loaded only when a record is assigned to, since importing it
    is most of the CLI's start-up (see the next test)."""
    found = function_local_imports(ROOT)
    assert [(path, module) for path, _, module in found] == [
        ("src/cvtk/__init__.py", "dataclasses"),
        ("src/cvtk/__init__.py", "dataclasses"),
    ], found


def test_cli_import_loads_no_dataclasses_or_inspect():
    """Every invocation pays for what `import cvtk.cli` loads, and dataclasses
    with the inspect, ast and dis it pulls in was most of that; random, with
    the hashlib and os.urandom seeding it does on import, has no use in
    exact code.  The interpreter starts with -S, as a site hook may import
    random before any user code, and only the modules the import adds
    count.  The GF(p) translate rows and inverses are built on first use,
    into one per-prime cache, so after the import that cache is still
    empty."""
    code = (
        "import sys; before = set(sys.modules); import cvtk.cli; "
        "print(sorted({'dataclasses', 'inspect', 'random'} & (set(sys.modules) - before)), "
        "sys.modules['cvtk.ratpoly']._GFB_TABLES)"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[] {}\n"


def test_detect_builds_no_parser_and_loads_no_locale():
    """A well-formed argv is read off the option table: argparse's first
    parser in a process looks up gettext catalogues, which imports locale,
    and that was the largest cost of a small detect run.  As above, only
    the modules the run adds count."""
    code = (
        "import argparse, contextlib, io, sys\n"
        "built = []\n"
        "real = argparse.ArgumentParser.__init__\n"
        "def counted(self, *args, **kwargs):\n"
        "    built.append(self)\n"
        "    real(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counted\n"
        "before = set(sys.modules)\n"
        "import cvtk.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cvtk.cli.main(['detect', '--n', '4', '--json'])\n"
        "print(code, 'locale' in set(sys.modules) - before, len(built))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0 False 0\n"
