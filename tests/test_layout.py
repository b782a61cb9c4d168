"""Guards on the shape of the source tree."""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Public names of src that no src module and no benchmark operation reads,
# each kept for the tests, with the reason.
UNCALLED = {}

# Public names that perfbench/child.py reads and no src module does, with
# the reason.  ROADMAP item 9 deletes them once the benchmark reads spans.
BENCH_ONLY = {
    "longitude_trace": "the fields workload's longitude stage; the report "
                       "reads the longitude off the meridian's minimal polynomial",
}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def _read_names(tree: ast.Module) -> set:
    """Every name read as a variable.  An attribute such as cmath.exp is not
    a read of an imported exp, so it cannot hide one that is never read."""
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def unread_imports(root: Path) -> set:
    """(file, name) for each name that a module of root/src/cvtk or root/tests
    imports and never reads.  `from __future__` imports are directives, and
    what the package's __init__ imports is there for its importers."""
    out = set()
    for path in sorted([*(root / "src" / "cvtk").glob("*.py"), *(root / "tests").glob("*.py")]):
        if path == root / "src" / "cvtk" / "__init__.py":
            continue
        tree = _parse(path)
        used = _read_names(tree)
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


def public_names(root: Path) -> tuple:
    """({module: its public functions, classes and constants}, the public
    methods of its classes) for the modules of root/src/cvtk, "cvtk" for the
    package and "cvtk.<name>" for the rest.  Dunders are protocol, not
    names that a caller spells."""
    top, methods = {}, set()
    for path in sorted((root / "src" / "cvtk").glob("*.py")):
        names = set()
        for node in _parse(path).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names.update(t.id for t in targets if isinstance(t, ast.Name))
            if isinstance(node, ast.ClassDef):
                methods.update(m.name for m in node.body if isinstance(m, ast.FunctionDef))
        top[_module_of(path)] = {name for name in names if not name.startswith("_")}
    return top, {name for name in methods if not name.startswith("_")}


def _module_of(path: Path) -> str:
    return "cvtk" if path.stem == "__init__" else f"cvtk.{path.stem}"


def _reads(path: Path) -> tuple:
    """(dotted names, attributes) that the module at path reads.  A read of
    an imported name, or of an attribute of an imported module, is resolved
    to "cvtk.<module>.<name>", and an unbound name of a src module to one of
    its own; so a module-level name is told from a field or method that
    shares it.  Every attribute read also counts as a read of any method of
    that name."""
    tree = _parse(path)
    own = _module_of(path) if path.parent.name == "cvtk" else None
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # import a.b binds a; import a.b as c binds c to a.b
                head = alias.name.split(".")[0]
                bound[alias.asname or head] = alias.name if alias.asname else head
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = "cvtk" + (f".{base}" if base else "")
            for alias in node.names:
                bound[alias.asname or alias.name] = f"{base}.{alias.name}"

    def dotted(node):
        if isinstance(node, ast.Name):
            if node.id in bound:
                return bound[node.id]
            return own and f"{own}.{node.id}"
        if isinstance(node, ast.Attribute):
            head = dotted(node.value)
            return head and f"{head}.{node.attr}"
        return None

    loads = [node for node in ast.walk(tree)
             if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)]
    return ({dotted(node) for node in loads} - {None},
            {node.attr for node in loads if isinstance(node, ast.Attribute)})


def unread_public_names(root: Path, readers) -> set:
    """The public names of root/src/cvtk that no module at the paths
    `readers` reads."""
    top, methods = public_names(root)
    reads, attrs = set(), set()
    for path in readers:
        dotted, names = _reads(path)
        reads |= dotted
        attrs |= names
    unread = {name for module, names in top.items() for name in names
              if f"{module}.{name}" not in reads}
    return unread | (methods - attrs)


def test_every_public_name_has_a_reader():
    """A public function, class, method or module constant that only the
    tests reach is either deleted or named in UNCALLED with its reason, and
    one that only the benchmark reaches is named in BENCH_ONLY.  Methods are
    matched by name alone: to_json and content belong to several classes,
    so a read of one counts for all, and a one-off run of every command
    under sys.settrace is the check that a name scan cannot make."""
    src = sorted((ROOT / "src" / "cvtk").glob("*.py"))
    by_src = unread_public_names(ROOT, src)
    by_src_or_bench = unread_public_names(ROOT, src + [ROOT / "perfbench" / "child.py"])
    assert by_src_or_bench == set(UNCALLED)
    assert by_src - by_src_or_bench == set(BENCH_ONLY)


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
