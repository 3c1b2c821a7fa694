"""Layering guards: the package modules import each other along one fixed
graph, only the functions of ``FILE_IO_OWNERS`` touch files, only those of
``CONFIG_ERROR_RAISERS`` raise ``ConfigError`` and no run reaches them,
``optics`` cannot tell a film table from an analytic film, only ``scenarios``
imports ``dataclasses``, only the channel run calls ``numpy.linalg``, and no
module keeps a stale name: an import it never reads, an ``__all__`` entry it
does not define, an ``__all__`` entry that no module of the program reads
(test-only helpers live in ``oracles``), or a config key that no module
reads.  ``cli.main`` catches the two errors a run ends in and nothing else,
and importing ``cli`` after NumPy loads only the package and three standard
modules.

A new import between modules has to edit ``LAYERS`` on purpose, a new
file read or write has to edit ``FILE_IO_OWNERS``, and a new ConfigError
has to edit ``CONFIG_ERROR_RAISERS``.
"""

import ast
import dataclasses
import importlib
from pathlib import Path

import numpy as np
import pytest

import plasmon_biphoton
from plasmon_biphoton import scenarios
from plasmon_biphoton.scenarios import ScenarioConfig, run_scenario

from oracles import formatter_tables, run_python

# module -> the package modules it imports (``__init__`` left out)
LAYERS = {
    "film": set(),
    "optics": {"film"},
    "quantum": set(),
    "scenarios": {"film", "optics", "quantum"},
    "cli": {"scenarios"},
}


def package_imports(path):
    """Package modules that the module at ``path`` imports relatively."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            if node.module:
                found.add(node.module.split(".")[0])
            else:  # from . import module
                found.update(alias.name for alias in node.names)
    return found


def test_module_import_graph():
    src = Path(plasmon_biphoton.__file__).parent
    graph = {path.stem: package_imports(path)
             for path in sorted(src.glob("*.py")) if path.stem != "__init__"}
    assert graph == LAYERS


# calls that open, make, read or write a file or directory
FILE_IO = {"open", "mkdir", "read_text", "write_text", "write_bytes", "loadtxt", "savetxt",
           "load", "save"}
# the only functions that make them: runners compute, run_scenario writes; a
# film table is keyed and parsed, and its sidecar read and written, in film
FILE_IO_OWNERS = {"scenarios.run_scenario", "scenarios.parse_config_file",
                  "film._table_key", "film._parse_tabulated",
                  "film._read_sidecar", "film._write_sidecar"}


def file_io_callers(path):
    """Top-level functions and classes of the module at ``path`` that make a FILE_IO call."""
    found = set()
    for top in ast.parse(path.read_text()).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in FILE_IO:
                    found.add(f"{path.stem}.{getattr(top, 'name', '<module>')}")
    return found


def test_only_the_owners_touch_files():
    src = Path(plasmon_biphoton.__file__).parent
    assert set().union(*map(file_io_callers, src.glob("*.py"))) == FILE_IO_OWNERS


# the only functions that raise ConfigError: the config checks and parsers,
# run_scenario, which words every refusal of a run, and the CLI.  A runner,
# and all it calls, raises a plain error that run_scenario words once
CONFIG_ERROR_RAISERS = {"scenarios.ScenarioConfig.__post_init__", "scenarios._parse_value",
                        "scenarios.parse_config", "scenarios.parse_config_file",
                        "scenarios.run_scenario", "cli.main"}


def package_functions():
    """{(module, class or None, name): node} of every top-level function and method."""
    found = {}
    for path in sorted(Path(plasmon_biphoton.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            owner = top.name if isinstance(top, ast.ClassDef) else None
            for node in top.body if owner else [top]:
                if isinstance(node, ast.FunctionDef):
                    found[path.stem, owner, node.name] = node
    return found


def raises_config_error(node):
    return any(isinstance(n, ast.Raise) and isinstance(n.exc, ast.Call)
               and getattr(n.exc.func, "id", None) == "ConfigError" for n in ast.walk(node))


def test_only_the_config_checks_and_run_scenario_raise_config_error():
    found = {".".join(filter(None, key)) for key, node in package_functions().items()
             if raises_config_error(node)}
    assert found == CONFIG_ERROR_RAISERS


def test_no_run_reaches_a_config_error():
    # a ConfigError is a ValueError, so one raised under a runner would be
    # worded twice; every function or method a runner names, by any path,
    # is reached, and a named class brings all its methods
    functions = package_functions()
    reached = set()
    todo = [key for key in functions if key[0] == "scenarios" and key[1] is None
            and key[2] in {run.__name__ for run in scenarios._RUNNERS.values()}]
    while todo:
        key = todo.pop()
        if key in reached:
            continue
        reached.add(key)
        names = {n.id if isinstance(n, ast.Name) else n.attr
                 for stmt in functions[key].body for n in ast.walk(stmt)
                 if isinstance(n, (ast.Name, ast.Attribute))}
        todo += [other for other in functions if other[2] in names or other[1] in names]
    assert len(reached) > 4  # the runners and more
    assert sorted(".".join(filter(None, key)) for key in reached
                  if raises_config_error(functions[key])) == []


def test_cli_main_catches_the_two_ways_out():
    # run_scenario turns every failure of a run into one of two errors; an
    # exception type cli.main catches beside them would be a third way out
    path = Path(plasmon_biphoton.__file__).parent / "cli.py"
    main = next(node for node in ast.parse(path.read_text()).body
                if isinstance(node, ast.FunctionDef) and node.name == "main")
    caught = [ast.unparse(node.type) if node.type else "" for node in ast.walk(main)
              if isinstance(node, ast.ExceptHandler)]
    assert sorted(caught) == ["ConfigError", "NonFiniteOutputError"]


def test_optics_does_not_know_the_film_kind():
    # every film is point-group symmetric, so the aperture transform has one
    # path; a ``tabulated`` attribute, an ``isinstance`` test on the film or
    # a film class named anywhere, an import or annotation included, would
    # let it fork on the kind again
    path = Path(plasmon_biphoton.__file__).parent / "optics.py"
    forks = {"tabulated", "isinstance", "FilmModel", "TabulatedGrid"}
    assert not [node.lineno for node in ast.walk(ast.parse(path.read_text()))
                if getattr(node, "attr", None) in forks or getattr(node, "id", None) in forks
                or isinstance(node, ast.alias) and node.name in forks]


def test_only_the_config_is_a_dataclass():
    # generating a dataclass's methods costs every pbsim process start-up
    # time; only ScenarioConfig's fields, replace and == are read, so the
    # film and optics records are plain slotted classes
    src = Path(plasmon_biphoton.__file__).parent
    importers = {path.stem for path in src.glob("*.py")
                 for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.ImportFrom) and node.module == "dataclasses"
                 or isinstance(node, ast.alias) and node.name == "dataclasses"}
    assert importers == {"scenarios"}


def package_modules():
    """(path, imported module) of every module of the package, ``__init__`` included."""
    src = Path(plasmon_biphoton.__file__).parent
    for path in sorted(src.glob("*.py")):
        name = "" if path.stem == "__init__" else f".{path.stem}"
        yield path, importlib.import_module(f"plasmon_biphoton{name}")


def unread_imports(path):
    """Names the module at ``path`` binds by an import and never reads."""
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    return imported - {node.id for node in ast.walk(tree)
                       if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def test_every_import_is_read_or_exported():
    # an API deletion that leaves its import behind fails here
    stale = {path.stem: sorted(unread_imports(path) - set(getattr(module, "__all__", ())))
             for path, module in package_modules()}
    assert {stem: names for stem, names in stale.items() if names} == {}


def test_every_export_resolves():
    missing = {path.stem: [name for name in getattr(module, "__all__", ())
                           if not hasattr(module, name)]
               for path, module in package_modules()}
    assert {stem: names for stem, names in missing.items() if names} == {}


# exports that are user API without a caller in the program: the README
# documents ``serialize_config`` for dumping a config
USER_API = {"serialize_config"}


def test_every_export_is_read_by_the_program():
    # an export only tests read belongs in ``oracles``, not in the package
    read = set()
    for path, _ in package_modules():
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unread = {path.stem: sorted(set(getattr(module, "__all__", ())) - read - USER_API)
              for path, module in package_modules()}
    assert {stem: names for stem, names in unread.items() if names} == {}


def test_every_config_key_is_read():
    # a key that nothing reads is a setting that silently does nothing
    read = {node.attr for path, _ in package_modules()
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    keys = {f.name for f in dataclasses.fields(ScenarioConfig)}
    assert sorted(keys - read) == []


class LinalgCalled(Exception):
    pass


@pytest.mark.parametrize("kind", ["spectrum", "visibility_sweep", "polmap", "channel"])
def test_only_the_channel_run_calls_linalg(kind, tmp_path, monkeypatch):
    # a run's first LAPACK call pages in about 0.6 MB that no other part of
    # it touches; only the channel's concurrence needs it
    def refuse(*args, **kwargs):
        raise LinalgCalled

    for name in np.linalg.__all__:
        if not isinstance(getattr(np.linalg, name), type):  # LinAlgError stays
            monkeypatch.setattr(np.linalg, name, refuse)

    def run():
        cfg = ScenarioConfig(kind=kind, quad_points=51, map_points=5, polmap_points=7,
                             lambda_min_nm=790.0, lambda_max_nm=800.0,
                             semiaperture_max_deg=8.0, semiaperture_step_deg=4.0)
        return run_scenario(cfg, tmp_path)

    if kind == "channel":
        with pytest.raises(LinalgCalled):
            run()
    else:
        assert run()["paths"]


def test_the_import_loads_only_the_package_past_numpy():
    # every pbsim call is a fresh process, so each module its import loads
    # beyond NumPy's is paid by every run
    code = ("import sys, numpy\n"
            "before = set(sys.modules)\n"
            "import plasmon_biphoton.cli\n"
            "print(' '.join(sorted(set(sys.modules) - before)))\n")
    package = {"plasmon_biphoton"} | {
        f"plasmon_biphoton.{path.stem}"
        for path in Path(plasmon_biphoton.__file__).parent.glob("*.py")
        if path.stem != "__init__"}
    assert set(run_python(code).split()) == package | {"__future__", "copy", "dataclasses"}


@pytest.mark.parametrize("name", sorted(formatter_tables()))
def test_formatter_tables_match_their_arithmetic(name):
    # the tables are written as their bytes, so that the import runs no
    # NumPy kernel; every entry must be the word the arithmetic builds
    table, expected = getattr(scenarios, name), formatter_tables()[name]
    assert table.dtype == expected.dtype
    np.testing.assert_array_equal(table, expected)


def test_package_version_is_the_project_version():
    # pyproject.toml and ``__version__`` each state it; a release edits both
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == plasmon_biphoton.__version__
