"""Layering guards: the package modules import each other along one fixed
graph, only the functions of ``FILE_IO_OWNERS`` touch files, ``optics``
cannot tell a film table from an analytic film, only the channel run calls
``numpy.linalg``, and no module keeps a stale name: an import it never
reads, an ``__all__`` entry it does not define, an ``__all__`` entry that
no module of the program reads (test-only helpers live in ``oracles``), or a
config key that no module reads.

A new import between modules has to edit ``LAYERS`` on purpose, and a new
file read or write has to edit ``FILE_IO_OWNERS``.
"""

import ast
import dataclasses
import importlib
from pathlib import Path

import numpy as np
import pytest

import plasmon_biphoton
from plasmon_biphoton.scenarios import ScenarioConfig, run_scenario

# module -> the package modules it imports (``__init__`` left out)
LAYERS = {
    "jones": set(),
    "film": set(),
    "optics": {"film"},
    "quantum": set(),
    "scenarios": {"film", "jones", "optics", "quantum"},
    "cli": {"film", "scenarios"},
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


def test_optics_does_not_know_the_film_kind():
    # every film is point-group symmetric, so the aperture transform has one
    # path; a ``tabulated`` attribute or an ``isinstance`` test on the film
    # would let it fork on the kind again
    path = Path(plasmon_biphoton.__file__).parent / "optics.py"
    assert not [node.lineno for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.Attribute) and node.attr == "tabulated"
                or isinstance(node, ast.Name) and node.id == "isinstance"]


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
