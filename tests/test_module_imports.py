"""Modules of the package use only each other's public names."""

import ast
import pathlib

import skeinmod

_SRC = pathlib.Path(skeinmod.__file__).parent


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_no_private_names_imported_from_sibling_modules():
    offenders = []
    for path in sorted(_SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level:
                offenders += [
                    f"{path.name}:{node.lineno} imports {alias.name} from .{node.module or ''}"
                    for alias in node.names
                    if _private(alias.name)
                ]
    assert not offenders, offenders
