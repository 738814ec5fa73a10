"""README.md states the input limits with the values the modules hold."""

import importlib
import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"

# `skeinmod.seifert.MAX_FIBERS` = 8, or `cyclotomic.MAX_ORDER` (4096)
STATED_LIMIT = re.compile(r"`(?:skeinmod\.)?(\w+)\.(MAX_[A-Z_]+)`\s*(?:=\s*(\d+)|\((\d+)\))")

LIMITS = {"MAX_GENUS", "MAX_BOUNDARY", "MAX_FIBERS", "MAX_ORDER", "MAX_P", "MAX_DEGREE", "MAX_N"}


def test_readme_limits_match_the_module_constants():
    stated = STATED_LIMIT.findall(README.read_text(encoding="utf-8"))
    for module, name, after_equals, in_parens in stated:
        value = getattr(importlib.import_module("skeinmod." + module), name)
        assert value == int(after_equals or in_parens), f"README states {module}.{name} wrongly"
    assert {name for _, name, _, _ in stated} >= LIMITS
