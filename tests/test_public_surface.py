"""Every public function and class of the package has a consumer.

A public module-level function or class of ``src/subscale`` must be named by
another definition in the package (an AST name or attribute, not a
docstring), by the README, or by a file under ``perfbench/``.  Anything else
is code that only its own tests reach.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# ROADMAP direction 11 gives this analysis a `stability` command as its consumer
EXEMPT = {"alloc.alpha_stability"}


def _names_in(node) -> set[str]:
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def _unconsumed() -> list[str]:
    """'module.name' of each public definition that nothing outside itself names."""
    modules = {
        p.stem: ast.parse(p.read_text(encoding="utf-8"))
        for p in sorted((ROOT / "src" / "subscale").glob("*.py"))
    }
    tops = [(top, _names_in(top)) for tree in modules.values() for top in tree.body]
    texts = [(ROOT / "README.md").read_text(encoding="utf-8")] + [
        p.read_text(encoding="utf-8")
        for p in sorted((ROOT / "perfbench").rglob("*"))
        if p.is_file() and "__pycache__" not in p.parts
    ]
    unconsumed = []
    for module, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name[0] == "_":
                continue
            in_package = any(node.name in names for top, names in tops if top is not node)
            word = re.compile(rf"\b{node.name}\b")
            if not in_package and not any(word.search(text) for text in texts):
                unconsumed.append(f"{module}.{node.name}")
    return unconsumed


def test_every_public_definition_has_a_consumer():
    missing = sorted(set(_unconsumed()) - EXEMPT)
    assert not missing, f"public, but nothing outside its own tests names it: {missing}"


def test_every_exemption_is_still_needed():
    # an exemption whose name gained a consumer, or is gone, must be dropped
    assert set(_unconsumed()) >= EXEMPT
