"""Every function, class and method that a taxprob module defines is
referenced somewhere in the package, and every one that a module under
`tests/` defines, other than the `test_*` functions, is referenced somewhere
in the test suite.

A reference is a name or an attribute read with the definition's name, in
code or in a quoted annotation; imports do not count (the `__init__`
re-exports would otherwise keep everything alive), and neither do reads
inside the definition itself (recursion).  Names are matched without types,
so a method counts as referenced when any attribute of that name is read.
Dunder methods are called by Python itself and are left out.
"""

import ast
from collections import Counter
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "taxprob"

# definitions that the package itself does not call, each with its reason
ALLOWED = {
    # renders a KnowledgeBase as text: the benchmark writes its KBs with it
    "kbformat.render_kb",
    # argparse calls it on a usage error
    "cli._ArgumentParser.error",
    # the guard bits from the roles alone: the tests' role-based chain
    # reference reads it, and the benchmark's tracer wraps it by name
    "taxonomy.TaxonomyStore.guard_flags",
}


def definitions(tree, module):
    """(qualified name, bare name, node) of every def and class, nested ones
    included."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                qualified = f"{prefix}.{child.name}"
                found.append((qualified, child.name, child))
                visit(child, qualified)
            else:
                visit(child, prefix)

    visit(tree, module)
    return found


def references(tree):
    """How often each name is read as a name or an attribute, including
    inside quoted annotations."""
    counts = Counter()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            counts[node.id] += 1
        elif isinstance(node, ast.Attribute):
            counts[node.attr] += 1
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.returns is not None:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for ann in annotations:
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                counts.update(references(ast.parse(node.value, mode="eval")))
    return counts


def unreferenced(sources):
    """Qualified names of the definitions in `sources` (module name ->
    source text) that nothing outside their own body reads."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    total = Counter()
    for tree in trees.values():
        total.update(references(tree))
    found = []
    for module, tree in trees.items():
        for qualified, name, node in definitions(tree, module):
            if name.startswith("__") and name.endswith("__"):
                continue
            own = sum((references(child)[name]
                       for child in ast.iter_child_nodes(node)), 0)
            if total[name] - own <= 0:
                found.append(qualified)
    return sorted(found)


def test_check_catches_an_unreferenced_method_and_recursion():
    sources = {
        "a": "class K:\n"
             "    def used(self):\n        return 1\n"
             "    def unused(self):\n        return 2\n"
             "    def __str__(self):\n        return ''\n"
             "def rec(n):\n    return rec(n - 1) if n else K().used()\n",
        "b": "from a import rec\n",
    }
    assert unreferenced(sources) == ["a.K.unused", "a.rec"]


def test_every_definition_is_referenced_in_the_package():
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(SRC.glob("*.py"))}
    found = unreferenced(sources)
    assert sorted(set(found) - ALLOWED) == []
    # an allowlist entry for a name the package now calls is stale
    assert sorted(ALLOWED - set(found)) == []


def test_every_helper_is_referenced_by_the_tests():
    # pytest collects the test_* functions by name; every other definition
    # in a test module, a spy or a builder, must be read by some test
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(TESTS.glob("*.py"))}
    found = [name for name in unreferenced(sources)
             if not name.rpartition(".")[2].startswith("test_")]
    assert found == []
