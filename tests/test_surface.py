"""Every public name in ``src/uppertail`` is named outside its own unit test.

A public name is a top-level function or class of a package module, or a
method of a public class, whose name does not start with an underscore.  It
must appear as a whole word in the package's source somewhere other than its
own ``def``/``class`` line, or in the acceptance suite.  The few names that
do neither are listed below with the reason each one stays.
"""

import ast
import re
from pathlib import Path

import uppertail

SRC = Path(uppertail.__file__).parent
ACCEPTANCE = Path(__file__).parent / "test_acceptance.py"

ALLOWED = {
    "phi_planted_search": "the mean-field value of non-star patterns for the planned rate ladder (ROADMAP)",
    "without_edges": "perfbench/tracer.py patches HostGraph.without_edges by name",
}


def _definitions(tree: ast.Module):
    """(name, line) of each public top-level function and class, and of each
    public method of a public class."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        yield node.name, node.lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield item.name, item.lineno


def _words(text: str, skip=frozenset()):
    """The whole words of ``text``, leaving out the lines numbered in ``skip``."""
    lines = (line for number, line in enumerate(text.splitlines(), 1) if number not in skip)
    return set(re.findall(r"\w+", "\n".join(lines)))


def _unreferenced() -> set[str]:
    defined = set()
    used = _words(ACCEPTANCE.read_text())
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        own = list(_definitions(ast.parse(text)))
        defined.update(name for name, _ in own)
        used |= _words(text, skip={line for _, line in own})
    return defined - used


def test_every_public_name_has_a_caller():
    unreferenced = _unreferenced()
    assert sorted(unreferenced - set(ALLOWED)) == []
    # An allowed name that gained a caller, or is gone, leaves the list.
    assert sorted(set(ALLOWED) - unreferenced) == []
