"""Every public name in ``src/uppertail`` is named outside its own unit test.

A public name is a top-level function or class of a package module, or a
method of a public class, whose name does not start with an underscore.  It
must appear as an identifier in the package's code somewhere other than its
own ``def``/``class`` line, or in the acceptance suite; a mention in a
docstring or comment does not count.  The few names that do neither are
listed below with the reason each one stays.
"""

import ast
import io
import tokenize
from pathlib import Path

import uppertail

SRC = Path(uppertail.__file__).parent
ACCEPTANCE = Path(__file__).parent / "test_acceptance.py"

ALLOWED = {
    "phi_planted_search": "the mean-field value of non-star patterns for the planned rate ladder (ROADMAP)",
    "without_edges": "perfbench/tracer.py patches HostGraph.without_edges by name",
    "sample_gnp": "the public binomial sampler the README documents",
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


def _identifiers(text: str, skip=frozenset()):
    """The identifiers in the code of ``text``, leaving out the lines
    numbered in ``skip``; strings and comments are not code."""
    tokens = tokenize.generate_tokens(io.StringIO(text).readline)
    return {tok.string for tok in tokens if tok.type == tokenize.NAME and tok.start[0] not in skip}


def _unreferenced() -> set[str]:
    defined = set()
    used = _identifiers(ACCEPTANCE.read_text())
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        own = list(_definitions(ast.parse(text)))
        defined.update(name for name, _ in own)
        used |= _identifiers(text, skip={line for _, line in own})
    return defined - used


def test_every_public_name_has_a_caller():
    unreferenced = _unreferenced()
    assert sorted(unreferenced - set(ALLOWED)) == []
    # An allowed name that gained a caller, or is gone, leaves the list.
    assert sorted(set(ALLOWED) - unreferenced) == []
