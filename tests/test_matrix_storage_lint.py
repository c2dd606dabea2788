"""Lint: only `exactlin` knows how a matrix is stored.

Package code reads a `Matrix` through its (column, entry) ``pairs`` and
a `SpanBuilder` through its basis pairs or entries.  The dense ``rows``
views of the two classes exist for the tests and ``repr``, so no module
under ``src/sphertwist`` may read an attribute ``rows`` outside those two
view definitions and ``Matrix.__repr__``, and none may name the format
converters the pairs replaced.  The scan is static, so it covers the
routes no workload runs as well as those it does.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "sphertwist"

# (module, qualified name of the enclosing definition) allowed to read .rows
VIEWS = {
    ("exactlin", "Matrix.rows"),
    ("exactlin", "SpanBuilder.rows"),
    ("exactlin", "Matrix.__repr__"),
}
CONVERTERS = {"sparse_rows", "_nonzeros", "_nonzero_cells"}


def offences(source, module):
    """(line, what) for each read of ``.rows`` outside the views and each
    name, attribute, import or definition of a converter."""
    out = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = scope + (child.name,)
                if child.name in CONVERTERS:
                    out.append((child.lineno, "defines " + child.name))
            elif isinstance(child, ast.Attribute):
                if child.attr == "rows" and (module, ".".join(scope)) not in VIEWS:
                    out.append((child.lineno, "reads .rows in " + ".".join(scope)))
                if child.attr in CONVERTERS:
                    out.append((child.lineno, "names " + child.attr))
            elif isinstance(child, ast.Name) and child.id in CONVERTERS:
                out.append((child.lineno, "names " + child.id))
            elif isinstance(child, ast.alias) and child.name in CONVERTERS:
                out.append((child.lineno, "imports " + child.name))
            visit(child, inner)

    visit(ast.parse(source), ())
    return out


def test_no_module_reads_the_dense_view_or_names_a_converter():
    found = {
        path.name: offences(path.read_text(encoding="utf-8"), path.stem)
        for path in sorted(SRC.glob("*.py"))
    }
    assert len(found) > 5
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_the_lint_flags_what_it_forbids():
    source = '''
from .exactlin import sparse_rows

def kronecker(a, b):
    return [r for r in a.rows] + sparse_rows(b)

class Matrix:
    @property
    def rows(self):
        return self._dense

    def __repr__(self):
        return repr(self.rows)

    def transpose(self):
        return self.rows

def _nonzero_cells(m):
    return exactlin._nonzeros(m)
'''
    assert offences(source, "exactlin") == [
        (2, "imports sparse_rows"),
        (5, "reads .rows in kronecker"),
        (5, "names sparse_rows"),
        (16, "reads .rows in Matrix.transpose"),
        (18, "defines _nonzero_cells"),
        (19, "names _nonzeros"),
    ]
    # the views are allowed in exactlin only
    assert offences("class Matrix:\n    def __repr__(self):\n        return self.rows\n",
                    "modules") == [(3, "reads .rows in Matrix.__repr__")]
