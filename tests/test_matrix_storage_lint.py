"""Lint: only `exactlin` knows how a matrix is stored, and vectors have
one form.

Package code reads a `Matrix` through its (column, entry) ``pairs`` and
a `SpanBuilder` through its basis pairs or entries.  The dense ``rows``
views of the two classes exist for the tests and ``repr``, so no module
under ``src/sphertwist`` may read an attribute ``rows`` outside those two
view definitions and ``Matrix.__repr__``, and none may name the format
converters the pairs replaced.

A vector is a list of sorted (index, entry) pairs, so no module may name
the dense-vector converters ``_pairs`` and ``m_basis_row``, build a
dense buffer ``[x.zero()] * n`` outside the polynomial helpers (whose
coefficient lists are not vectors), call ``compress`` (which reads a
dense sequence) outside ``Matrix.__init__``, the one reader of dense
rows, or test ``isinstance(…, dict)`` in `exactlin`, where a dict was
the second vector form.  The scan is static, so it covers the routes no
workload runs as well as those it does.

A Q element is an int when integral and a `Fraction` with denominator
> 1 otherwise, so no module may name ``Fraction`` outside `RationalField`
(the one maker of Q elements), ``PrimeField.coerce`` (which reads one)
and `algebra._rational_roots` (which builds its candidate roots in
that form), apart from the imports of the two modules that hold them.
Then no new code path builds integral `Fraction` values.

A covered projective ⊕ eₖ·A has one builder, `modules._piece_sum`,
which shares one object per algebra and idempotent list.  So no
function but it may pass `direct_sum` a list built from
`_idempotent_piece`: a list or comprehension that calls it, or a name
bound to, appended or extended with something that does or with a name
so marked, followed through the function to a fixed point.

The sum carries its record, ``covered``, and it is the one place the
record is kept.  So no function but `_piece_sum` may assign an attribute
``covered`` (by assignment or ``setattr``), apart from the None that
`Module.__init__` starts every module with, and the name of the
idempotent list once patched onto a cover's epi, ``cover_idempotents``,
appears nowhere in the package.

A minimal syzygy or cosyzygy has no projective summand (the proof is in
`frobenius.suspension_power`), so the name of the stripper that once
split them off, ``strip_projective_summands``, appears nowhere in the
package.  The audits read every suspension off the context's ladder, so
`spherical` calls `syzygy`, `cosyzygy` and `suspension_power` only
inside `_suspension`, the one function that extends a ladder.

The generator and its tilting companion have one builder,
`frobenius._tagged_generator`, and their hom spaces are read block row
by block row (`frobenius._generator_hom_basis`).  So `spherical`
imports neither `hom_space` nor `endomorphism_algebra`, and reads
neither as an attribute of another module.

The ideal [P](T, T) of maps through projectives is the ideal Λ·e_P·Λ of
Λ = End(T), read off its table (`frobenius._projective_ideal`).  So
that function names no `hom_space`, `stable_hom`, `injective_envelope`
or `direct_sum`, as a name or as an attribute.

Side 2 asks add-membership of the catalog summands one block at a time
(`modules.in_add`), so `spherical` builds no sum of them either: it
imports no `direct_sum` and reads none as an attribute.

A module records which basis elements act by a nonzero matrix in
``acting``, which `Module.__init__` reads off the action matrices, and
the kernels skip every other element.  A record written elsewhere, or
actions changed after it was read, would skip an element that acts.  So
no function but `Module.__init__` may assign an attribute ``acting`` or
``action`` (by assignment, ``setattr`` or ``del``), assign to an item of
an ``action``, or call a list method that changes one.

Every action the twist and tensor layers read is a `Module` that holds
it: `Module.coregular`, `Module.regular` of an opposite algebra,
`frobenius.dual_module` and `homology.left_module_along`.  So `twist`
and `homology` call neither ``left_mult_matrix`` nor
``right_mult_matrix`` to build one by hand.

A resolution stopped by its cap comes back flagged ``truncated``, and
no resolver raises on it.  So no module names ``CapExceeded`` (as a
name, an attribute, an import or a class) but `errors`, which defines
it, and `twist`, whose window-less twist of an imperfect kernel and
whose perfect model raise it.
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
CONVERTERS = {"sparse_rows", "_nonzeros", "_nonzero_cells", "_pairs", "m_basis_row"}
# (module, qualified name) allowed to call compress
DENSE_READERS = {("exactlin", "Matrix.__init__")}
# (module, qualified name of a definition) allowed to name Fraction, in
# the definition and anything nested in it
FRACTION_SCOPES = {
    ("exactlin", "RationalField"),
    ("exactlin", "PrimeField.coerce"),
    ("algebra", "_rational_roots"),
}


def _names_fraction_allowed(module, scope, node):
    """Whether naming Fraction at node is allowed: inside one of the
    FRACTION_SCOPES, or as a module-level import in their modules."""
    if any(module == m and scope[: len(q.split("."))] == tuple(q.split("."))
           for m, q in FRACTION_SCOPES):
        return True
    return not scope and isinstance(node, ast.alias) and module in {
        m for m, _ in FRACTION_SCOPES
    }


def _polynomial_helper(scope):
    return any(name.startswith("_poly_") or name == "_matrix_min_poly" for name in scope)


def _zero_buffer(node):
    """Whether node is [x.zero()] * n or n * [x.zero()]."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)):
        return False
    return any(
        isinstance(side, ast.List)
        and len(side.elts) == 1
        and isinstance(side.elts[0], ast.Call)
        and isinstance(side.elts[0].func, ast.Attribute)
        and side.elts[0].func.attr == "zero"
        for side in (node.left, node.right)
    )


def _dict_test(node):
    """Whether node is isinstance(x, dict) or isinstance(x, (…, dict, …))."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance" and len(node.args) == 2):
        return False
    kinds = node.args[1]
    kinds = kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]
    return any(isinstance(k, ast.Name) and k.id == "dict" for k in kinds)


def offences(source, module):
    """(line, what) for each read of ``.rows`` outside the views, each
    name, attribute, import or definition of a converter, each dense
    zero buffer outside the polynomial helpers, each call of compress
    outside the dense-row reader, each dict test in exactlin and each
    name, attribute or import ``Fraction`` outside the FRACTION_SCOPES."""
    out = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            where = ".".join(scope)
            if _zero_buffer(child) and not _polynomial_helper(scope):
                out.append((child.lineno, "builds a dense zero buffer in " + where))
            if isinstance(child, ast.Call):
                func = child.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                if name == "compress" and (module, where) not in DENSE_READERS:
                    out.append((child.lineno, "calls compress in " + where))
                if module == "exactlin" and _dict_test(child):
                    out.append((child.lineno, "tests for a dict in " + where))
            named = getattr(child, "id", None) or getattr(child, "attr", None)
            if isinstance(child, ast.alias):
                named = child.name
            if named == "Fraction" and not _names_fraction_allowed(module, scope, child):
                out.append((child.lineno, "names Fraction in " + (where or "the module")))
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


def test_the_lint_flags_a_dense_vector():
    source = '''
from itertools import compress
from .algebra import _pairs

class Matrix:
    def __init__(self, field, rows):
        self.nonzero = compress(range(3), rows[0])

    def column(self, j):
        out = [self.field.zero()] * self.nrows
        return list(compress(range(3), out)) + m_basis_row(self.field, 3, j)

def _reduce(vec, width):
    if isinstance(vec, dict):
        return vec
    if isinstance(vec, (list, dict)):
        return width * [f.zero()]
    return [0] * width

def _poly_mul(f, p, q):
    return [f.zero()] * (len(p) + len(q) - 1)
'''
    assert offences(source, "exactlin") == [
        (3, "imports _pairs"),
        (10, "builds a dense zero buffer in Matrix.column"),
        (11, "calls compress in Matrix.column"),
        (11, "names m_basis_row"),
        (14, "tests for a dict in _reduce"),
        (16, "tests for a dict in _reduce"),
        (17, "builds a dense zero buffer in _reduce"),
    ]
    # a dict test is allowed outside exactlin
    assert offences(source, "modules") == [
        (3, "imports _pairs"),
        (7, "calls compress in Matrix.__init__"),
        (10, "builds a dense zero buffer in Matrix.column"),
        (11, "calls compress in Matrix.column"),
        (11, "names m_basis_row"),
        (17, "builds a dense zero buffer in _reduce"),
    ]


def test_the_lint_flags_a_fraction_outside_the_q_field():
    source = '''
from fractions import Fraction
import fractions

class RationalField:
    def coerce(self, value):
        return Fraction(value)

class PrimeField:
    def coerce(self, value):
        return isinstance(value, Fraction)

    def inv(self, a):
        return fractions.Fraction(1, a)

def _canonical(acc):
    return [Fraction(v) for v in acc]

def _rational_roots(poly):
    def cand(p, q):
        return Fraction(p, q)
'''
    assert offences(source, "exactlin") == [
        (14, "names Fraction in PrimeField.inv"),
        (17, "names Fraction in _canonical"),
        (21, "names Fraction in _rational_roots.cand"),
    ]
    assert offences(source, "algebra") == [
        (7, "names Fraction in RationalField.coerce"),
        (11, "names Fraction in PrimeField.coerce"),
        (14, "names Fraction in PrimeField.inv"),
        (17, "names Fraction in _canonical"),
    ]
    # the import is allowed only in the modules that hold a scope
    assert offences(source, "modules")[0] == (2, "names Fraction in the module")


# ---------------------------------------------------------------------------
# one builder of covered projectives


def _called(node, name):
    """Whether node is a call of ``name`` or ``x.name``."""
    return isinstance(node, ast.Call) and (
        getattr(node.func, "id", None) or getattr(node.func, "attr", None)) == name


def piece_sum_offences(source):
    """(line, function) for each call of `direct_sum`, outside
    `_piece_sum`, whose first argument is built from `_idempotent_piece`.

    Within each function a name is marked when it is bound (by an
    assignment, an augmented assignment or a for target) to an
    expression holding such a call or a marked name, or when such an
    expression is appended, extended or inserted into it; the marks are
    propagated until nothing changes, so a loop that fills a list before
    the sum is followed whatever the order of its statements."""
    out = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) or fn.name == "_piece_sum":
            continue
        marked = set()

        def built(expr):
            return any(_called(n, "_idempotent_piece")
                       or (isinstance(n, ast.Name) and n.id in marked)
                       for n in ast.walk(expr))

        def names(target):
            return {n.id for n in ast.walk(target) if isinstance(n, ast.Name)}

        grew = True
        while grew:
            before = len(marked)
            for node in ast.walk(fn):
                if isinstance(node, ast.Assign) and built(node.value):
                    for target in node.targets:
                        marked |= names(target)
                elif isinstance(node, (ast.AugAssign, ast.AnnAssign)) and (
                        node.value is not None and built(node.value)):
                    marked |= names(node.target)
                elif isinstance(node, ast.For) and built(node.iter):
                    marked |= names(node.target)
                elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                      and node.func.attr in ("append", "extend", "insert")
                      and any(built(arg) for arg in node.args)):
                    marked |= names(node.func.value)
            grew = len(marked) > before
        out += [(node.lineno, fn.name) for node in ast.walk(fn)
                if _called(node, "direct_sum") and node.args and built(node.args[0])]
    return sorted(out)


def test_no_module_sums_pieces_outside_the_one_builder():
    found = {
        path.name: piece_sum_offences(path.read_text(encoding="utf-8"))
        for path in sorted(SRC.glob("*.py"))
    }
    assert len(found) > 5
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_the_lint_flags_a_sum_of_pieces():
    source = '''
def _piece_sum(a, idempotents):
    return direct_sum([_idempotent_piece(a, e)[0] for e in idempotents])[0]

def cover(a, es):
    pieces = []
    for e in es:
        pe, incl = _idempotent_piece(a, e)
        pieces.append(pe)
    return direct_sum(pieces)

def rebuild(a, es):
    return modules.direct_sum([_idempotent_piece(a, e)[0] for e in es])

def relabelled(a, es):
    parts = [_idempotent_piece(a, e) for e in es]
    mods = []
    mods.extend(p for p, _ in parts)
    return direct_sum(mods)

def late(a, es):
    for e in es:
        if acc:
            total = direct_sum(acc)
        acc = []
        acc += [_idempotent_piece(a, e)[0]]

def cone(x, y, a, e):
    piece = _idempotent_piece(a, e)[0]
    return direct_sum([x, y]), piece
'''
    assert piece_sum_offences(source) == [
        (10, "cover"), (13, "rebuild"), (19, "relabelled"), (24, "late"),
    ]


# ---------------------------------------------------------------------------
# one writer of the cover record


def record_offences(source, module):
    """(line, what) for each assignment of an attribute ``covered``
    outside `modules._piece_sum` (bar ``self.covered = None`` in
    `modules.Module.__init__`), each ``setattr`` of it there, and each
    line naming ``cover_idempotents``."""
    out = [(n, "names cover_idempotents")
           for n, line in enumerate(source.splitlines(), 1) if "cover_idempotents" in line]

    def allowed(where, value):
        return module == "modules" and (where == "_piece_sum" or (
            where == "Module.__init__"
            and isinstance(value, ast.Constant) and value.value is None))

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            where = ".".join(scope)
            if isinstance(child, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = child.targets if isinstance(child, ast.Assign) else [child.target]
                hit = any(isinstance(n, ast.Attribute) and n.attr == "covered"
                          for t in targets for n in ast.walk(t))
                if hit and not allowed(where, child.value):
                    out.append((child.lineno, "assigns .covered in " + (where or "the module")))
            if (_called(child, "setattr") and len(child.args) > 1
                    and isinstance(child.args[1], ast.Constant)
                    and child.args[1].value == "covered"
                    and not allowed(where, child.args[2] if len(child.args) > 2 else None)):
                out.append((child.lineno, "assigns .covered in " + (where or "the module")))
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = scope + (child.name,)
            visit(child, inner)

    visit(ast.parse(source), ())
    return sorted(out)


def test_only_the_piece_sum_writes_the_cover_record():
    found = {
        path.name: record_offences(path.read_text(encoding="utf-8"), path.stem)
        for path in sorted(SRC.glob("*.py"))
    }
    assert len(found) > 5
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_the_lint_flags_a_second_writer_of_the_record():
    source = '''
class Module:
    def __init__(self, algebra):
        self.covered = None
        self.tag = None

    def mark(self, record):
        self.covered = record

def _piece_sum(a, idempotents):
    hit = Module(a)
    hit.covered = CoveredTerm(hit, idempotents)
    return hit

def _cover_by_pieces(m, idems):
    p_sum = _piece_sum(m.algebra, idems)
    epi = ModuleHom(p_sum, m)
    epi.cover_idempotents = idems
    return p_sum, epi

def relabel(p, q, record):
    p.covered, q.covered = record, None
    setattr(p, "covered", record)
    return [e for e in p.covered.idempotents]
'''
    assert record_offences(source, "modules") == [
        (8, "assigns .covered in Module.mark"),
        (18, "names cover_idempotents"),
        (22, "assigns .covered in relabel"),
        (23, "assigns .covered in relabel"),
    ]
    # the two allowed writers are those of `modules` only
    assert record_offences(source, "twist") == [
        (4, "assigns .covered in Module.__init__"),
        (8, "assigns .covered in Module.mark"),
        (12, "assigns .covered in _piece_sum"),
        (18, "names cover_idempotents"),
        (22, "assigns .covered in relabel"),
        (23, "assigns .covered in relabel"),
    ]


# ---------------------------------------------------------------------------
# one ladder of suspensions


LADDER_STEPS = {"syzygy", "cosyzygy", "suspension_power"}


def ladder_offences(source, module):
    """(line, what) for each line naming ``strip_projective_summands``
    and, in `spherical`, each call of `syzygy`, `cosyzygy` or
    `suspension_power` outside `_suspension`."""
    out = [(n, "names strip_projective_summands")
           for n, line in enumerate(source.splitlines(), 1)
           if "strip_projective_summands" in line]

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            where = ".".join(scope)
            called = next((name for name in LADDER_STEPS if _called(child, name)), None)
            if module == "spherical" and called and where != "_suspension":
                out.append((child.lineno, "calls %s in %s" % (called, where or "the module")))
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = scope + (child.name,)
            visit(child, inner)

    visit(ast.parse(source), ())
    return sorted(out)


def test_suspensions_are_read_off_the_ladder():
    found = {
        path.name: ladder_offences(path.read_text(encoding="utf-8"), path.stem)
        for path in sorted(SRC.glob("*.py"))
    }
    assert len(found) > 5
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_the_lint_flags_a_suspension_off_the_ladder():
    source = '''
from .frobenius import strip_projective_summands, suspension_power

def _suspension(ctx, m, k):
    return suspension_power(m, k)

def rigidity_check(ctx, x):
    return stable_hom(frobenius.suspension_power(x, -1), x)

def tilting_audit(ctx, x):
    om = syzygy(x)
    return strip_projective_summands(om), cosyzygy(om)

RUNG = suspension_power(None, 0)
'''
    assert ladder_offences(source, "spherical") == [
        (2, "names strip_projective_summands"),
        (8, "calls suspension_power in rigidity_check"),
        (11, "calls syzygy in tilting_audit"),
        (12, "calls cosyzygy in tilting_audit"),
        (12, "names strip_projective_summands"),
        (14, "calls suspension_power in the module"),
    ]
    # the steps may be called anywhere outside `spherical`
    assert ladder_offences(source, "frobenius") == [
        (2, "names strip_projective_summands"),
        (12, "names strip_projective_summands"),
    ]


# ---------------------------------------------------------------------------
# spherical solves no whole-sum hom space


UNSOLVED = {"hom_space", "endomorphism_algebra"}


def spherical_name_offences(source, module, names):
    """(line, what) for each import of one of ``names`` into
    `spherical`, and each read of one as an attribute there."""
    if module != "spherical":
        return []
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            out += [(alias.lineno, "imports " + alias.name) for alias in node.names
                    if alias.name.rsplit(".", 1)[-1] in names]
        elif isinstance(node, ast.Attribute) and node.attr in names:
            out.append((node.lineno, "reads ." + node.attr))
    return sorted(out)


def solve_offences(source, module):
    """`spherical_name_offences` of `hom_space` and `endomorphism_algebra`."""
    return spherical_name_offences(source, module, UNSOLVED)


def test_spherical_imports_no_hom_solver():
    found = {
        path.name: solve_offences(path.read_text(encoding="utf-8"), path.stem)
        for path in sorted(SRC.glob("*.py"))
    }
    assert "spherical.py" in found
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_the_lint_flags_a_hom_solver_in_spherical():
    source = '''
from .modules import HomBasis, hom_space
from .modules import endomorphism_algebra as end
from . import modules

def tilting_audit(ctx, c):
    return modules.hom_space(c, ctx.total), end(c)
'''
    assert solve_offences(source, "spherical") == [
        (2, "imports hom_space"),
        (3, "imports endomorphism_algebra"),
        (7, "reads .hom_space"),
    ]
    # other modules may solve hom spaces
    assert solve_offences(source, "frobenius") == []


# ---------------------------------------------------------------------------
# the projective ideal is read off End(T)


MODULE_BUILDERS = {"hom_space", "stable_hom", "injective_envelope", "direct_sum"}


def ideal_offences(source, module):
    """(line, what) for each name or attribute of MODULE_BUILDERS inside
    `frobenius._projective_ideal`."""
    if module != "frobenius":
        return []
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.FunctionDef) and node.name == "_projective_ideal":
            for inner in ast.walk(node):
                named = getattr(inner, "id", None) or getattr(inner, "attr", None)
                if isinstance(inner, (ast.Name, ast.Attribute)) and named in MODULE_BUILDERS:
                    out.append((inner.lineno, "names " + named))
    return sorted(out)


def test_the_projective_ideal_names_no_module_builder():
    source = (SRC / "frobenius.py").read_text(encoding="utf-8")
    assert "def _projective_ideal(" in source
    assert ideal_offences(source, "frobenius") == []


def test_the_lint_flags_a_module_builder_in_the_projective_ideal():
    source = '''
from . import modules
from .modules import direct_sum, hom_space

def _projective_ideal(blocks, hom_coords):
    total = direct_sum(blocks)[0]
    env, emb = injective_envelope(blocks[1])
    rows = [stable_hom(x, y)[1] for x in blocks for y in blocks]
    return rows + modules.hom_space(env, total)

def stable_hom(m, n):
    return hom_space(m, n)
'''
    assert ideal_offences(source, "frobenius") == [
        (6, "names direct_sum"),
        (7, "names injective_envelope"),
        (8, "names stable_hom"),
        (9, "names hom_space"),
    ]
    # the imports and the other functions are not its concern, nor are
    # other modules
    assert ideal_offences(source, "spherical") == []


# ---------------------------------------------------------------------------
# spherical builds no sum of catalog summands


def sum_offences(source, module):
    """`spherical_name_offences` of `direct_sum`."""
    return spherical_name_offences(source, module, {"direct_sum"})


def test_spherical_builds_no_direct_sum():
    found = {
        path.name: sum_offences(path.read_text(encoding="utf-8"), path.stem)
        for path in sorted(SRC.glob("*.py"))
    }
    assert "spherical.py" in found
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_the_lint_flags_a_direct_sum_in_spherical():
    source = '''
from .modules import (
    balanced_tensor,
    direct_sum,
    in_add,
)
from . import modules

def add_periodicity_check(xs, oms, p):
    whole = modules.direct_sum(xs + [p])[0]
    return all(in_add(om, whole) for om in oms)
'''
    assert sum_offences(source, "spherical") == [
        (4, "imports direct_sum"),
        (10, "reads .direct_sum"),
    ]
    # other modules may build sums
    assert sum_offences(source, "twist") == []


# ---------------------------------------------------------------------------
# one writer of the acting record


ACTION_CHANGERS = {"append", "extend", "insert", "pop", "remove", "clear", "sort", "reverse"}


def acting_offences(source, module):
    """(line, what) for each write of an attribute ``acting`` or
    ``action``, of an item of an ``action``, and each call of a list
    method that changes an ``action``, outside `modules.Module.__init__`."""
    out = []

    def written(target):
        """The record attribute a target writes, or None."""
        if isinstance(target, ast.Subscript):
            target = target.value
            return "action" if isinstance(target, ast.Attribute) and target.attr == "action" else None
        if isinstance(target, (ast.Tuple, ast.List)):
            return next(filter(None, map(written, target.elts)), None)
        if isinstance(target, ast.Starred):
            return written(target.value)
        if isinstance(target, ast.Attribute) and target.attr in ("acting", "action"):
            return target.attr
        return None

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            where = ".".join(scope)
            allowed = module == "modules" and where == "Module.__init__"
            hits = []
            if isinstance(child, ast.Assign):
                hits = [written(t) for t in child.targets]
            elif isinstance(child, (ast.AugAssign, ast.AnnAssign)):
                hits = [written(child.target)]
            elif isinstance(child, ast.Delete):
                hits = [written(t) for t in child.targets]
            elif (_called(child, "setattr") and len(child.args) > 1
                  and isinstance(child.args[1], ast.Constant)
                  and child.args[1].value in ("acting", "action")):
                hits = [child.args[1].value]
            elif (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                  and child.func.attr in ACTION_CHANGERS
                  and isinstance(child.func.value, ast.Attribute)
                  and child.func.value.attr == "action"):
                hits = ["action"]
            for attr in filter(None, hits):
                if not allowed:
                    out.append((child.lineno, "writes .%s in %s" % (attr, where or "the module")))
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = scope + (child.name,)
            visit(child, inner)

    visit(ast.parse(source), ())
    return sorted(out)


def test_only_the_module_constructor_writes_the_acting_record():
    found = {
        path.name: acting_offences(path.read_text(encoding="utf-8"), path.stem)
        for path in sorted(SRC.glob("*.py"))
    }
    assert len(found) > 5
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_the_lint_flags_a_second_writer_of_the_acting_record():
    source = '''
class Module:
    def __init__(self, algebra, action):
        self.action = list(action)
        self.acting = frozenset(i for i, m in enumerate(self.action) if any(m.pairs))

    def kill(self, i, zero):
        self.action[i] = zero
        self.acting -= {i}

def tamper(m, mat, others):
    m.action.append(mat)
    setattr(m, "acting", frozenset())
    m.acting, m.dim = others, 0
    del m.action[0]
    readers = [g for g in m.acting if m.action[g].pairs]
    return sorted(m.action, key=id)
'''
    assert acting_offences(source, "modules") == [
        (8, "writes .action in Module.kill"),
        (9, "writes .acting in Module.kill"),
        (12, "writes .action in tamper"),
        (13, "writes .acting in tamper"),
        (14, "writes .acting in tamper"),
        (15, "writes .action in tamper"),
    ]
    # the constructor is the one writer, and only that of `modules`
    assert acting_offences(source, "twist") == [
        (4, "writes .action in Module.__init__"),
        (5, "writes .acting in Module.__init__"),
        (8, "writes .action in Module.kill"),
        (9, "writes .acting in Module.kill"),
        (12, "writes .action in tamper"),
        (13, "writes .acting in tamper"),
        (14, "writes .acting in tamper"),
        (15, "writes .action in tamper"),
    ]


# ---------------------------------------------------------------------------
# the twist and tensor layers take actions from modules


MULT_MATRICES = {"left_mult_matrix", "right_mult_matrix"}


def mult_matrix_offences(source, module):
    """(line, what) for each call of ``left_mult_matrix`` or
    ``right_mult_matrix`` in `twist` or `homology`."""
    if module not in ("twist", "homology"):
        return []
    return sorted(
        (node.lineno, "calls " + name)
        for node in ast.walk(ast.parse(source))
        for name in MULT_MATRICES if _called(node, name)
    )


def test_the_twist_and_tensor_layers_build_no_multiplication_family():
    found = {
        path.name: mult_matrix_offences(path.read_text(encoding="utf-8"), path.stem)
        for path in sorted(SRC.glob("*.py"))
    }
    assert {"twist.py", "homology.py"} <= set(found)
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_the_lint_flags_a_multiplication_family_in_the_twist():
    source = '''
def _balanced_collapse_dim(p, blocks):
    b = p.target
    lefts = [b.left_mult_matrix(b.basis_vector(g)) for g in range(b.dim)]
    rights = [right_mult_matrix(x) for x in lefts]
    # the docstring may name left_mult_matrix
    return balanced_tensor(b, rights, lefts), b.left_mult_matrix
'''
    assert mult_matrix_offences(source, "twist") == [
        (4, "calls left_mult_matrix"),
        (5, "calls right_mult_matrix"),
    ]
    assert mult_matrix_offences(source, "homology") == [
        (4, "calls left_mult_matrix"),
        (5, "calls right_mult_matrix"),
    ]
    # other modules build the families the modules hold
    assert mult_matrix_offences(source, "modules") == []


# ---------------------------------------------------------------------------
# a capped resolution is flagged, never raised


CAP_RAISERS = {"errors", "twist"}


def cap_exceeded_offences(source, module):
    """(line, what) for each import, name, attribute or class
    ``CapExceeded`` outside `errors` and `twist`."""
    if module in CAP_RAISERS:
        return []
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            out += [(alias.lineno, "imports " + alias.name) for alias in node.names
                    if alias.name.rsplit(".", 1)[-1] == "CapExceeded"]
        elif isinstance(node, ast.Name) and node.id == "CapExceeded":
            out.append((node.lineno, "names CapExceeded"))
        elif isinstance(node, ast.Attribute) and node.attr == "CapExceeded":
            out.append((node.lineno, "reads .CapExceeded"))
        elif isinstance(node, ast.ClassDef) and node.name == "CapExceeded":
            out.append((node.lineno, "defines CapExceeded"))
    return sorted(out)


def test_only_the_twist_raises_cap_exceeded():
    found = {
        path.name: cap_exceeded_offences(path.read_text(encoding="utf-8"), path.stem)
        for path in sorted(SRC.glob("*.py"))
    }
    assert {"resolutions.py", "homology.py", "spherical.py"} <= set(found)
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_the_lint_flags_cap_exceeded_outside_the_twist():
    source = '''
from .errors import CapExceeded, SphertwistError
from . import errors

def resolve_within(m, cap):
    """Catches CapExceeded: the docstring may name it."""
    try:
        return minimal_resolution(m, cap)
    except errors.CapExceeded as exc:
        return exc.witness

def refuse(m):
    raise CapExceeded("overrun")

class CapExceeded(SphertwistError):
    pass
'''
    hits = [
        (2, "imports CapExceeded"),
        (9, "reads .CapExceeded"),
        (13, "names CapExceeded"),
        (15, "defines CapExceeded"),
    ]
    for module in ("resolutions", "homology", "spherical"):
        assert cap_exceeded_offences(source, module) == hits
    # the module that defines it and the one that raises it may name it
    assert cap_exceeded_offences(source, "errors") == []
    assert cap_exceeded_offences(source, "twist") == []
