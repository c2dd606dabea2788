"""The covered projectives ⊕ eₖ·A are built once, shared, and carry
their record.

`modules._piece_sum` builds the sum of the pieces `_idempotent_piece(a,
eₖ)` once per algebra and idempotent list, caches it on the algebra and
sets its record, ``covered``.  Each of the three benchmark workloads is
set up and solved at seed 0, over its own field, while every sum
`_piece_sum` builds is recorded with a copy of its action matrices at
birth, every `Resolution` and `ChainComplex` constructed is recorded
with the modules constructed during its constructor, and every model
`perfect_model` (and its staircase) returns is recorded.  Then:

- each cached sum is the direct sum of its pieces, action for action;
- no (algebra, idempotent list) is built twice;
- constructing a `Resolution` or a `ChainComplex` builds no module;
- every term of every resolution and model has a record and is the
  shared sum of the record's idempotents;
- no caller changed a shared sum: its actions are what they were at
  birth, after the whole solve.
"""

import pytest

from sphertwist import modules, twist
from sphertwist.modules import Module, _idempotent_piece, _piece_sum, direct_sum
from sphertwist.resolutions import Resolution
from sphertwist.twist import ChainComplex

from patching import patch_everywhere
from workload_contexts import WORKLOADS


def _frozen(m):
    """The actions of m as objects and as values, copied."""
    return (m.dim, [id(x) for x in m.action],
            [(x.nrows, x.ncols, [list(row) for row in x.pairs]) for x in m.action])


_RUNS = {}


def run(name):
    """(ctx, sums built as (algebra, pieces, sum, frozen at birth),
    constructions as (kind, object, modules constructed during it),
    models returned), from one instrumented set-up and solve of the
    workload."""
    if name not in _RUNS:
        built, made, models, inside = [], [], [], []
        original_sum = modules.direct_sum
        original_init = Module.__init__

        def recording_sum(mods):
            out = original_sum(mods)
            built.append((mods[0].algebra, list(mods), out[0], _frozen(out[0])))
            return out

        def counting_init(self, *args, **kwargs):
            if inside:
                inside[-1] += 1
            original_init(self, *args, **kwargs)

        def recording_init(cls):
            original = cls.__init__

            def init(self, *args, **kwargs):
                inside.append(0)
                try:
                    original(self, *args, **kwargs)
                finally:
                    made.append((cls.__name__, self, inside.pop()))
            return init

        def recording_model(layer_name):
            original = getattr(twist, layer_name)

            def build(*args, **kwargs):
                out = original(*args, **kwargs)
                models.append(out)
                return out
            return build

        setup, solve, field = WORKLOADS[name]
        with pytest.MonkeyPatch.context() as mp:
            # `_piece_sum` is the one caller of direct_sum in `modules`
            mp.setattr(modules, "direct_sum", recording_sum)
            mp.setattr(Module, "__init__", counting_init)
            for cls in (Resolution, ChainComplex):
                mp.setattr(cls, "__init__", recording_init(cls))
            for layer_name in ("perfect_model", "_projective_staircase"):
                patch_everywhere(mp, twist, layer_name, recording_model(layer_name))
            ctx = setup(field)
            solve(ctx)
        _RUNS[name] = ctx, built, made, models
    return _RUNS[name]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_each_shared_sum_is_the_direct_sum_of_its_pieces(name):
    _, built, _, _ = run(name)
    algebras = {id(a): a for a, _, _, _ in built}.values()
    cached = [(a, key, s) for a in algebras for key, s in a._piece_sum_cache.items()]
    assert len(cached) >= len(built) > 3
    for a, key, s in cached:
        if not key:
            assert s.dim == 0
            continue
        fresh = direct_sum([_idempotent_piece(a, list(e))[0] for e in key])[0]
        assert fresh is not s
        assert s.dim == fresh.dim
        assert [x.pairs for x in s.action] == [x.pairs for x in fresh.action]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_one_sum_per_algebra_and_idempotent_list(name):
    _, built, _, _ = run(name)
    # the pieces are cached per idempotent, so equal piece lists are
    # equal idempotent lists
    keys = [(id(a), tuple(id(m) for m in pieces)) for a, pieces, _, _ in built]
    assert len(set(keys)) == len(keys)
    for a, _, s, _ in built:
        assert any(hit is s for hit in a._piece_sum_cache.values())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_the_audit_builds_no_module(name):
    # a `Resolution` or `ChainComplex` audits itself in its constructor
    _, _, made, _ = run(name)
    assert {kind for kind, _, _ in made} >= {"Resolution"}
    assert [(kind, n) for kind, _, n in made if n] == []


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_resolution_and_model_term_is_the_shared_sum_of_its_record(name):
    _, _, made, models = run(name)
    resolutions = [obj for kind, obj, _ in made if kind == "Resolution"]
    assert resolutions
    if name == "twist_cycle3_gf":
        assert models
    for x in resolutions + models:
        for term in x.terms:
            record = term.covered
            assert record is not None and record.term is term
            assert term is _piece_sum(term.algebra, record.idempotents)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_no_caller_changes_a_shared_sum(name):
    _, built, _, _ = run(name)
    for _, _, s, at_birth in built:
        assert _frozen(s) == at_birth
