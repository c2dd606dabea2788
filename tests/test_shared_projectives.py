"""The covered projectives ⊕ eₖ·A are built once and shared.

`modules._piece_sum` builds the sum of the pieces `_idempotent_piece(a,
eₖ)` once per algebra and idempotent list and caches it on the algebra.
Each of the three benchmark workloads is set up and solved at seed 0,
over its own field, while every sum `_piece_sum` builds is recorded with
a copy of its action matrices at birth, and every call of `_rebuilt_by`
is recorded with the modules constructed during it.  Then:

- each cached sum is the direct sum of its pieces, action for action;
- no (algebra, idempotent list) is built twice, and every recorded term
  the audits certify is the cached sum of its record;
- `_rebuilt_by` constructs no module;
- no caller changed a shared sum: its actions are what they were at
  birth, after the whole solve.
"""

import pytest

from sphertwist import modules, resolutions
from sphertwist.modules import Module, _idempotent_piece, direct_sum

from patching import patch_everywhere
from workload_contexts import WORKLOADS


def _frozen(m):
    """The actions of m as objects and as values, copied."""
    return (m.dim, [id(x) for x in m.action],
            [(x.nrows, x.ncols, [list(row) for row in x.pairs]) for x in m.action])


_RUNS = {}


def run(name):
    """(ctx, sums built as (algebra, pieces, sum, frozen at birth),
    audits as (term, cover, modules constructed during the call)), from
    one instrumented set-up and solve of the workload."""
    if name not in _RUNS:
        built, audits, inside = [], [], []
        original_sum = modules.direct_sum
        original_rebuilt = resolutions._rebuilt_by
        original_init = Module.__init__

        def recording_sum(mods):
            out = original_sum(mods)
            built.append((mods[0].algebra, list(mods), out[0], _frozen(out[0])))
            return out

        def counting_init(self, *args, **kwargs):
            if inside:
                inside[-1] += 1
            original_init(self, *args, **kwargs)

        def recording_rebuilt(term, cover):
            inside.append(0)
            try:
                return original_rebuilt(term, cover)
            finally:
                audits.append((term, cover, inside.pop()))

        setup, solve, field = WORKLOADS[name]
        with pytest.MonkeyPatch.context() as mp:
            # `_piece_sum` is the one caller of direct_sum in `modules`
            mp.setattr(modules, "direct_sum", recording_sum)
            mp.setattr(Module, "__init__", counting_init)
            patch_everywhere(mp, resolutions, "_rebuilt_by", recording_rebuilt)
            ctx = setup(field)
            solve(ctx)
        _RUNS[name] = ctx, built, audits
    return _RUNS[name]


def _key(cover):
    return tuple(tuple(e) for e in cover)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_each_shared_sum_is_the_direct_sum_of_its_pieces(name):
    _, built, _ = run(name)
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
    _, built, audits = run(name)
    # the pieces are cached per idempotent, so equal piece lists are
    # equal idempotent lists
    keys = [(id(a), tuple(id(m) for m in pieces)) for a, pieces, _, _ in built]
    assert len(set(keys)) == len(keys)
    for a, _, s, _ in built:
        assert any(hit is s for hit in a._piece_sum_cache.values())
    # every term the audits certify is the shared sum of its record
    assert audits
    for term, cover, _ in audits:
        assert term is term.algebra._piece_sum_cache[_key(cover)]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_the_audit_builds_no_module(name):
    _, _, audits = run(name)
    assert audits
    assert [made for _, _, made in audits if made] == []


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_no_caller_changes_a_shared_sum(name):
    _, built, _ = run(name)
    for _, _, s, at_birth in built:
        assert _frozen(s) == at_birth
