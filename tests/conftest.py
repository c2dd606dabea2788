"""Checks that run around every test under ``tests``."""

import pytest

from sphertwist.homology import CotwistData
from sphertwist.twist import TwistCertificate


def assert_flags_match_their_formulas(obj):
    """A certificate's verdict and a cotwist's shift, which both classes
    read off their other fields, against the formulas their builders
    once computed and passed in."""
    if isinstance(obj, TwistCertificate):
        assert obj.verdict is bool(
            obj.images_perfect and obj.off_shift_zero
            and obj.endo_dim == obj.surjection.source.dim and obj.unit_map_bijective
        ), obj
    else:
        positive = [i for i, d in enumerate(obj.tor_dims) if d and i > 0]
        t = positive[0] if obj.complete and len(positive) == 1 else None
        assert obj.concentrated == t, obj
        assert obj.shift == (None if t is None else -t - 1), obj


@pytest.fixture(autouse=True)
def every_verdict_and_shift_match_their_formulas(monkeypatch):
    """Record each `TwistCertificate` and `CotwistData` a test builds,
    then check the flags read off their fields."""
    built = []
    for cls in (TwistCertificate, CotwistData):
        def recording(self, *args, _init=cls.__init__, **kwargs):
            _init(self, *args, **kwargs)
            built.append(self)

        monkeypatch.setattr(cls, "__init__", recording)
    yield
    monkeypatch.undo()
    for obj in built:
        assert_flags_match_their_formulas(obj)
