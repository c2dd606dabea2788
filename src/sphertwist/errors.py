"""Exception hierarchy shared by every engine module.

Each exception carries enough of a witness to reproduce the failure:
constructors take a human-readable message plus optional structured data
kept on the instance (``.witness``).
"""

from __future__ import annotations


class SphertwistError(Exception):
    """Base class for every error raised by this package."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class FieldMismatch(SphertwistError):
    pass


class ShapeError(SphertwistError):
    pass


class NonAssociative(SphertwistError):
    pass


class BadUnit(SphertwistError):
    pass


class InfiniteDimensional(SphertwistError):
    pass


class MalformedRelation(SphertwistError):
    pass


class UnsupportedCharacteristic(SphertwistError):
    pass


class NotAnIdeal(SphertwistError):
    pass


class NotSplit(SphertwistError):
    pass


class AlgebraMismatch(SphertwistError):
    pass


class NotASubmodule(SphertwistError):
    pass


class NotSelfInjective(SphertwistError):
    pass


class NotProgenerator(SphertwistError):
    pass


class CapExceeded(SphertwistError):
    pass


class ShapeMismatch(SphertwistError):
    pass


class AuditFailed(SphertwistError):
    pass


class NotAChainMap(SphertwistError):
    pass

