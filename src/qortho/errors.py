"""Exception hierarchy shared by all qortho modules."""


class QorthoError(Exception):
    pass


# scalar arithmetic
class DivisionByZero(QorthoError):
    pass


class PoleAtOne(QorthoError):
    pass


class ResidualT(QorthoError):
    pass


# linear algebra
class DimMismatch(QorthoError):
    pass


class Singular(QorthoError):
    pass


class NotSymmetric(QorthoError):
    pass


class Degenerate(QorthoError):
    pass


class NotReal(QorthoError):
    pass


class NotInvolution(QorthoError):
    pass


# R-matrix construction
class BadN(QorthoError):
    pass


# real forms
class BadFamily(QorthoError):
    pass


class ConditionFailed(QorthoError):
    def __init__(self, name, witness=None):
        super().__init__(f"{name} failed" + (f" at {witness}" if witness is not None else ""))
        self.name = name
        self.witness = witness


class NoPlaneConjugation(QorthoError):
    pass


class Unclassifiable(QorthoError):
    pass


class WitnessNotAutomorphism(QorthoError):
    pass


class IdentityFailed(QorthoError):
    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


# rewriting
class RankMismatch(QorthoError):
    pass
