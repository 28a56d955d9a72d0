"""Exception hierarchy shared by all qortho modules."""


class QorthoError(Exception):
    pass


# scalar arithmetic
class DivisionByZero(QorthoError):
    pass


class PoleAtOne(QorthoError):
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


class NoPlaneConjugation(QorthoError):
    pass


class Unclassifiable(QorthoError):
    pass


# rewriting
class RankMismatch(QorthoError):
    pass
