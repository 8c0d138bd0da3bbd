"""Exception hierarchy shared by all frenetkit modules."""


class FrenetError(Exception):
    """Base class for all frenetkit errors."""


class InputError(FrenetError):
    """Bad user input (files, arguments).  CLI exit code 2."""


class NumericalError(FrenetError):
    """Numerical failure during an otherwise valid computation.  CLI exit code 1."""


# curve_core
class NonUniformLength(InputError):
    pass


class TooShort(InputError):
    pass


# ngon_circle
class AngleOutOfRange(InputError):
    pass


class NonpositiveLength(InputError):
    pass


class OutOfImage(InputError):
    pass


# frames
class UndefinedBinormal(NumericalError):
    pass


class DegenerateVertexFrame(NumericalError):
    pass


# reconstruct
class InvalidAngles(InputError):
    pass


class CountMismatch(InputError):
    pass


# discretize2d
class OutOfDomain(InputError):
    pass


class ParallelTangents(NumericalError):
    pass


class MissingInflectionSample(InputError):
    pass


class InfinitelyManyInflections(NumericalError):
    pass


class NonConvexCurve(InputError):
    def __init__(self, msg, index=None):
        super().__init__(msg)
        self.index = index


class MTooSmall(NumericalError):
    def __init__(self, msg, index=None, minimal_density=None):
        super().__init__(msg)
        self.index = index
        self.minimal_density = minimal_density


# specfun
class ModulusOutOfRange(InputError):
    pass


# spline2d
class NoConvergence(NumericalError):
    def __init__(self, msg, residual=None):
        super().__init__(msg)
        self.residual = residual


class Infeasible(InputError):
    pass


class MultipleSolutionsWarning(UserWarning):
    """Several distinct local minima found; the lowest-energy one is returned."""


# cli_io
class ParseError(InputError):
    pass


class NonPlanarData(InputError):
    pass
