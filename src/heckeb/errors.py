"""Exception types shared across the library."""


class HeckebError(Exception):
    """Base class for all library errors."""


class InvalidArgument(HeckebError):
    """An argument lies outside its domain: a window that is not a signed
    permutation, parts that are not a partition, a generator index outside
    0..n-1, a cell side other than L, R or LR, a negative r or n, or
    e < 2."""


class SizeMismatch(HeckebError):
    """Two bipartitions (or partitions) of different total size were compared."""


class CoreMismatch(HeckebError):
    """A partition does not have the 2-core required by the requested map,
    or a core's beta-set has too few beads on a runner for a 2-quotient."""


class BoundExceeded(HeckebError):
    """A rank or size argument is above the configured desk-scale bound."""


class MalformedTableau(HeckebError):
    """A domino tableau violates standardness or its core convention."""


class InvalidSlope(HeckebError):
    """A weight-order slope xi is not a positive non-integer rational."""


class IrrationalityViolation(HeckebError):
    """A tie occurred in a xi-order comparison: the chosen rational xi is
    unfaithful to the irrational order it stands in for."""


class BadResidue(HeckebError):
    """A residue index lies outside 0..e-1."""


class NonIntegralDivision(HeckebError):
    """Dividing x^m - 1 by the lower cyclotomic polynomials left a
    remainder, or a cyclotomic number shares a factor with its modulus;
    signals a convention bug upstream."""


class NotUglov(HeckebError):
    """A bipartition has no path to the empty bipartition in the crystal."""


class IncompatibleCharges(HeckebError):
    """Two charges do not parametrize isomorphic highest-weight modules."""


class ChargeOutOfRange(HeckebError):
    """A charge lies outside the domain of a closed-form characterization."""


class ConventionViolation(HeckebError):
    """The canonical-basis reduction met an index it cannot resolve; signals
    a convention bug in the Fock/crystal layer."""


class KLRecursionViolation(HeckebError):
    """The recursive Kazhdan-Lusztig construction produced an element that is
    not congruent to T_w modulo strictly negative coefficients, two ascents
    to the same w disagreed, or a computed coefficient is not the shift of
    the one at the top of its left coset; signals a convention bug."""


class ConjectureAViolation(HeckebError):
    """Insertion fibers do not match Kazhdan-Lusztig cells."""


class RankDeficiency(HeckebError):
    """Trace functions of the computed simple modules are linearly
    dependent, or the radical of a cell module's form is not a submodule;
    signals a simples-detection bug."""


class NonIntegralMultiplicity(HeckebError):
    """A decomposition number solved from the trace system is not an
    integer; signals a bug in the trace system or in the simples."""
