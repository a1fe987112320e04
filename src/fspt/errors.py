"""Domain error taxonomy.

Every failure mode of the library raises a subclass of :class:`DomainError`.
The class name doubles as the machine-readable error token emitted by the
command line front end.
"""


class DomainError(Exception):
    """Base class for all domain-level failures."""

    @property
    def token(self) -> str:
        return type(self).__name__


# finite groups and homomorphisms

class NotAssociative(DomainError):
    pass


class NoIdentity(DomainError):
    pass


class NoInverse(DomainError):
    pass


class NotHomomorphism(DomainError):
    pass


# phases and cocycles

class NotUnitPhase(DomainError):
    pass


class NotNormalized(DomainError):
    pass


class CocycleIdentityFails(DomainError):
    pass


class NotRootOfUnity(DomainError):
    pass


class NotProjectiveRep(DomainError):
    pass


# graded linear algebra

class DegreeUntagged(DomainError):
    pass


class DimensionTooLarge(DomainError):
    pass


class NotGraded(DomainError):
    pass


class CentralityViolation(DomainError):
    pass


class NotUnitary(DomainError):
    pass


class IndexOutOfRange(DomainError):
    pass


# graded systems and the index

class GroupMismatch(DomainError):
    pass


class GradingActionIndeterminate(DomainError):
    pass


class NotBalanced(DomainError):
    pass


class MarkerNotFound(DomainError):
    pass


class NotTimeReversalShape(DomainError):
    pass


class InvalidSystem(DomainError):
    """Structural invariant of a graded system fails (dimensions, action)."""


# fermionic matrix product states

class DimensionMismatch(DomainError):
    pass


class DegenerateFixedPoint(DomainError):
    pass


class NotPositive(DomainError):
    pass


class SizeTooLarge(DomainError):
    pass


class SymmetryViolated(DomainError):
    pass


class NoConsistentQ(DomainError):
    pass


class InvalidMPS(DomainError):
    """MPS data violates a validation invariant (normalization, grading)."""
