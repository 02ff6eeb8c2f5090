"""Exception hierarchy for the workbench.

Every failure mode of the numerical contracts gets its own class so that
callers (and the CLI exit-code mapping) can distinguish schema problems,
violated algebra axioms, broken numerical contracts and resource caps.
"""


class QGWBError(Exception):
    """Base class for all workbench errors."""


# -- input / schema -------------------------------------------------------

class SchemaError(QGWBError):
    """Malformed input document."""


class UnknownPreset(SchemaError):
    """A name that is no shipped preset."""


class NotAMorphism(QGWBError):
    """Linear map does not intertwine the coproducts within tolerance."""


# -- algebra axioms -------------------------------------------------------

class AxiomViolation(QGWBError):
    """A Hopf *-algebra axiom fails; message names the axiom and residual."""


class HaarNotFound(QGWBError):
    """No bi-invariant state exists for the given structure constants."""


class NonUnique(QGWBError):
    """The bi-invariant state is not unique (input is not a quantum group)."""


# -- linear algebra kernel ------------------------------------------------

class NotHermitian(QGWBError):
    pass


class DimensionMismatch(QGWBError):
    pass


# -- functional calculus --------------------------------------------------

class ParentMismatch(QGWBError):
    """Operands live over different parent objects."""


class NotAState(QGWBError):
    pass


class NotGenerating(QGWBError):
    pass


# -- generating functionals ----------------------------------------------

class NotSelfadjoint(NotGenerating):
    pass


class NotVanishing(NotGenerating):
    pass


class NotCND(NotGenerating):
    """Not conditionally negative definite; carries a witness vector."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class GramNotPSD(QGWBError):
    pass


class NotCentral(QGWBError):
    pass


class SelectionFailed(QGWBError):
    """The growth/smallness selection cannot be met on the supplied data."""

    def __init__(self, message, condition=None, stage=None):
        super().__init__(message)
        self.condition = condition
        self.stage = stage


class StageOverflow(QGWBError):
    """Geometric weights exceeded the double-precision ceiling."""


# -- corepresentations ----------------------------------------------------

class NotKac(QGWBError):
    pass


class EmptyQ(QGWBError):
    pass


class OracleMismatch(QGWBError):
    """Two independent computation routes disagree beyond tolerance."""


class NotInvolutive(QGWBError):
    pass


# -- windows --------------------------------------------------------------

class WindowTruncation(QGWBError):
    """A required product falls outside the window."""


class RadiusTooLarge(QGWBError):
    pass


class NotNormalized(QGWBError):
    pass


# -- actions ---------------------------------------------------------------

class NoInvariantState(QGWBError):
    pass


class NotUnitary(QGWBError):
    pass


# -- Fock -------------------------------------------------------------------

class CompatibilityFailed(QGWBError):
    """The creation-operator involution does not intertwine the corep."""

    def __init__(self, message, worst_residual=None):
        super().__init__(message)
        self.worst_residual = worst_residual


class DepthExceeded(QGWBError):
    pass


class NotTracial(QGWBError):
    pass


RESOURCE_CAP_ERRORS = (WindowTruncation, DepthExceeded, StageOverflow, RadiusTooLarge)
