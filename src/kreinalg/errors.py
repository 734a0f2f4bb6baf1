"""Exception taxonomy for the toolkit.

Three families, chosen so a front end can map failures to exit codes
without string matching:

* ``InputError``        -- malformed external data (files, shapes, flags).
* ``PreconditionError`` -- a mathematical hypothesis of an operation is
  violated (not selfadjoint, not congruent, incompatible pair, ...).
* ``NumericalError``    -- the mathematics is fine but floating point
  broke down (no convergence, contraction overflow).

Every class survives pickling with its type and message, so an error
raised in a property-suite worker process re-raises unchanged.
"""


class KreinError(Exception):
    """Base class for every error raised by this package."""


class InputError(KreinError):
    """Malformed external input: files, JSON payloads, option values."""


class PreconditionError(KreinError):
    """A mathematical precondition of the requested operation fails."""


class NumericalError(KreinError):
    """Numerical breakdown that is not a modelling error."""


# -- precondition family ----------------------------------------------------

class NotHermitian(PreconditionError):
    """Matrix expected to be Hermitian is not, beyond tolerance."""


class NotPSD(PreconditionError):
    """Matrix expected positive semidefinite has a genuinely negative eigenvalue."""


class NotSymmetry(PreconditionError):
    """Candidate fundamental symmetry fails J = J* or J^2 = I."""


class NotSelfadjoint(PreconditionError):
    """Operator expected selfadjoint in the Krein sense is not."""


class NotInvertible(PreconditionError):
    """Matrix expected invertible is numerically singular."""


class IllConditioned(PreconditionError):
    """Invertible but with condition number beyond the supported cap."""


class NotCongruent(PreconditionError):
    """Explicit congruence requested between operators with distinct indices."""


class NotDirect(PreconditionError):
    """Concatenated subspace bases fail to span directly."""


class NotSemidefinite(PreconditionError):
    """Subspace claimed semidefinite carries both signs."""


class DegenerateProjection(PreconditionError):
    """Coordinate projection of a claimed semidefinite subspace loses rank."""


class Incompatible(PreconditionError):
    """Graph pair is not orthogonal, so no joint extension exists."""


class DimensionMismatch(PreconditionError):
    """Operands live on spaces of different dimensions."""


class PreconditionFailed(PreconditionError):
    """Generic hypothesis failure; carries the list of failed hypotheses."""

    def __init__(self, failures):
        self.failures = list(failures)
        super().__init__("hypotheses failed: " + "; ".join(self.failures))

    def __reduce__(self):
        # args holds the joined message; rebuild from the list instead
        return type(self), (self.failures,)


# -- numerical family -------------------------------------------------------

class NoConvergence(NumericalError):
    """The underlying iterative eigen/SVD solver did not converge."""


class ContractionOverflow(NumericalError):
    """Assembled completion exceeded the contraction bound beyond slack."""
