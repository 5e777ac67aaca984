"""Exception hierarchy shared by all berkline modules.

Every domain error raised by the library derives from :class:`BerklineError`,
so the command line front end can map them uniformly to exit code 3.
"""

from __future__ import annotations


class BerklineError(Exception):
    """Base class for all berkline domain errors."""


class BackendMismatch(BerklineError):
    """Two values from different field backends were combined."""


class DivisionByZero(BerklineError, ZeroDivisionError):
    """Inversion or division by the zero element."""


class ReductionTooLong(BerklineError):
    """A lazy fraction whose reduced form is out of bounded reach: the
    exponent spans of its num and den are too long for the gcd."""


class NumericBaseRequired(BerklineError):
    """A magnitude had to be compared with a rational but the base is abstract."""


class PoleAtPoint(BerklineError):
    """A Laurent polynomial was evaluated at the rigid point 0."""


class LengthMismatch(BerklineError):
    """Coordinate tuples of different lengths."""


class ZeroTuple(BerklineError):
    """A projective tuple with all coordinates zero."""


class DomainViolation(BerklineError):
    """A point or image left the declared domain of a map."""


class PoleHit(BerklineError):
    """A composition ran through a zero of the denominator coordinate."""


class InvalidGenerator(BerklineError):
    """A PGL(2, k°) generator is malformed (unknown kind, wrong arity, a
    parameter that is not a Scalar) or its parameter violates its norm
    bound."""


class ZeroSeries(BerklineError):
    """Tropical data requested for the zero series."""


class OutOfDomain(BerklineError):
    """A tropical evaluation outside the declared log-radius interval."""


class PreconditionViolation(BerklineError):
    """A checked analytic precondition (e.g. theta >= log R) fails."""


class NotProjective(BerklineError):
    """A curve-model operation that needs a projective model got one with
    punctures or boundary."""


class InconsistentModel(BerklineError):
    """A curve model violating a structural consistency constraint."""


class NoNodes(BerklineError):
    """Decomposition requested for a model without nodes."""


class EmptySkeleton(BerklineError):
    """Retraction requested for a model with empty skeleton."""


class NotHyperbolic(BerklineError):
    """Kobayashi distance requested on a model where it degenerates."""


class UnknownMark(BerklineError):
    """A named point missing from a tree-of-disks model."""


class NoExplosion(BerklineError):
    """A rescaling witness fails its derivative lower bound."""


class RadiusNotInValueGroup(BerklineError):
    """No backend scalar realizes the required rescaling magnitude."""


class SchemaError(BerklineError):
    """An input document does not match the documented schema."""
