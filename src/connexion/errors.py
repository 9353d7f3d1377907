"""Exception hierarchy.

Every failure mode callers are expected to catch gets its own class so tests
can assert on the precise condition rather than on message strings.
"""


class ConnexionError(Exception):
    """Base class for all library errors."""


# -- connection construction --------------------------------------------------

class SumMismatch(ConnexionError):
    """Explicit full pole set violates the residue-sum identity."""


class DuplicatePole(ConnexionError):
    pass


class NonRealResidue(ConnexionError):
    """A residue with a nonzero imaginary part; residues must be real."""


class EvalAtPole(ConnexionError):
    pass


class LoopThroughPole(ConnexionError):
    pass


class InvalidOrder(ConnexionError):
    """A k-differential root with order zero."""


class DuplicateRoot(ConnexionError):
    pass


# -- geodesic engine ----------------------------------------------------------

class StartAtPole(ConnexionError):
    pass


class PathThroughPole(ConnexionError):
    pass


class ZeroVelocity(ConnexionError):
    pass


# -- adapted charts and local theory ------------------------------------------

class ResonantOrLow(ConnexionError):
    """Resonant residue rho in {-2, -3, ...}: the adapted-chart series
    divides by j + rho + 1 = 0 at j = -rho - 1, so there is no adapted
    chart."""


class SeriesDivergence(ConnexionError):
    """No usable adapted-chart series: the pullback residual test failed at
    every candidate radius."""


class AtPole(ConnexionError):
    pass


class OutOfDomain(ConnexionError):
    pass


class OutOfRange(ConnexionError):
    pass


class SegmentOutsideChart(ConnexionError):
    pass


# -- polygons / angle identities ----------------------------------------------

class NotIncident(ConnexionError):
    pass


class NotCriticalAtPole(ConnexionError):
    """A polygon side reaches a pole non-critically: inconsistent input."""


class PoleNotVertexZero(ConnexionError):
    pass


class VertexResidueTooLow(ConnexionError):
    pass


class NotFound(ConnexionError):
    """Shooting search found no simple arc to its target."""


# -- classifier ---------------------------------------------------------------

class SeedNotPeriodic(ConnexionError):
    pass


class TooFewCrossings(ConnexionError):
    pass
