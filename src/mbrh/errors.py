"""Exception hierarchy shared by all solver modules."""


class MBRHError(Exception):
    """Base class for all package errors."""


# --- broadening ---------------------------------------------------------
class ZeroMass(MBRHError):
    """Tabulated weight has (numerically) zero integral."""


class NonDecaying(MBRHError):
    """Tabulated weight does not decay at the grid ends."""


class TooCloseToAxis(MBRHError):
    """Quadrature evaluation point too close to the real axis."""


class PrincipalValueFailure(MBRHError):
    """Principal-value quadrature did not converge."""


# --- lax ----------------------------------------------------------------
class GridCoverage(MBRHError):
    """Detuning grid does not cover enough of the weight's mass."""


# --- spectral -----------------------------------------------------------
class DecayViolation(MBRHError):
    """Boundary pulse has not decayed at the end of the time window."""


class MediumNotAsymptotic(MBRHError):
    """Initial medium polarization does not vanish at x = L."""


class SpectralOverflow(MBRHError):
    """The transition matrices T+- are not finite on the axis."""


class SpectralSingularity(MBRHError):
    """a(lambda) vanishes on the real axis (outside the regular theory)."""


class CountMismatch(MBRHError):
    """The zeros of a found in the upper half-plane disagree with their
    count on the real axis: the Blaschke fit misses, or Newton fails."""


class AmplifierZeros(MBRHError):
    """a has zeros on an amplifier, whose residue conditions are not
    derived here."""


# --- jump ---------------------------------------------------------------
class SingularK(MBRHError):
    """det K drifted too far from 1."""


# --- rhsolver -----------------------------------------------------------
class EmptyContour(MBRHError):
    """Contour construction produced no panels."""


class IllConditioned(MBRHError):
    """Collocation system condition estimate exceeds the safe threshold."""


class PosdefViolated(MBRHError):
    """Real-axis jump failed the positive-definiteness precondition."""


class SingularResidueSystem(MBRHError):
    """Degenerate pole configuration in the reflectionless solve."""


# --- direct -------------------------------------------------------------
class CFLViolation(MBRHError):
    """Grid steps are not characteristics-aligned (dt != dx)."""


class ConstraintDrift(MBRHError):
    """Bloch-sphere constraint drifted beyond the cumulative tolerance."""


# --- cli ----------------------------------------------------------------
class SchemaError(MBRHError):
    """Malformed scenario/config file."""


class InvariantError(MBRHError):
    """Scenario data violates a declared invariant."""
