"""Exception types shared across the package."""


class LcltError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(LcltError):
    """A configuration value is malformed (exit code 2, not 3)."""


# -- exact group arithmetic ------------------------------------------------

class MixedRingError(LcltError):
    """Operands live in Q(sqrt(D)) for different D."""


class RankError(LcltError):
    """Internal invariant violated: more independent directions than the
    ambient dimension allows."""


class NotShearableError(LcltError):
    """Shear reduction only applies to cases C and E."""


class UnsupportedGroupError(LcltError):
    """Haar-measure evaluation requested for a group shape we do not handle."""


class InfiniteCovolumeError(LcltError):
    """Covolume requested for a non-discrete group."""


# -- predictions -----------------------------------------------------------

class SingularCovariance(LcltError):
    """Covariance matrix is not positive definite."""


class NonPositiveNuTau(LcltError):
    """Mean roof value must be strictly positive."""


class CaseMismatch(LcltError):
    """Prediction routine called with the wrong case label."""


class LatticeViolation(LcltError):
    """Recentering W(t) is not on the admissible lattice."""


# -- exact renewal DP ------------------------------------------------------

class StateExplosion(LcltError):
    """Dynamic program exceeded the live-state budget."""


# -- spectral --------------------------------------------------------------

class NoGapError(LcltError):
    """Two eigenvalues tie in modulus; leading eigenvalue ill-defined."""


# -- warnings --------------------------------------------------------------

class EmptySetWarning(UserWarning):
    """Conditioning set has too little empirical mass for a meaningful
    estimate."""
