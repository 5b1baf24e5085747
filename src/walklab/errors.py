"""Exception hierarchy for walklab."""


class WalklabError(Exception):
    """Base class for all walklab errors."""


class LawError(WalklabError):
    """A step law failed validation."""


class NonUnitMass(LawError):
    """Weights do not sum to one."""


class NonzeroMean(LawError):
    """The step law does not have mean zero."""


class Reducible(LawError):
    """The law does not generate all of Z (gcd of support exceeds 1)."""


class SupportTooWide(LawError):
    """The step support exceeds the configured span budget."""


class DegenerateLaw(LawError):
    """The step law has zero variance."""


class WindowOverflow(WalklabError):
    """A dynamic-programming window would exceed its size budget."""


class OutOfWindow(WalklabError, KeyError):
    """A requested site lies outside a precomputed table's window."""


class QuadratureNotConverged(WalklabError):
    """A numerical integral failed to reach the requested accuracy."""


class SingularSystem(WalklabError):
    """A linear system for exit probabilities was singular."""


class TailNotNegligible(WalklabError):
    """A truncated sum's tail bound exceeds the requested tolerance."""


class FactorizationFailed(WalklabError):
    """The Wiener-Hopf roots of a step law could not be resolved."""


class InconsistentEstimates(WalklabError):
    """Two independent routes to the same constant disagree."""


class ConstraintViolation(WalklabError, ValueError):
    """An input lies outside the domain of the requested computation or law."""
