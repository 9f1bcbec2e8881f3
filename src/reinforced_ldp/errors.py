"""Exception types shared across the package."""


class SimplexViolation(ValueError):
    """Input is too far from the probability simplex to renormalize."""


class PositivityViolation(ValueError):
    """A kernel (or builder input) lacks the required strictly positive entries."""


class DimensionMismatch(ValueError):
    """Operands have incompatible state-space dimensions."""


class PolicyError(ValueError):
    """A control policy returned an invalid distribution."""


class PreconditionViolation(ValueError):
    """A documented operation precondition does not hold."""


class ResourceLimitExceeded(RuntimeError):
    """A configured memory or size cap would be exceeded."""


class ConvergenceError(RuntimeError):
    """A numerical computation failed: an iterative solve missed its tolerance,
    or a conserved probability mass drifted."""


class ConfigError(ValueError):
    """Invalid or inconsistent command-line configuration."""
