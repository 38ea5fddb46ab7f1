"""Exception types shared across the simulator."""


class DsasimError(Exception):
    """Base class for all dsasim errors."""


class StateError(DsasimError):
    """Internal simulator state inconsistency (double release etc.). Fail fast."""


class ConfigError(DsasimError):
    """Raised by scenario parsing when the document is malformed or invalid."""
