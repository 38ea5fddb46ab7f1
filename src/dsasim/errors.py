"""Exception types shared across the simulator."""


class DsasimError(Exception):
    """Base class for all dsasim errors."""


class GeometryError(DsasimError):
    """Raised when node positions are degenerate (e.g. coincident tx/rx)."""


class UnsupportedModulationError(DsasimError):
    """Raised when a BER/SINR mapping is requested for a modulation without one."""


class StateError(DsasimError):
    """Internal simulator state inconsistency (double release etc.). Fail fast."""


class ConfigError(DsasimError):
    """Raised by scenario parsing when the document is malformed or invalid."""
