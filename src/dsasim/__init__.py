"""dsasim: discrete-event simulation of dynamic spectrum sharing.

Cognitive-radio secondary links request sessions from heterogeneous service
providers; channels are assigned either on the home provider's band only
(fixed allocation) or via a utility-maximizing best-available-channel rule
over all providers (dynamic sharing).  Admission can additionally require
SINR feasibility for the co-channel group and bounded interference at
primary receiving points.  Runs are deterministic given a seed and report
throughput, propagation delay, RTT, interference, spectral efficiency and
blocking probability.
"""

__version__ = "0.1.0"

from .engine import (
    Outcome,
    QosConfig,
    SessionRecord,
    Simulation,
    Strategy,
    run_simulation,
)
from .errors import ConfigError, DsasimError, StateError
from .metrics import MetricsReport, erlang_b
from .qos import Modulation, link_arrays, link_sinr, qos_met, sinr_target_from_ber
from .sbac import SbacConfig, select_best_channel, utility
from .topology import (
    GainMatrices,
    NetworkTopology,
    PrimaryReceivingPoint,
    SecondaryLink,
    ServiceProvider,
    SpectrumChannel,
    gains_from_positions,
)
from .traffic import TrafficSpec, build_event_stream

__all__ = [
    "__version__",
    "ConfigError",
    "DsasimError",
    "GainMatrices",
    "MetricsReport",
    "Modulation",
    "NetworkTopology",
    "Outcome",
    "PrimaryReceivingPoint",
    "QosConfig",
    "SbacConfig",
    "SecondaryLink",
    "ServiceProvider",
    "SessionRecord",
    "Simulation",
    "SpectrumChannel",
    "StateError",
    "Strategy",
    "TrafficSpec",
    "build_event_stream",
    "erlang_b",
    "gains_from_positions",
    "link_arrays",
    "link_sinr",
    "qos_met",
    "run_simulation",
    "select_best_channel",
    "sinr_target_from_ber",
    "utility",
]
