"""Scenario configuration: one YAML document describes a whole experiment.

The document has five sections: ``topology`` (providers, links, primary
points, gain model), ``traffic`` (arrival rates, holding time, horizon,
seed), ``sbac`` (selection weights and session length), ``strategy`` (allocation
kind(s) and physical-layer flags) and an optional ``sweep``.  Parsing is
strict: unknown or missing keys fail with the offending key path, numbers must be
finite, dB-valued fields are converted to linear watts, and every applied
default is logged.  Each object checks its own fields when it is built
(:func:`_built` puts the key path in front of its message), so the first
violation found is the one reported.  Nothing after parsing re-checks or
re-derives a built object: a ``users`` sweep point indexes the parsed gains.
A parsed config serializes back to an equivalent document, so any run can
be reproduced from its normalized config alone: the serializer writes each
object's own fields, and the parser's literal key sets refuse a key it does
not read yet.
"""
from __future__ import annotations

import dataclasses
import logging
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
import yaml

from .engine import QosConfig, Strategy
from .errors import ConfigError
from .qos import Modulation, sinr_target_from_ber
from .sbac import SbacConfig
from .topology import (
    GainMatrices,
    NetworkTopology,
    PrimaryReceivingPoint,
    SecondaryLink,
    ServiceProvider,
    SpectrumChannel,
    gains_from_positions,
)
from .traffic import TrafficSpec

logger = logging.getLogger(__name__)

SWEEP_PARAMETERS = ("arrival_rate", "users")


@dataclass(frozen=True)
class SweepSpec:
    """The swept parameter, its values and the seeds run at each value; a bad
    field, NaN included, raises ValueError naming it."""

    parameter: str
    values: tuple[float, ...]
    seeds_per_point: int = 1

    def __post_init__(self):
        if self.parameter not in SWEEP_PARAMETERS:
            raise ValueError(
                f"parameter must be one of {', '.join(SWEEP_PARAMETERS)}; got {self.parameter!r}"
            )
        if not self.values:
            raise ValueError("values must be a non-empty list of numbers")
        first: dict[float, int] = {}  # equal values would be one run twice, under one label
        for i, value in enumerate(self.values):
            if self.parameter == "users" and not (value >= 1 and float(value).is_integer()):
                raise ValueError(f"values[{i}] must be a user count >= 1, got {value}")
            if self.parameter == "arrival_rate" and not 0 <= value < math.inf:
                raise ValueError(f"values[{i}] must be an arrival rate >= 0, got {value}")
            if value in first:
                raise ValueError(f"values[{i}] duplicates values[{first[value]}]")
            first[value] = i
        if type(self.seeds_per_point) is not int or self.seeds_per_point < 1:
            raise ValueError("seeds_per_point must be a positive integer")


@dataclass(frozen=True)
class ScenarioConfig:
    topology: NetworkTopology
    traffic: TrafficSpec
    sbac: SbacConfig
    strategies: tuple[Strategy, ...]
    qos: QosConfig
    sweep: SweepSpec | None
    path_loss_exponent: float
    reference_distance: float
    explicit_gains: bool


def db_to_linear(value_db: float) -> float:
    """Decibels (power ratio) to linear scale: 10 ** (dB / 10)."""
    return 10.0 ** (value_db / 10.0)


# -- strict mapping access ----------------------------------------------------

_MISSING = object()


def _mapping(obj, path: str) -> dict:
    if obj is None:
        return {}
    if not isinstance(obj, dict):
        raise ConfigError(f"{path} must be a mapping, got {type(obj).__name__}")
    return obj


def _check_keys(mapping: dict, allowed: set[str], path: str) -> None:
    for key in mapping:
        if key not in allowed:
            raise ConfigError(f"unknown key {path}.{key}")


def _get(mapping: dict, key: str, path: str, default=_MISSING):
    """The value at ``path.key``; a missing key takes ``default``, which is
    logged, or fails when there is none."""
    if key in mapping:
        return mapping[key]
    if default is _MISSING:
        raise ConfigError(f"missing required key {path}.{key}")
    logger.info("defaulted %s.%s=%s", path, key, default)
    return default


def _to_float(value, where: str) -> float:
    # YAML 1.1 resolves "3.0e8" (no sign) as a string; accept such spellings
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    try:
        number = float(value)
    except (ValueError, OverflowError):
        raise ConfigError(f"{where} must be a number, got {value!r}") from None
    if not math.isfinite(number):
        raise ConfigError(f"{where} must be finite, got {value!r}")
    return number


def _number(mapping: dict, key: str, path: str, default=_MISSING):
    if key not in mapping:
        return _get(mapping, key, path, default)
    return _to_float(mapping[key], f"{path}.{key}")


def _watts(mapping: dict, key: str, path: str) -> float:
    """``key`` in linear watts, or ``key_db`` converted from dB, but not both."""
    db_key = f"{key}_db"
    if db_key not in mapping:
        return _number(mapping, key, path)
    if key in mapping:
        raise ConfigError(f"{path}.{key} and {path}.{db_key} are mutually exclusive")
    try:
        return db_to_linear(_number(mapping, db_key, path))
    except OverflowError:
        raise ConfigError(f"{path}.{db_key} is too large to convert from dB") from None


def _matrix(value, path: str) -> np.ndarray:
    try:
        matrix = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ConfigError(f"{path} must be a matrix of finite numbers") from None
    if not np.all(np.isfinite(matrix)):
        raise ConfigError(f"{path} must be a matrix of finite numbers")
    return matrix


def _built(path: str, make):
    """``make`` with its ValueError, whose message starts with the offending
    field's name, raised as a ConfigError with ``path`` in front."""

    def build(*args, **kwargs):
        try:
            return make(*args, **kwargs)
        except ValueError as exc:
            raise ConfigError(f"{path}.{exc}") from None

    return build


def _position(value, path: str) -> tuple[float, float]:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ConfigError(f"{path} must be a 2-element [x, y] position")
    return (_to_float(value[0], path), _to_float(value[1], path))


# -- section parsers ----------------------------------------------------------


def _parse_provider(raw, index: int, path: str) -> ServiceProvider:
    raw = _mapping(raw, path)
    _check_keys(
        raw,
        {"channels", "base_frequency", "channel_spacing", "channel_bandwidth", "cost_rate"},
        path,
    )
    cost_rate = _number(raw, "cost_rate", path)
    channels_raw = _get(raw, "channels", path)

    if isinstance(channels_raw, int) and not isinstance(channels_raw, bool):
        if channels_raw < 1:
            raise ConfigError(f"{path}.channels must be >= 1")
        bandwidth = _number(raw, "channel_bandwidth", path)
        base = _number(raw, "base_frequency", path)
        for key, value in (("channel_bandwidth", bandwidth), ("base_frequency", base)):
            if not value > 0:
                raise ConfigError(f"{path}.{key} must be > 0")
        spacing = _number(raw, "channel_spacing", path, default=bandwidth)
        # base > 0, so the last channel is the one a spacing can push out
        if not 0 < base + (channels_raw - 1) * spacing < math.inf:
            raise ConfigError(f"{path}.channel_spacing puts channels outside (0, inf) Hz")
        channels = tuple(
            SpectrumChannel(id=i, center_frequency=base + i * spacing, bandwidth=bandwidth)
            for i in range(channels_raw)
        )
    elif isinstance(channels_raw, list):
        for key in ("base_frequency", "channel_spacing", "channel_bandwidth"):
            if key in raw:
                raise ConfigError(
                    f"{path}.{key} conflicts with an explicit {path}.channels list"
                )
        channels = []
        for i, ch_raw in enumerate(channels_raw):
            ch_path = f"{path}.channels[{i}]"
            ch_raw = _mapping(ch_raw, ch_path)
            _check_keys(ch_raw, {"center_frequency", "bandwidth"}, ch_path)
            channels.append(
                _built(ch_path, SpectrumChannel)(
                    id=i,
                    center_frequency=_number(ch_raw, "center_frequency", ch_path),
                    bandwidth=_number(ch_raw, "bandwidth", ch_path),
                )
            )
        channels = tuple(channels)
    else:
        raise ConfigError(f"{path}.channels must be an int count or a list of channels")

    return _built(path, ServiceProvider)(id=index, channels=channels, cost_rate=cost_rate)


def _sinr_target(mapping: dict, path: str) -> float:
    """``sinr_target``, or the SINR target that ``modulation`` plus
    ``target_ber`` state, but not both."""
    if "target_ber" not in mapping:
        if "modulation" in mapping:
            raise ConfigError(f"{path}.modulation needs a {path}.target_ber")
        if "sinr_target" not in mapping:
            raise ConfigError(f"{path} needs either sinr_target or modulation plus target_ber")
        return _number(mapping, "sinr_target", path)
    if "sinr_target" in mapping:
        raise ConfigError(f"{path}.sinr_target and {path}.target_ber are mutually exclusive")
    name = _get(mapping, "modulation", path)
    try:
        modulation = Modulation(str(name).upper())
    except ValueError:
        raise ConfigError(f"{path}.modulation must be BPSK or QPSK, got {name!r}") from None
    # sinr_target_from_ber checks the range of target_ber
    return _built(path, sinr_target_from_ber)(modulation, _number(mapping, "target_ber", path))


def _parse_link(raw, index: int, path: str) -> SecondaryLink:
    raw = _mapping(raw, path)
    _check_keys(
        raw,
        {
            "tx",
            "rx",
            "bandwidth",
            "rate",
            "rate_min",
            "rate_max",
            "power",
            "power_max",
            "noise",
            "noise_db",
            "modulation",
            "target_ber",
            "sinr_target",
        },
        path,
    )
    rate = _number(raw, "rate", path)
    power_max = _number(raw, "power_max", path)
    return _built(path, SecondaryLink)(
        id=index,
        tx_position=_position(_get(raw, "tx", path), f"{path}.tx"),
        rx_position=_position(_get(raw, "rx", path), f"{path}.rx"),
        bandwidth=_number(raw, "bandwidth", path),
        rate=rate,
        rate_min=_number(raw, "rate_min", path, default=rate),
        rate_max=_number(raw, "rate_max", path, default=rate),
        power=_number(raw, "power", path, default=power_max),
        power_max=power_max,
        noise=_watts(raw, "noise", path),
        sinr_target=_sinr_target(raw, path),
    )


def _parse_primary_point(raw, index: int, path: str) -> PrimaryReceivingPoint:
    raw = _mapping(raw, path)
    _check_keys(raw, {"position", "tolerance", "tolerance_db"}, path)
    return _built(path, PrimaryReceivingPoint)(
        id=index,
        position=_position(_get(raw, "position", path), f"{path}.position"),
        tolerance=_watts(raw, "tolerance", path),
    )


def _parse_topology(raw) -> tuple[NetworkTopology, float, float, bool]:
    path = "topology"
    raw = _mapping(raw, path)
    _check_keys(
        raw,
        {
            "propagation_speed",
            "path_loss_exponent",
            "reference_distance",
            "providers",
            "links",
            "primary_points",
            "gains",
        },
        path,
    )

    speed = _number(raw, "propagation_speed", path, default=3.0e8)
    exponent = _number(raw, "path_loss_exponent", path, default=3.0)
    reference = _number(raw, "reference_distance", path, default=1.0)

    providers_raw = _get(raw, "providers", path)
    if not isinstance(providers_raw, list) or not providers_raw:
        raise ConfigError("topology.providers must be a non-empty list")
    providers = tuple(
        _parse_provider(p, i, f"topology.providers[{i}]") for i, p in enumerate(providers_raw)
    )

    links_raw = _get(raw, "links", path)
    if not isinstance(links_raw, list) or not links_raw:
        raise ConfigError("topology.links must be a non-empty list")
    links = tuple(_parse_link(l, i, f"topology.links[{i}]") for i, l in enumerate(links_raw))

    points_raw = _get(raw, "primary_points", path, default=[])
    if not isinstance(points_raw, list):
        raise ConfigError("topology.primary_points must be a list")
    points = tuple(
        _parse_primary_point(p, i, f"topology.primary_points[{i}]")
        for i, p in enumerate(points_raw)
    )

    explicit_gains = "gains" in raw and raw["gains"] is not None
    if explicit_gains:
        gains_raw = _mapping(raw["gains"], "topology.gains")
        _check_keys(gains_raw, {"g_ss", "g_ps"}, "topology.gains")
        g_ss = _matrix(_get(gains_raw, "g_ss", "topology.gains"), "topology.gains.g_ss")
        if points and "g_ps" not in gains_raw:
            raise ConfigError(
                "topology.gains.g_ps is required when primary_points are present"
            )
        if "g_ps" in gains_raw:
            g_ps = _matrix(gains_raw["g_ps"], "topology.gains.g_ps")
        else:
            g_ps = np.zeros((0, len(links)))
        gains = GainMatrices(g_ss=g_ss, g_ps=g_ps)
    else:
        gains = _built(path, gains_from_positions)(
            links, points, path_loss_exponent=exponent, reference_distance=reference
        )

    topology = _built(path, NetworkTopology)(
        providers=providers,
        links=links,
        primary_points=points,
        gains=gains,
        propagation_speed=speed,
    )
    return topology, exponent, reference, explicit_gains


def _parse_traffic(raw, topology: NetworkTopology) -> TrafficSpec:
    path = "traffic"
    raw = _mapping(raw, path)
    _check_keys(
        raw,
        {"arrival_rate", "mean_holding_time", "horizon", "seed", "requested_rate"},
        path,
    )
    num_providers = len(topology.providers)

    def _rate(value, where: str) -> float:
        rate = _to_float(value, where)
        if rate < 0:
            raise ConfigError(f"{where} must be >= 0")
        return rate

    rate_raw = _get(raw, "arrival_rate", path)
    if isinstance(rate_raw, list):
        if len(rate_raw) != num_providers:
            raise ConfigError(
                f"traffic.arrival_rate lists {len(rate_raw)} rates for "
                f"{num_providers} providers"
            )
        rates = tuple(_rate(r, f"{path}.arrival_rate[{i}]") for i, r in enumerate(rate_raw))
    else:
        rates = (_rate(rate_raw, f"{path}.arrival_rate"),) * num_providers

    return _built(path, TrafficSpec)(
        arrival_rates=rates,
        mean_holding_time=_number(raw, "mean_holding_time", path),
        horizon=_number(raw, "horizon", path),
        seed=_get(raw, "seed", path),
        requested_rate=_number(raw, "requested_rate", path, default=topology.links[0].rate),
    )


def _parse_sbac(raw) -> SbacConfig:
    path = "sbac"
    raw = _mapping(raw, path)
    fields = dataclasses.fields(SbacConfig)
    _check_keys(raw, {f.name for f in fields}, path)
    return _built(path, SbacConfig)(
        **{f.name: _number(raw, f.name, path, default=f.default) for f in fields}
    )


def _parse_strategy(raw) -> tuple[tuple[Strategy, ...], QosConfig]:
    path = "strategy"
    raw = _mapping(raw, path)
    _check_keys(raw, {"kind", "physical_checks", "channel_reuse"}, path)
    kind_raw = _get(raw, "kind", path, default=Strategy.DYNAMIC_SBAC.value)
    if kind_raw is None:  # an explicit null means the default too
        kind_raw = Strategy.DYNAMIC_SBAC.value
    if not isinstance(kind_raw, list):
        kind_raw = [kind_raw]
    kinds_list = []
    for name in kind_raw:
        try:
            kinds_list.append(Strategy(str(name).upper()))
        except ValueError:
            raise ConfigError(
                f"strategy.kind must be FIXED or DYNAMIC_SBAC, got {name!r}"
            ) from None
    if not kinds_list:
        raise ConfigError("strategy.kind must name at least one strategy")
    if len(set(kinds_list)) != len(kinds_list):
        raise ConfigError("strategy.kind lists a strategy twice")

    fields = dataclasses.fields(QosConfig)
    qos_config = _built(path, QosConfig)(
        **{f.name: _get(raw, f.name, path, default=f.default) for f in fields}
    )
    return tuple(kinds_list), qos_config


def _parse_sweep(raw) -> SweepSpec | None:
    if raw is None:
        return None
    path = "sweep"
    raw = _mapping(raw, path)
    _check_keys(raw, {"parameter", "values", "seeds_per_point"}, path)
    values_raw = _get(raw, "values", path)
    if not isinstance(values_raw, list):
        raise ConfigError("sweep.values must be a non-empty list of numbers")
    return _built(path, SweepSpec)(
        parameter=_get(raw, "parameter", path),
        values=tuple(_to_float(v, f"sweep.values[{i}]") for i, v in enumerate(values_raw)),
        seeds_per_point=_get(raw, "seeds_per_point", path, default=1),
    )


def parse_config(text: str) -> ScenarioConfig:
    """Parse and fully validate a scenario document.

    Raises ConfigError naming the offending key on any unknown key, missing
    required key, or invariant violation.
    """
    try:
        document = yaml.safe_load(text)
    except (yaml.YAMLError, ValueError) as exc:  # ValueError: an int past Python's digit limit
        raise ConfigError(f"not valid YAML: {exc}") from exc
    document = _mapping(document, "document")
    _check_keys(document, {"topology", "traffic", "sbac", "strategy", "sweep"}, "document")

    topology, exponent, reference, explicit_gains = _parse_topology(
        _get(document, "topology", "document")
    )

    traffic = _parse_traffic(_get(document, "traffic", "document"), topology)
    sbac_config = _parse_sbac(document.get("sbac"))
    strategies, qos_config = _parse_strategy(document.get("strategy"))
    sweep = _parse_sweep(document.get("sweep"))

    for link in topology.links:
        if not (link.rate_min <= traffic.requested_rate <= link.rate_max):
            raise ConfigError(
                f"traffic.requested_rate {traffic.requested_rate} outside link "
                f"{link.id} allowed range [{link.rate_min}, {link.rate_max}]"
            )

    return ScenarioConfig(
        topology=topology,
        traffic=traffic,
        sbac=sbac_config,
        strategies=strategies,
        qos=qos_config,
        sweep=sweep,
        path_loss_exponent=exponent,
        reference_distance=reference,
        explicit_gains=explicit_gains,
    )


def load_config(path) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
    return parse_config(text)


# -- serialization ------------------------------------------------------------


# the document keys that differ from their fields' names
_DOCUMENT_KEYS = {"tx_position": "tx", "rx_position": "rx", "arrival_rates": "arrival_rate"}


def _document_value(value):
    """``value`` as YAML data: a dataclass as its fields but ``id``, under
    their document keys; tuples and arrays as lists, enums as values."""
    if dataclasses.is_dataclass(value):
        return {
            _DOCUMENT_KEYS.get(f.name, f.name): _document_value(getattr(value, f.name))
            for f in dataclasses.fields(value)
            if f.name != "id"
        }
    if isinstance(value, (tuple, list)):
        return [_document_value(item) for item in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, Enum):
        return value.value
    return value


def config_to_document(config: ScenarioConfig) -> dict:
    """Normalized document: re-parsing it yields an equivalent ScenarioConfig."""
    topology = _document_value(config.topology)
    gains = topology.pop("gains")
    document = {
        "topology": {
            "propagation_speed": topology.pop("propagation_speed"),  # first: a stable key order
            "path_loss_exponent": config.path_loss_exponent,
            "reference_distance": config.reference_distance,
            **topology,
        },
        "traffic": _document_value(config.traffic),
        "sbac": _document_value(config.sbac),
        "strategy": {"kind": _document_value(config.strategies), **_document_value(config.qos)},
    }
    if config.explicit_gains:
        document["topology"]["gains"] = gains
    if config.sweep is not None:
        document["sweep"] = _document_value(config.sweep)
    return document


def serialize_config(config: ScenarioConfig) -> str:
    return yaml.safe_dump(config_to_document(config), sort_keys=False)


# -- sweep expansion ----------------------------------------------------------


def apply_sweep_point(
    config: ScenarioConfig, parameter: str, value: float
) -> tuple[NetworkTopology, TrafficSpec]:
    """Topology and traffic for one sweep point.

    ``arrival_rate`` sets every provider's rate to the value.  ``users``
    resizes the secondary-link population by cycling the configured links,
    and scales every provider's arrival rate proportionally, mapping a user
    count onto offered load.  User ``i`` is a copy of link ``b = i % L`` at
    its positions, so its gains are ``b``'s: they are taken from the parsed
    matrices by index, explicit ones included, and never recomputed.
    """
    topology = config.topology
    traffic = config.traffic
    if parameter == "arrival_rate":
        rates = (float(value),) * len(topology.providers)
        return topology, dataclasses.replace(traffic, arrival_rates=rates)
    if parameter == "users":
        count = int(value)
        base = [i % len(topology.links) for i in range(count)]
        links = tuple(dataclasses.replace(topology.links[b], id=i) for i, b in enumerate(base))
        g = topology.gains
        gains = GainMatrices(g_ss=g.g_ss[np.ix_(base, base)], g_ps=g.g_ps[:, base])
        scale = count / len(topology.links)
        rates = tuple(r * scale for r in traffic.arrival_rates)
        return (
            dataclasses.replace(topology, links=links, gains=gains),
            dataclasses.replace(traffic, arrival_rates=rates),
        )
    raise ConfigError(f"unknown sweep parameter {parameter!r}")
