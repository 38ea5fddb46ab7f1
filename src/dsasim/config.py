"""Scenario configuration: one YAML document describes a whole experiment.

The document has five sections: ``topology`` (providers, links, primary
points, gain model), ``traffic`` (arrival rates, holding time, horizon,
seed), ``sbac`` (selection weights and session length), ``strategy`` (allocation
kind(s) and physical-layer flags) and an optional ``sweep``.  Parsing is
strict: unknown or missing keys fail with the offending key path, dB-valued
fields are converted to linear watts, and every applied default is logged.
A parsed config serializes back to an equivalent document, so any run can
be reproduced from its normalized config alone.
"""
from __future__ import annotations

import dataclasses
import logging
from dataclasses import dataclass

import numpy as np
import yaml

from .engine import QosConfig, Strategy
from .errors import ConfigError
from .qos import sinr_target_from_ber
from .sbac import SbacConfig, SbacWeights
from .topology import (
    GainMatrices,
    Modulation,
    NetworkTopology,
    PrimaryReceivingPoint,
    SecondaryLink,
    ServiceProvider,
    SpectrumChannel,
    gains_from_positions,
    validate_topology,
)
from .traffic import TrafficSpec

logger = logging.getLogger(__name__)

SWEEP_PARAMETERS = ("arrival_rate", "users")


@dataclass(frozen=True)
class SweepSpec:
    parameter: str
    values: tuple[float, ...]
    seeds_per_point: int = 1


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
    if key in mapping:
        return mapping[key]
    if default is _MISSING:
        raise ConfigError(f"missing required key {path}.{key}")
    return default


def _to_float(value, where: str) -> float:
    # YAML 1.1 resolves "3.0e8" (no sign) as a string; accept such spellings
    if isinstance(value, str):
        try:
            return float(value)
        except ValueError:
            raise ConfigError(f"{where} must be a number, got {value!r}") from None
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    return float(value)


def _number(mapping: dict, key: str, path: str, default=_MISSING):
    if key not in mapping:
        if default is _MISSING:
            raise ConfigError(f"missing required key {path}.{key}")
        return default
    return _to_float(mapping[key], f"{path}.{key}")


def _defaulted(key_path: str, value) -> None:
    logger.info("defaulted %s=%s", key_path, value)


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
        spacing = _number(raw, "channel_spacing", path, default=bandwidth)
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
                SpectrumChannel(
                    id=i,
                    center_frequency=_number(ch_raw, "center_frequency", ch_path),
                    bandwidth=_number(ch_raw, "bandwidth", ch_path),
                )
            )
        channels = tuple(channels)
    else:
        raise ConfigError(f"{path}.channels must be an int count or a list of channels")

    return ServiceProvider(id=index, channels=channels, cost_rate=cost_rate)


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
    if "noise" in raw and "noise_db" in raw:
        raise ConfigError(f"{path}.noise and {path}.noise_db are mutually exclusive")
    if "noise_db" in raw:
        noise = db_to_linear(_number(raw, "noise_db", path))
    else:
        noise = _number(raw, "noise", path)

    modulation_name = _get(raw, "modulation", path, default="NONE")
    try:
        modulation = Modulation(str(modulation_name).upper())
    except ValueError:
        raise ConfigError(
            f"{path}.modulation must be one of BPSK, QPSK, NONE; got {modulation_name!r}"
        ) from None

    target_ber = None
    if "target_ber" in raw:
        target_ber = _number(raw, "target_ber", path)
        if not 0.0 < target_ber < 0.5:
            raise ConfigError(f"{path}.target_ber must be in (0, 0.5), got {target_ber}")
    if "sinr_target" in raw:
        sinr_target = _number(raw, "sinr_target", path)
    elif target_ber is not None:
        if modulation is Modulation.NONE:
            raise ConfigError(
                f"{path}.target_ber needs a BPSK or QPSK modulation to derive the SINR target"
            )
        sinr_target = sinr_target_from_ber(modulation, target_ber)
    else:
        raise ConfigError(f"{path} needs either sinr_target or modulation plus target_ber")

    rate = _number(raw, "rate", path)
    power_max = _number(raw, "power_max", path)
    return SecondaryLink(
        id=index,
        tx_position=_position(_get(raw, "tx", path), f"{path}.tx"),
        rx_position=_position(_get(raw, "rx", path), f"{path}.rx"),
        bandwidth=_number(raw, "bandwidth", path),
        rate=rate,
        rate_min=_number(raw, "rate_min", path, default=rate),
        rate_max=_number(raw, "rate_max", path, default=rate),
        power=_number(raw, "power", path, default=power_max),
        power_max=power_max,
        noise=noise,
        sinr_target=sinr_target,
        modulation=modulation,
        target_ber=target_ber,
    )


def _parse_primary_point(raw, index: int, path: str) -> PrimaryReceivingPoint:
    raw = _mapping(raw, path)
    _check_keys(raw, {"position", "tolerance", "tolerance_db"}, path)
    if "tolerance" in raw and "tolerance_db" in raw:
        raise ConfigError(f"{path}.tolerance and {path}.tolerance_db are mutually exclusive")
    if "tolerance_db" in raw:
        tolerance = db_to_linear(_number(raw, "tolerance_db", path))
    else:
        tolerance = _number(raw, "tolerance", path)
    return PrimaryReceivingPoint(
        id=index,
        position=_position(_get(raw, "position", path), f"{path}.position"),
        tolerance=tolerance,
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

    speed = _number(raw, "propagation_speed", path, default=None)
    if speed is None:
        speed = 3.0e8
        _defaulted("topology.propagation_speed", speed)
    exponent = _number(raw, "path_loss_exponent", path, default=None)
    if exponent is None:
        exponent = 3.0
        _defaulted("topology.path_loss_exponent", exponent)
    reference = _number(raw, "reference_distance", path, default=None)
    if reference is None:
        reference = 1.0
        _defaulted("topology.reference_distance", reference)

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
        g_ss = np.asarray(_get(gains_raw, "g_ss", "topology.gains"), dtype=float)
        if points and "g_ps" not in gains_raw:
            raise ConfigError(
                "topology.gains.g_ps is required when primary_points are present"
            )
        if "g_ps" in gains_raw:
            g_ps = np.asarray(gains_raw["g_ps"], dtype=float)
        else:
            g_ps = np.zeros((0, len(links)))
        gains = GainMatrices(g_ss=g_ss, g_ps=g_ps)
    else:
        gains = gains_from_positions(
            links, points, path_loss_exponent=exponent, reference_distance=reference
        )

    topology = NetworkTopology(
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
    rate_raw = _get(raw, "arrival_rate", path)
    if isinstance(rate_raw, list):
        if len(rate_raw) != num_providers:
            raise ConfigError(
                f"traffic.arrival_rate lists {len(rate_raw)} rates for "
                f"{num_providers} providers"
            )
        rates = tuple(_to_float(r, f"{path}.arrival_rate") for r in rate_raw)
    else:
        rates = (_to_float(rate_raw, f"{path}.arrival_rate"),) * num_providers
    if any(r < 0 for r in rates):
        raise ConfigError("traffic.arrival_rate entries must be >= 0")

    seed = _get(raw, "seed", path)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ConfigError(f"traffic.seed must be an integer, got {seed!r}")

    requested = _number(raw, "requested_rate", path, default=None)
    if requested is None:
        requested = topology.links[0].rate
        _defaulted("traffic.requested_rate", requested)

    try:
        return TrafficSpec(
            arrival_rates=rates,
            mean_holding_time=_number(raw, "mean_holding_time", path),
            horizon=_number(raw, "horizon", path),
            seed=seed,
            requested_rate=requested,
        )
    except ValueError as exc:
        raise ConfigError(f"traffic section invalid: {exc}") from None


def _parse_sbac(raw, traffic: TrafficSpec) -> SbacConfig:
    path = "sbac"
    raw = _mapping(raw, path)
    _check_keys(raw, {"beta1", "beta2", "beta3", "session_minutes"}, path)
    betas = {}
    for key, default in (("beta1", 0.5), ("beta2", 0.3), ("beta3", 0.2)):
        value = _number(raw, key, path, default=None)
        if value is None:
            value = default
            _defaulted(f"sbac.{key}", value)
        betas[key] = value
    session_minutes = _number(raw, "session_minutes", path, default=None)
    if session_minutes is None:
        session_minutes = traffic.mean_holding_time / 60.0
        _defaulted("sbac.session_minutes", session_minutes)
    try:
        weights = SbacWeights(**betas)
    except ValueError as exc:
        raise ConfigError(f"sbac weights invalid: {exc}") from None
    # the session cost is proportional to it; at <= 0 every provider's cost
    # falls to the floor and the cost term stops ranking them
    if not session_minutes > 0:
        raise ConfigError(f"{path}.session_minutes must be > 0, got {session_minutes}")
    return SbacConfig(weights=weights, session_minutes=session_minutes)


def _parse_strategy(raw) -> tuple[tuple[Strategy, ...], QosConfig]:
    path = "strategy"
    raw = _mapping(raw, path)
    _check_keys(raw, {"kind", "physical_checks", "channel_reuse"}, path)
    kind_raw = _get(raw, "kind", path, default=None)
    if kind_raw is None:
        kinds_list = [Strategy.DYNAMIC_SBAC]
        _defaulted("strategy.kind", Strategy.DYNAMIC_SBAC.value)
    else:
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
        if len(set(kinds_list)) != len(kinds_list):
            raise ConfigError("strategy.kind lists a strategy twice")

    def _bool(key: str, default: bool) -> bool:
        value = _get(raw, key, path, default=default)
        if not isinstance(value, bool):
            raise ConfigError(f"strategy.{key} must be a boolean")
        return value

    qos_config = QosConfig(
        physical_checks=_bool("physical_checks", False),
        channel_reuse=_bool("channel_reuse", False),
    )
    return tuple(kinds_list), qos_config


def _parse_sweep(raw) -> SweepSpec | None:
    if raw is None:
        return None
    path = "sweep"
    raw = _mapping(raw, path)
    _check_keys(raw, {"parameter", "values", "seeds_per_point"}, path)
    parameter = _get(raw, "parameter", path)
    if parameter not in SWEEP_PARAMETERS:
        raise ConfigError(
            f"sweep.parameter must be one of {', '.join(SWEEP_PARAMETERS)}; got {parameter!r}"
        )
    values_raw = _get(raw, "values", path)
    if not isinstance(values_raw, list) or not values_raw:
        raise ConfigError("sweep.values must be a non-empty list of numbers")
    values = tuple(_to_float(v, "sweep.values") for v in values_raw)
    seeds = _get(raw, "seeds_per_point", path, default=1)
    if not isinstance(seeds, int) or isinstance(seeds, bool) or seeds < 1:
        raise ConfigError("sweep.seeds_per_point must be a positive integer")
    return SweepSpec(parameter=parameter, values=values, seeds_per_point=seeds)


def parse_config(text: str) -> ScenarioConfig:
    """Parse and fully validate a scenario document.

    Raises ConfigError naming the offending key on any unknown key, missing
    required key, or invariant violation.
    """
    try:
        document = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"not valid YAML: {exc}") from exc
    document = _mapping(document, "document")
    _check_keys(document, {"topology", "traffic", "sbac", "strategy", "sweep"}, "document")

    topology, exponent, reference, explicit_gains = _parse_topology(
        _get(document, "topology", "document")
    )
    violations = validate_topology(topology)
    if violations:
        raise ConfigError("topology invalid: " + "; ".join(violations))

    traffic = _parse_traffic(_get(document, "traffic", "document"), topology)
    sbac_config = _parse_sbac(document.get("sbac"), traffic)
    strategies, qos_config = _parse_strategy(document.get("strategy"))
    sweep = _parse_sweep(document.get("sweep"))

    for link in topology.links:
        if not (link.rate_min <= traffic.requested_rate <= link.rate_max):
            raise ConfigError(
                f"traffic.requested_rate {traffic.requested_rate} outside link "
                f"{link.id} allowed range [{link.rate_min}, {link.rate_max}]"
            )
    if sweep is not None and sweep.parameter == "users" and explicit_gains:
        raise ConfigError(
            "sweep.parameter 'users' needs position-derived gains; explicit "
            "topology.gains cannot be resized"
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
        return parse_config(handle.read())


# -- serialization ------------------------------------------------------------


def config_to_document(config: ScenarioConfig) -> dict:
    """Normalized document: re-parsing it yields an equivalent ScenarioConfig."""
    topology = config.topology
    providers = [
        {
            "channels": [
                {"center_frequency": ch.center_frequency, "bandwidth": ch.bandwidth}
                for ch in provider.channels
            ],
            "cost_rate": provider.cost_rate,
        }
        for provider in topology.providers
    ]
    links = []
    for link in topology.links:
        entry = {
            "tx": list(link.tx_position),
            "rx": list(link.rx_position),
            "bandwidth": link.bandwidth,
            "rate": link.rate,
            "rate_min": link.rate_min,
            "rate_max": link.rate_max,
            "power": link.power,
            "power_max": link.power_max,
            "noise": link.noise,
            "sinr_target": link.sinr_target,
            "modulation": link.modulation.value,
        }
        if link.target_ber is not None:
            entry["target_ber"] = link.target_ber
        links.append(entry)
    points = [
        {"position": list(p.position), "tolerance": p.tolerance}
        for p in topology.primary_points
    ]

    document = {
        "topology": {
            "propagation_speed": topology.propagation_speed,
            "path_loss_exponent": config.path_loss_exponent,
            "reference_distance": config.reference_distance,
            "providers": providers,
            "links": links,
            "primary_points": points,
        },
        "traffic": {
            "arrival_rate": list(config.traffic.arrival_rates),
            "mean_holding_time": config.traffic.mean_holding_time,
            "horizon": config.traffic.horizon,
            "seed": config.traffic.seed,
            "requested_rate": config.traffic.requested_rate,
        },
        "sbac": {
            "beta1": config.sbac.weights.beta1,
            "beta2": config.sbac.weights.beta2,
            "beta3": config.sbac.weights.beta3,
            "session_minutes": config.sbac.session_minutes,
        },
        "strategy": {
            "kind": [s.value for s in config.strategies],
            "physical_checks": config.qos.physical_checks,
            "channel_reuse": config.qos.channel_reuse,
        },
    }
    if config.explicit_gains:
        document["topology"]["gains"] = {
            "g_ss": topology.gains.g_ss.tolist(),
            "g_ps": topology.gains.g_ps.tolist(),
        }
    if config.sweep is not None:
        document["sweep"] = {
            "parameter": config.sweep.parameter,
            "values": list(config.sweep.values),
            "seeds_per_point": config.sweep.seeds_per_point,
        }
    return document


def serialize_config(config: ScenarioConfig) -> str:
    return yaml.safe_dump(config_to_document(config), sort_keys=False)


# -- sweep expansion ----------------------------------------------------------


def apply_sweep_point(
    config: ScenarioConfig, parameter: str, value: float
) -> tuple[NetworkTopology, TrafficSpec]:
    """Topology and traffic for one sweep point.

    ``arrival_rate`` sets every provider's rate to the value.  ``users``
    resizes the secondary-link population by cycling the configured links
    and scales every provider's arrival rate proportionally, mapping a user
    count onto offered load.
    """
    topology = config.topology
    traffic = config.traffic
    if parameter == "arrival_rate":
        rates = (float(value),) * len(topology.providers)
        return topology, dataclasses.replace(traffic, arrival_rates=rates)
    if parameter == "users":
        count = int(value)
        if count < 1:
            raise ConfigError(f"users sweep value must be >= 1, got {value}")
        base = topology.links
        links = tuple(
            dataclasses.replace(base[i % len(base)], id=i) for i in range(count)
        )
        gains = gains_from_positions(
            links,
            topology.primary_points,
            path_loss_exponent=config.path_loss_exponent,
            reference_distance=config.reference_distance,
        )
        scale = count / len(base)
        rates = tuple(r * scale for r in traffic.arrival_rates)
        return (
            dataclasses.replace(topology, links=links, gains=gains),
            dataclasses.replace(traffic, arrival_rates=rates),
        )
    raise ConfigError(f"unknown sweep parameter {parameter!r}")
