"""Best-available-channel selection across competing provider pools.

Three providers offer different mixes of free-channel fraction, frequency
spread and per-minute price.  The utility weights decide which trait wins:
availability-heavy weights chase the emptiest band, cost-heavy weights
chase the cheapest one, and the spread term prefers tightly clustered free
channels.

Run: python demos/02_channel_selection.py
"""
from dsasim import SbacConfig, ServiceProvider, SpectrumChannel, select_best_channel
from dsasim.sbac import SPREAD_UNIT_HZ, LivePool

SESSION_MINUTES = 2.0  # expected session length that the cost term prices


def pool(provider_id, free_mhz, total, cost_rate, config, scores) -> LivePool:
    """A live pool whose held channels sit 1 MHz apart above its free ones."""
    mhz = free_mhz + [free_mhz[-1] + k for k in range(1, total - len(free_mhz) + 1)]
    channels = tuple(SpectrumChannel(id=i, center_frequency=f * 1e6, bandwidth=1e6)
                     for i, f in enumerate(mhz))
    live = LivePool(ServiceProvider(id=provider_id, channels=channels, cost_rate=cost_rate),
                    config, scores)
    for channel in channels[len(free_mhz):]:
        live.take(channel.id)
    return live


def pools(config) -> tuple[list[LivePool], list[float]]:
    """The three pools, in provider-id order, and the score list they share."""
    scores = []
    return [
        # mostly free, wide spread, mid price
        pool(0, [400.0, 408.0, 416.0, 424.0, 432.0, 440.0], 8, 0.10, config, scores),
        # half free, tight spread, expensive
        pool(1, [500.0, 501.0, 502.0], 6, 0.50, config, scores),
        # nearly full but dirt cheap
        pool(2, [602.0], 10, 0.01, config, scores),
    ], scores


def main() -> None:
    print("Per-pool ingredients:")
    for p in pools(SbacConfig())[0]:
        availability = p.free_count / p.total_channels
        spread_mhz = (p.max_free_frequency - p.min_free_frequency) / SPREAD_UNIT_HZ
        cost = SESSION_MINUTES * 60.0 * p.cost_rate
        print(
            f"  provider {p.provider_id}: availability={availability:.2f} "
            f"spread={spread_mhz:6.1f} MHz  session cost={cost:6.1f}"
        )

    scenarios = [
        ("availability-heavy", (1.0, 0.05, 0.05)),
        ("spread-heavy", (0.05, 1.0, 0.05)),
        ("cost-heavy", (0.05, 0.05, 1.0)),
        ("balanced default", (0.5, 0.3, 0.2)),
    ]
    print("\nSelection under different weightings:")
    for label, (beta1, beta2, beta3) in scenarios:
        config = SbacConfig(beta1, beta2, beta3, session_minutes=SESSION_MINUTES)
        provider_id, channel_id, utility = select_best_channel(*pools(config))
        print(
            f"  {label:20s} -> provider {provider_id}, channel {channel_id} "
            f"(utility {utility:8.3f})"
        )

    print("\nScaling all weights by a common factor never changes the winner:")
    for factor in (0.01, 1.0, 250.0):
        config = SbacConfig(0.5 * factor, 0.3 * factor, 0.2 * factor, SESSION_MINUTES)
        provider_id, channel_id, utility = select_best_channel(*pools(config))
        print(f"  x{factor:<7} -> provider {provider_id}, channel {channel_id} "
              f"(utility {utility:10.3f})")


if __name__ == "__main__":
    main()
