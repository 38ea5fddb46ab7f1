"""Candidate-pool utility and best-channel selection."""
from __future__ import annotations

import math
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dsasim import (
    SbacConfig,
    ServiceProvider,
    SpectrumChannel,
    StateError,
    select_best_channel,
)
from dsasim.sbac import SPREAD_FLOOR, LivePool

from conftest import make_provider
from oracles import CandidatePool, select_by_utility, utility


def channels_at(*mhz: float) -> tuple[SpectrumChannel, ...]:
    return tuple(
        SpectrumChannel(id=i, center_frequency=f * 1e6, bandwidth=1e6)
        for i, f in enumerate(mhz)
    )


def pool(free_mhz, total=10, provider_id=0, cost_rate=1.0) -> CandidatePool:
    return CandidatePool(
        provider_id=provider_id,
        available_channels=channels_at(*free_mhz),
        total_channels=total,
        cost_rate=cost_rate,
    )


def config(beta1, beta2, beta3, minutes=1.0) -> SbacConfig:
    return SbacConfig(beta1, beta2, beta3, session_minutes=minutes)


# one weight at a time, the utility is one ingredient: 10 x the free fraction,
# ln(1 / spread in MHz) or 1 / (session minutes x 60 x cost rate)
AVAILABILITY = config(1.0, 0.0, 0.0)
SPREAD = config(0.0, 1.0, 0.0)


# -- the three utility ingredients ---------------------------------------------


@pytest.mark.parametrize(
    "free,total,expected",
    [(10, 10, 1.0), (0, 10, 0.0), (5, 10, 0.5)],
)
def test_availability(free, total, expected):
    p = pool(range(400, 400 + free), total=total)
    if free:
        assert utility(p, AVAILABILITY) == 10.0 * expected
    else:  # an empty pool is no candidate
        with pytest.raises(ValueError, match="no free channel"):
            utility(p, AVAILABILITY)


def test_spread_single_channel_is_zero():
    assert utility(pool([400.0]), SPREAD) == math.log(1.0 / SPREAD_FLOOR)


def test_spread_two_channels():
    assert utility(pool([400.0, 420.0]), SPREAD) == pytest.approx(math.log(1.0 / 20.0))


def test_spread_uses_extremes_only():
    assert utility(pool([400.0, 410.0, 420.0]), SPREAD) == pytest.approx(math.log(1.0 / 20.0))


def test_spread_of_empty_pool_raises():
    with pytest.raises(ValueError, match="no free channel"):
        utility(pool([]), SPREAD)


@pytest.mark.parametrize(
    "minutes,rate,expected",
    [(1.0, 1.0, 60.0), (2.0, 0.05, 6.0), (0.5, 2.0, 60.0)],
)
def test_usage_cost(minutes, rate, expected):
    p = pool([400.0], cost_rate=rate)
    assert utility(p, config(0.0, 0.0, 1.0, minutes)) == pytest.approx(1.0 / expected)


# -- combined utility ------------------------------------------------------------


def test_utility_availability_term_only():
    p = pool([400.0, 410.0, 420.0, 430.0, 440.0], total=10)  # prob 0.5
    assert utility(p, AVAILABILITY) == pytest.approx(5.0)


def test_utility_spread_term_only():
    p = pool([400.0, 420.0])  # spread 20 MHz
    assert utility(p, SPREAD) == pytest.approx(math.log(1.0 / 20.0))
    assert utility(p, SPREAD) == pytest.approx(-2.9957, abs=1e-4)


def test_utility_cost_term_only():
    p = pool([400.0], cost_rate=0.05)  # cost 6.0 over 2 minutes
    assert utility(p, config(0.0, 0.0, 1.0, minutes=2.0)) == pytest.approx(1.0 / 6.0)


def test_zero_spread_and_zero_cost_are_clamped():
    p = pool([400.0], cost_rate=0.0)
    score = utility(p, config(0.0, 1.0, 1.0))
    assert math.isfinite(score)
    assert score == pytest.approx(math.log(1.0 / 1e-6) + 1.0 / 1e-6)


@pytest.mark.parametrize(
    "fields,message",
    [
        ({"session_minutes": 0.0}, "session_minutes must be > 0"),
        ({"session_minutes": -1.0}, "session_minutes must be > 0"),
        ({"session_minutes": math.nan}, "session_minutes must be > 0"),
        ({"beta2": -0.1}, "beta2 must be >= 0"),
        ({"beta3": math.nan}, "beta3 must be >= 0"),
        ({"beta1": 0.0, "beta2": 0.0, "beta3": 0.0}, r"beta1 \+ beta2 \+ beta3 must be > 0"),
        ({"beta1": math.inf}, "beta1 must be finite"),
        ({"beta2": math.inf}, "beta2 must be finite"),
        ({"beta3": math.inf}, "beta3 must be finite"),
        ({"session_minutes": math.inf}, "session_minutes must be finite"),
        ({"beta2": -math.inf}, "beta2 must be >= 0"),
        # finite weights whose term overflows: 10 * beta1 and beta2 * ln(1 / 29)
        # at 30 channels 1 MHz apart are inf and -inf, a NaN score
        ({"beta1": 1e308, "beta2": 1e308}, "beta1 must be finite and keep every pool's score"),
        ({"beta2": 1e306}, "beta2 must be finite and keep"),  # x ln(1 / widest spread)
        ({"beta3": 1e303}, "beta3 must be finite and keep"),  # / COST_FLOOR
        ({"beta1": 1.7e307, "beta2": 0.0, "beta3": 1e302},
         r"beta1 \+ beta2 \+ beta3 must keep every pool's score finite"),
    ],
)
def test_config_rejects_a_non_positive_session_length_and_bad_weights(fields, message):
    # a zero session length would price every provider at the cost floor; an
    # infinite weight or session length can score a pool NaN (beta2 times
    # ln(1) at a 1 MHz spread, or a free provider's inf * 0 cost), and
    # selection would hand the call to the first pool with a free channel
    with pytest.raises(ValueError, match=message):
        SbacConfig(**fields)


def accepted(weights) -> SbacConfig | None:
    try:
        return SbacConfig(*weights)
    except ValueError:
        return None


@given(sbac_config=st.tuples(*[st.floats(0.0, sys.float_info.max)] * 3).map(accepted)
       .filter(lambda config: config is not None))
@example(sbac_config=SbacConfig(1.7e307, 0.0, 1e300))
@example(sbac_config=SbacConfig(0.0, sys.float_info.max / 696.0, 0.2))
@settings(max_examples=200, deadline=None)
def test_accepted_weights_score_the_extreme_pools_finite(sbac_config):
    # the highest score is a one-channel pool of a free provider (a full pool,
    # spread and cost floored); the lowest, a pool spanning the widest finite
    # spread at a cost that prices the cost term to nothing
    lone = LivePool(explicit_provider(0, [(0, 400.0)], cost_rate=0.0), sbac_config)
    widest = LivePool(ServiceProvider(1, (
        SpectrumChannel(0, 5e-324, 1e6), SpectrumChannel(1, sys.float_info.max, 1e6),
    ), cost_rate=sys.float_info.max), sbac_config)
    assert math.isfinite(lone.score) and math.isfinite(widest.score)
    assert select_best_channel([lone, widest]) == select_best_channel([widest, lone])


# -- selection --------------------------------------------------------------------


def test_identical_pools_tie_break_to_provider_zero():
    pools = [pool([400.0, 410.0], provider_id=1), pool([400.0, 410.0], provider_id=0)]
    provider_id, channel_id, _ = select_by_utility(pools, SbacConfig())
    assert provider_id == 0
    assert channel_id == 0


def test_higher_availability_wins():
    full = pool([400.0 + i for i in range(10)], total=10, provider_id=0)
    sparse = pool([400.0], total=10, provider_id=1)
    provider_id, _, _ = select_by_utility([sparse, full], config(1.0, 0.01, 0.01))
    assert provider_id == 0


def test_singleton_pool_returns_its_channel():
    only = pool([432.0], total=4, provider_id=3)
    provider_id, channel_id, score = select_by_utility([only], config(0.2, 0.5, 0.3))
    assert (provider_id, channel_id) == (3, 0)
    assert score == utility(only, config(0.2, 0.5, 0.3))


def test_all_pools_occupied_returns_none():
    assert select_by_utility([pool([]), pool([], provider_id=1)], SbacConfig()) is None
    assert select_by_utility([], SbacConfig()) is None
    assert select_best_channel([]) is None


def test_occupied_pools_are_skipped():
    pools = [pool([], provider_id=0), pool([415.0], provider_id=1)]
    provider_id, _, _ = select_by_utility(pools, SbacConfig())
    assert provider_id == 1


def test_selection_is_pure_and_deterministic():
    pools = [pool([400.0, 405.0], provider_id=0), pool([500.0], total=3, provider_id=1)]
    first = select_by_utility(pools, SbacConfig())
    assert all(select_by_utility(pools, SbacConfig()) == first for _ in range(5))


# -- invariants -------------------------------------------------------------------


@st.composite
def random_pools(draw):
    """1-5 pools and the session length in minutes that prices them."""
    count = draw(st.integers(1, 5))
    pools = []
    for provider_id in range(count):
        free = draw(st.integers(0, 8))
        total = draw(st.integers(max(free, 1), 12))
        base = draw(st.floats(100.0, 900.0))
        step = draw(st.floats(0.1, 25.0))
        rate = draw(st.floats(0.0, 5.0))
        pools.append(
            pool(
                [base + i * step for i in range(free)],
                total=total,
                provider_id=provider_id,
                cost_rate=rate,
            )
        )
    return pools, draw(st.floats(0.1, 30.0))


@st.composite
def random_weights(draw):
    """``(beta1, beta2, beta3)``, with a positive sum."""
    return (
        draw(st.floats(0.0, 10.0)),
        draw(st.floats(0.0, 10.0)),
        draw(st.floats(0.01, 10.0)),
    )


@given(drawn=random_pools(), weights=random_weights(), factor=st.floats(1e-3, 1e3))
@settings(max_examples=200, deadline=None)
def test_argmax_invariant_under_weight_scaling(drawn, weights, factor):
    pools, minutes = drawn
    if not any(p.available_channels for p in pools):
        return
    base = SbacConfig(*weights, minutes)
    scaled = SbacConfig(*(beta * factor for beta in weights), minutes)
    base_choice = select_by_utility(pools, base)
    scaled_choice = select_by_utility(pools, scaled)
    if base_choice[:2] != scaled_choice[:2]:
        # only a genuine float-rounding tie may flip the argmax
        by_id = {p.provider_id: p for p in pools}
        u_base = utility(by_id[base_choice[0]], scaled)
        u_scaled = utility(by_id[scaled_choice[0]], scaled)
        assert u_base == pytest.approx(u_scaled, rel=1e-9)


@given(drawn=random_pools())
@settings(max_examples=100, deadline=None)
def test_availability_only_weights_pick_max_availability(drawn):
    pools, minutes = drawn
    if not any(p.available_channels for p in pools):
        return
    provider_id, _, _ = select_by_utility(pools, config(1.0, 0.0, 0.0, minutes))
    chosen = next(p for p in pools if p.provider_id == provider_id)
    best = max(p.free_count / p.total_channels for p in pools if p.available_channels)
    assert chosen.free_count / chosen.total_channels == pytest.approx(best)


@given(drawn=random_pools(), weights=random_weights())
@settings(max_examples=100, deadline=None)
def test_selected_channel_is_in_selected_pool(drawn, weights):
    pools, minutes = drawn
    if not any(p.available_channels for p in pools):
        return
    provider_id, channel_id, _ = select_by_utility(pools, SbacConfig(*weights, minutes))
    chosen = next(p for p in pools if p.provider_id == provider_id)
    assert channel_id in [ch.id for ch in chosen.available_channels]


def test_utility_monotone_in_each_ingredient():
    assert utility(pool([400.0, 410.0], total=4), AVAILABILITY) > utility(
        pool([400.0], total=4), AVAILABILITY
    )
    assert utility(pool([400.0, 405.0]), SPREAD) > utility(pool([400.0, 420.0]), SPREAD)
    cost = config(0.0, 0.0, 1.0)
    assert utility(pool([400.0], cost_rate=0.5), cost) > utility(pool([400.0], cost_rate=2.0), cost)


# -- live pools -------------------------------------------------------------------

SUMMARIES = ("free_count", "min_free_frequency", "max_free_frequency", "lowest_free_id")


def summaries(pool):
    return tuple(getattr(pool, name) for name in SUMMARIES)


def explicit_provider(provider_id, channels, cost_rate=0.05):
    """A provider whose channels are listed as given: (id, MHz) pairs."""
    return ServiceProvider(
        id=provider_id,
        channels=tuple(
            SpectrumChannel(id=channel_id, center_frequency=mhz * 1e6, bandwidth=1e6)
            for channel_id, mhz in channels
        ),
        cost_rate=cost_rate,
    )


BAND_MHZ = (400.0, 400.5, 403.0, 410.0, 431.25)


@st.composite
def explicit_bands(draw):
    """1-4 providers with explicit channel lists: ids drawn sparse and listed in
    a random order, frequencies from a small set so some repeat, so list, id
    and frequency order generally all differ; some bands put every channel
    on one frequency, so that their spread is zero however many are free."""
    bands = []
    for _ in range(draw(st.integers(1, 4))):
        ids = draw(st.lists(st.integers(0, 60), min_size=1, max_size=10, unique=True))
        frequencies = st.sampled_from(BAND_MHZ)
        if draw(st.booleans()):
            frequencies = st.just(draw(frequencies))
        mhz = draw(st.lists(frequencies, min_size=len(ids), max_size=len(ids)))
        bands.append(draw(st.permutations(list(zip(ids, mhz)))))
    return bands


def test_live_pool_starts_full_and_summarises_every_order():
    # list, id and frequency orders differ; 7 and 5 share a frequency
    provider = explicit_provider(0, [(7, 403.0), (2, 400.0), (11, 401.0), (5, 403.0), (0, 402.0)])
    pool = LivePool(provider)
    assert summaries(pool) == (5, 400e6, 403e6, 0)
    for channel_id in (0, 2, 7):
        pool.take(channel_id)
    assert summaries(pool) == (2, 401e6, 403e6, 5)
    assert pool.available_channels == (provider.channels[2], provider.channels[3])
    pool.give(2)
    assert summaries(pool) == (3, 400e6, 403e6, 2)


def test_live_pool_rejects_double_take_double_give_and_unknown_channels():
    pool = LivePool(explicit_provider(0, [(4, 400.0), (9, 401.0)]))
    pool.take(9)
    with pytest.raises(StateError, match="already held"):
        pool.take(9)
    with pytest.raises(StateError, match="already free"):
        pool.give(4)
    with pytest.raises(StateError, match="no channel 5"):
        pool.take(5)
    assert summaries(pool) == (1, 400e6, 400e6, 4)


@pytest.mark.parametrize("flip,channel_id,message", [
    ("take", 9, "already held"),
    ("give", 4, "already free"),
    ("take", 5, "no channel 5"),  # between two ids
    ("give", 12, "no channel 12"),  # above the largest id: bisect returns len(ids)
    ("take", -1, "no channel -1"),
])
def test_a_rejected_flip_leaves_a_scored_pool_as_it_was(flip, channel_id, message):
    pool = LivePool(explicit_provider(0, [(4, 400.0), (9, 401.0), (7, 403.0)]), SbacConfig())
    pool.take(9)
    before = (pool.id_mask, pool.frequency_mask, summaries(pool), pool.score)
    with pytest.raises(StateError, match=message):
        getattr(pool, flip)(channel_id)
    assert (pool.id_mask, pool.frequency_mask, summaries(pool), pool.score) == before
    pool.audit([9])


def test_live_pool_scores_on_change_only_when_built_with_a_config():
    provider = explicit_provider(0, [(7, 403.0), (2, 400.0), (11, 401.0)])
    sbac_config = config(0.5, 0.3, 0.2, minutes=2.0)
    scored, unscored = LivePool(provider, sbac_config), LivePool(provider)
    for channel_id in (2, 7, 11):
        for pool in (scored, unscored):
            pool.take(channel_id)
        free = [ch for ch in provider.channels if ch.id > channel_id]
        if free:
            assert scored.score == utility(CandidatePool(0, tuple(free), 3, 0.05), sbac_config)
        else:
            assert scored.score is None  # no free channel, nothing to score
        assert unscored.score is None
    scored.give(11)
    assert scored.score == utility(CandidatePool(0, provider.channels[2:], 3, 0.05), sbac_config)


def test_selection_reads_live_scores_and_lets_a_lone_pool_win_unscored():
    provider = explicit_provider(3, [(4, 400.0), (9, 401.0)])
    assert select_best_channel((LivePool(provider),)) == (3, 4, None)
    scored = LivePool(provider, SbacConfig())
    scored.score = 1e9  # selection reads the cached score, it does not re-score
    cheap = LivePool(explicit_provider(0, [(0, 400.0)], cost_rate=1e-9), SbacConfig())
    assert select_best_channel([cheap, scored]) == (3, 4, 1e9)


def test_equal_live_scores_tie_break_to_the_lowest_provider_id():
    sbac_config = SbacConfig()
    pools = [LivePool(explicit_provider(i, [(0, 400.0), (1, 410.0)]), sbac_config)
             for i in (2, 0, 1)]
    assert select_best_channel(pools)[:2] == (0, 0)


def test_a_lone_free_channel_outranks_fuller_pools():
    # pins today's ranking without endorsing it: one free channel has zero
    # spread, floored at SPREAD_FLOOR, and 0.3 * ln(1 / SPREAD_FLOOR) outweighs
    # the availability of a full band.  10 channels 1 MHz apart, channels 0
    # to f - 1 free, the default weights
    pools = {}
    for free in (1, 2, 8, 10):
        pool = LivePool(make_provider(provider_id=free, channels=10, cost_rate=0.05),
                        SbacConfig())
        for channel_id in range(free, 10):
            pool.take(channel_id)
        pools[free] = pool
    scores = {free: pool.score for free, pool in pools.items()}
    assert scores == pytest.approx({1: 4.7113, 2: 1.0667, 8: 3.4829, 10: 4.4075}, abs=1e-4)
    assert scores[1] > scores[10] > scores[8] > scores[2]
    assert select_best_channel(list(pools.values()))[:2] == (1, 0)


def test_audit_flags_a_stale_score():
    sbac_config = SbacConfig()
    pool = LivePool(explicit_provider(0, [(7, 403.0), (2, 400.0), (11, 401.0)]), sbac_config)
    pool.take(11)
    pool.audit([11])
    pool.score += 1e-12
    with pytest.raises(StateError, match="score"):
        pool.audit([11])
    unscored = LivePool(explicit_provider(0, [(7, 403.0)]))
    unscored.score = 1.0
    with pytest.raises(StateError, match="score"):
        unscored.audit([])


@pytest.mark.parametrize("mask", ["id_mask", "frequency_mask"])
def test_audit_flags_a_flipped_pool_bit(mask):
    pool = LivePool(explicit_provider(0, [(7, 403.0), (2, 400.0), (11, 401.0)]))
    pool.take(11)
    pool.audit([11])
    setattr(pool, mask, getattr(pool, mask) ^ 0b100)
    with pytest.raises(StateError, match="masks"):
        pool.audit([11])


@given(bands=explicit_bands(), ops=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 9))),
       weights=random_weights(), minutes=st.floats(0.01, 30.0),
       cost_rates=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 5.0)), min_size=4,
                           max_size=4))
@example(
    bands=[[(7, 403.0), (2, 400.0), (11, 401.0), (5, 403.0), (0, 402.0), (9, 404.5)],
           [(3, 410.0), (1, 400.5), (8, 400.5)]],
    ops=[(0, 4), (0, 1), (1, 1), (0, 0), (1, 2), (0, 4), (0, 3), (1, 0)],
    weights=(0.5, 0.3, 0.2),
    minutes=2.0,
    cost_rates=[0.01, 0.02, 0.03, 0.04],
)
@example(  # a free provider and a one-frequency band: both floors
    bands=[[(4, 410.0), (1, 410.0), (6, 410.0)], [(0, 400.0), (2, 403.0)]],
    ops=[(0, 0), (1, 1), (0, 2), (1, 1)],
    weights=(0.5, 0.3, 0.2),
    minutes=1.0,
    cost_rates=[0.0, 0.05, 0.0, 0.0],
)
@settings(max_examples=200, deadline=None)
def test_live_pools_score_like_tuple_built_pools(bands, ops, weights, minutes, cost_rates):
    # each op toggles one channel (take it if free, give it back if held);
    # after every op the live pools must summarise, score and select exactly
    # like CandidatePools built from the free channels' tuples
    providers = [
        explicit_provider(i, band, cost_rate=cost_rate)
        for i, (band, cost_rate) in enumerate(zip(bands, cost_rates))
    ]
    sbac_config = SbacConfig(*weights, session_minutes=minutes)
    live = [LivePool(provider, sbac_config) for provider in providers]
    held = [set() for _ in providers]

    def check():
        built = [
            CandidatePool(
                provider_id=provider.id,
                available_channels=tuple(
                    ch for ch in provider.channels if ch.id not in held[provider.id]
                ),
                total_channels=provider.num_channels,
                cost_rate=provider.cost_rate,
            )
            for provider in providers
        ]
        for pool, reference in zip(live, built):
            assert summaries(pool) == summaries(reference)
            assert pool.available_channels == reference.available_channels
            if reference.free_count:
                assert pool.score == utility(reference, sbac_config)
            else:
                assert pool.score is None
            pool.audit(held[pool.provider_id])
        # both None when no pool has a free channel
        assert select_best_channel(live) == select_by_utility(built, sbac_config)

    check()
    for provider_index, position in ops:
        provider_index %= len(providers)
        channel = providers[provider_index].channels[position % len(bands[provider_index])]
        if channel.id in held[provider_index]:
            live[provider_index].give(channel.id)
            held[provider_index].remove(channel.id)
        else:
            live[provider_index].take(channel.id)
            held[provider_index].add(channel.id)
        check()
