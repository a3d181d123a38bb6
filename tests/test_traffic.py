import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkdsim.traffic import (
    PPBP,
    Anycast,
    ArrivalSampler,
    Bernoulli,
    Broadcast,
    Multicast,
    TrafficClass,
    TruncatedPoisson,
    ArrivalSampler,
    Unicast,
    ppbp_state_advance,
    truncated_pareto_mean,
)


def _rng(seed=0):
    return np.random.default_rng(seed)


def test_bernoulli_zero_rate_never_arrives():
    s = ArrivalSampler(Bernoulli(0.0), _rng())
    assert (s.sample_batch(1000) == 0).all()


def test_bernoulli_empirical_mean():
    s = ArrivalSampler(Bernoulli(0.45), _rng(1))
    counts = s.sample_batch(100_000)
    assert abs(counts.mean() - 0.45) < 0.01


def test_iid_mean_convergence_two_percent():
    # law of large numbers at one million slots
    for proc in (Bernoulli(0.45), TruncatedPoisson(0.8, cap=6)):
        counts = ArrivalSampler(proc, _rng(2)).sample_batch(1_000_000)
        assert abs(counts.mean() - proc.mean) < 0.02 * proc.mean


def test_truncated_poisson_capped():
    proc = TruncatedPoisson(5.0, cap=3)
    counts = ArrivalSampler(proc, _rng(3)).sample_batch(10_000)
    assert counts.max() <= 3
    assert abs(counts.mean() - proc.mean) < 0.05


def test_truncated_pareto_mean_matches_monte_carlo():
    shape, scale, cap = 1.4, 1.43, 5000
    exact = truncated_pareto_mean(shape, scale, cap)
    rng = _rng(4)
    draws = np.minimum(np.ceil(scale / rng.random(200_000) ** (1 / shape)), cap)
    assert abs(draws.mean() - exact) < 0.05 * exact


def test_ppbp_hurst_maps_to_on_shape():
    assert PPBP(hurst=0.8).on_shape == pytest.approx(1.4)


def test_ppbp_zero_active_bursts_emit_nothing():
    proc = PPBP(sources=1)
    sampler = ArrivalSampler(proc, _rng(5))
    # force the single source to sleep
    sampler._states[0].on = False
    sampler._states[0].remaining = 100
    states, count = ppbp_state_advance(proc, sampler._states, sampler.rng)
    assert count == 0


def test_ppbp_burstiness_index_of_dispersion():
    # dispersion of window counts; long ON/OFF memory pushes it well above 1
    counts = ArrivalSampler(PPBP(sources=4), _rng(6)).sample_batch(100_000)
    windows = counts.reshape(-1, 100).sum(axis=1)
    dispersion = windows.var() / windows.mean()
    assert dispersion > 1.0
    # an independent stream at the same mean stays near 1
    poisson = _rng(60).poisson(counts.mean(), windows.size * 100).reshape(-1, 100).sum(axis=1)
    assert dispersion > 2 * (poisson.var() / poisson.mean())


def test_ppbp_long_run_mean_within_five_percent():
    proc = PPBP(sources=4)
    counts = ArrivalSampler(proc, _rng(7)).sample_batch(1_000_000)
    assert abs(counts.mean() - proc.mean) < 0.05 * proc.mean


def test_ppbp_respects_burst_packet_budget():
    proc = PPBP(sources=1, burst_rate=3, max_packets_per_burst=7)
    counts = ArrivalSampler(proc, _rng(8)).sample_batch(50_000)
    assert counts.max() <= 3
    # bursts of 3/slot with budget 7 end on a 1-packet slot
    assert (counts == 1).any()


@given(seed=st.integers(0, 10_000), rate=st.floats(0.0, 1.0))
@settings(max_examples=30, deadline=None)
def test_seeded_determinism(seed, rate):
    a = ArrivalSampler(Bernoulli(rate), _rng(seed)).sample_batch(500)
    b = ArrivalSampler(Bernoulli(rate), _rng(seed)).sample_batch(500)
    assert (a == b).all()


@given(seed=st.integers(0, 1000))
@settings(max_examples=20, deadline=None)
def test_per_slot_cap_always_respected(seed):
    for proc in (TruncatedPoisson(3.0, cap=5), PPBP(sources=3, slot_cap=4)):
        counts = ArrivalSampler(proc, _rng(seed)).sample_batch(2000)
        assert counts.max() <= proc.cap


def test_sample_arrivals_batches_all_classes():
    # one slot for every class, each from its own stream
    classes = [
        TrafficClass(0, 0, Unicast(1), Bernoulli(1.0)),
        TrafficClass(1, 1, Unicast(0), Bernoulli(0.0)),
    ]
    samplers = {c.id: ArrivalSampler(c.arrival, _rng(c.id)) for c in classes}
    counts = {cid: int(s.sample_batch(1)[0]) for cid, s in samplers.items()}
    assert counts == {0: 1, 1: 0}


def test_traffic_class_validation():
    with pytest.raises(ValueError, match="source"):
        TrafficClass(0, 2, Unicast(2), Bernoulli(0.1))
    with pytest.raises(ValueError, match="empty"):
        TrafficClass(0, 0, Multicast(()), Bernoulli(0.1))
    with pytest.raises(ValueError, match="security"):
        TrafficClass(0, 0, Unicast(1), Bernoulli(0.1), security="plain")


def test_destination_nodes():
    assert TrafficClass(0, 0, Broadcast(), Bernoulli(0.1)).destination_nodes(4) == {1, 2, 3}
    assert TrafficClass(0, 0, Anycast((1, 2)), Bernoulli(0.1)).destination_nodes(4) == {1, 2}
