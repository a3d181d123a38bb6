import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkdsim.keying import (
    BB84Toy,
    DeterministicKeys,
    KeyBank,
    KeySampler,
    KeySpec,
    bb84_round,
)
from qkdsim.topology import Edge
from qkdsim.traffic import TruncatedPoisson


def _rng(seed=0):
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# key ledger (one KeyBank holds every edge)

def _vec(*counts):
    return np.array(counts, dtype=np.int64)


def test_bank_cannot_overdraw():
    bank = KeyBank(3)
    bank.deposit(_vec(3, 0, 1))
    assert bank.withdraw(0, 5) == 3
    assert bank.withdraw(2, 4) == 1
    assert bank.residual.tolist() == [0, 0, 0]
    assert bank.withdraw(1, 0) == 0
    assert bank.withdraw(1, 2) == 0


def test_bank_withdraw_zero_is_identity():
    bank = KeyBank(2)
    bank.deposit(_vec(2, 2))
    assert bank.withdraw(0, 0) == 0
    assert bank.residual.tolist() == [2, 2]
    assert bank.consumed_total.tolist() == [0, 0]


_OPS = st.one_of(
    st.tuples(st.just("d"), st.lists(st.integers(0, 50), min_size=4, max_size=4)),
    st.tuples(st.just("w"), st.integers(0, 3), st.integers(0, 50)),
    st.tuples(st.just("x"), st.integers(0, 30)),
    st.tuples(st.just("m"), st.dictionaries(st.integers(0, 3), st.integers(0, 50), max_size=4)),
)


@given(st.integers(2, 4), st.lists(_OPS, max_size=200))
@settings(max_examples=200, deadline=None)
def test_bank_ledger_replay(m, ops):
    # independent replay: one scalar ledger per edge
    bank = KeyBank(m)
    res, gen, con, dis = ([0] * m for _ in range(4))
    for op in ops:
        if op[0] == "d":
            counts = op[1][:m]
            bank.deposit(np.array(counts, dtype=np.int64))
            for e, c in enumerate(counts):
                res[e] += c
                gen[e] += c
        elif op[0] == "w":
            e, want = op[1] % m, op[2]
            got = bank.withdraw(e, want)
            assert got == min(want, res[e])
            res[e] -= got
            con[e] += got
        elif op[0] == "m":
            wants = {e % m: want for e, want in op[1].items()}  # distinct edges
            got = bank.withdraw_many(list(wants), list(wants.values()))
            assert got == sum(min(want, res[e]) for e, want in wants.items())
            for e, want in wants.items():
                granted = min(want, res[e])
                res[e] -= granted
                con[e] += granted
        else:
            keep = op[1]
            bank.discard_residual(keep)
            for e in range(m):
                over = max(0, res[e] - keep)
                res[e] -= over
                dis[e] += over
        assert bank.residual.tolist() == res
        assert bank.generated_total.tolist() == gen
        assert bank.consumed_total.tolist() == con
        assert bank.discarded_total.tolist() == dis
        bank.check_ledger()


def test_bank_discard_tracks_separately():
    bank = KeyBank(2)
    bank.deposit(_vec(5, 1))
    bank.withdraw(0, 2)
    bank.discard_residual()
    assert bank.residual.tolist() == [0, 0]
    assert bank.discarded_total.tolist() == [3, 1]
    assert bank.consumed_total.tolist() == [2, 0]
    bank.check_ledger()


def test_bank_discard_above_a_cap():
    bank = KeyBank(3)
    bank.deposit(_vec(5, 1, 2))
    bank.discard_residual(2)
    assert bank.residual.tolist() == [2, 1, 2]
    assert bank.discarded_total.tolist() == [3, 0, 0]
    bank.check_ledger()


def test_bank_rejects_negative_amounts():
    bank = KeyBank(2)
    with pytest.raises(ValueError):
        bank.deposit(_vec(1, -1))
    with pytest.raises(ValueError):
        bank.withdraw(0, -1)
    with pytest.raises(ValueError):
        bank.withdraw_many([0, 1], [1, -1])
    with pytest.raises(ValueError):
        bank.discard_residual(-1)
    assert bank.generated_total.tolist() == [0, 0]


@given(st.integers(2, 5), st.integers(0, 4), st.integers(0, 40), st.integers(0, 40), st.integers(0, 1000))
@settings(max_examples=100, deadline=None)
def test_bank_operations_on_one_edge_leave_the_others_alone(m, e, put, take, seed):
    e %= m
    bank = KeyBank(m)
    bank.deposit(np.random.default_rng(seed).integers(0, 20, m))
    bank.withdraw((e + 1) % m, 3)

    def others():
        return [np.delete(a, e).tolist() for a in
                (bank.residual, bank.generated_total, bank.consumed_total, bank.discarded_total)]

    before = others()
    only_e = np.zeros(m, dtype=np.int64)
    only_e[e] = put
    bank.deposit(only_e)
    assert others() == before
    bank.withdraw(e, take)
    assert others() == before
    bank.check_ledger()


# ---------------------------------------------------------------------------
# key processes

def test_deterministic_keys():
    s = KeySampler([DeterministicKeys(2)], _rng())
    assert (s.sample_batch(100) == 2).all()


def test_truncated_poisson_mean_near_rate():
    # truncation mass above 20 is ~1e-22 at rate 0.5, so the mean is intact
    proc = TruncatedPoisson(0.5, cap=20)
    counts = KeySampler([proc], _rng(1)).sample_batch(1_000_000)
    assert abs(counts.mean() - 0.5) < 0.005
    assert abs(proc.mean - 0.5) < 1e-12
    assert counts.max() <= 20


def test_generate_keys_functional_form():
    # one slot's fresh keys for a single edge
    assert KeySampler([DeterministicKeys(7)], _rng()).sample_batch(1)[0, 0] == 7
    counts = KeySampler([TruncatedPoisson(3.0, cap=4)], _rng(3)).sample_batch(200)
    assert ((0 <= counts) & (counts <= 4)).all()


# One sampler over a mix of links: truncated-Poisson caps 20, 4 and 1 (the
# last two from k_max overrides), a rate-0 link, a rate whose exp(-rate)
# underflows, a deterministic link, a keyless link and a BB84 link.
_MIX_SPEC = KeySpec(k_max=20, overrides=(
    ((2, 3), KeySpec(k_max=4)),
    ((4, 5), KeySpec(k_max=1)),
    ((6, 7), KeySpec(kind="deterministic", value=3)),
    ((8, 9), KeySpec(kind="bb84", photons=6, check_fraction=0.2, k_max=2)),
))
_MIX_LINKS = (
    (0, 1, 0.5), (2, 3, 3.0), (4, 5, 0.7), (10, 11, 0.0), (12, 13, 800.0), (14, 15, 1.0, False), (6, 7, 1.0),
    (8, 9, 1.0),
)


def _mix_sampler(seed=0):
    processes = _MIX_SPEC.processes([_edge(i, *link) for i, link in enumerate(_MIX_LINKS)])
    assert processes[5] is None  # the keyless link
    return processes, KeySampler(processes, _rng(seed), [_rng(seed + 1)])


def _edge(eid, u, v, eta, has_qkd=True):
    return Edge(eid, u, v, 1, eta, has_qkd, None, eid)


def _truncated_poisson_pmf(rate, cap):
    pmf = [math.exp(-rate) * rate**k / math.factorial(k) for k in range(cap)]
    return pmf + [max(0.0, 1.0 - sum(pmf))]


def test_key_counts_fit_the_truncated_poisson_pmf():
    # each count k in 0..cap of each link: |freq - pmf| within 5 standard
    # errors plus one count; a count of probability 0 never occurs
    n = 40_000
    processes, sampler = _mix_sampler(1)
    counts = sampler.sample_batch(n)
    for e, p in enumerate(processes):
        if not isinstance(p, TruncatedPoisson):
            continue
        freq = np.bincount(counts[:, e], minlength=p.cap + 1) / n
        assert len(freq) == p.cap + 1
        for k, want in enumerate(_truncated_poisson_pmf(p.rate, p.cap)):
            assert abs(freq[k] - want) <= 5 * math.sqrt(want * (1 - want) / n) + 1 / n, (e, k, freq[k], want)
    assert (counts[:, 3] == 0).all()  # rate 0
    assert (counts[:, 4] == 20).all()  # rate 800: every slot reaches the cap
    assert (counts[:, 5] == 0).all()  # keyless
    assert (counts[:, 6] == 3).all()  # deterministic
    assert counts[:, 7].max() <= 2 and counts[:, 7].min() >= 0  # BB84, capped at its k_max


def test_key_counts_are_the_inverse_cdf_of_one_uniform_per_slot_and_link():
    # an independent replay: the truncated-Poisson links take the stream's
    # uniforms in slot order, then link order; the BB84 link runs its rounds
    # on its own generator
    n = 2_000
    processes, sampler = _mix_sampler(2)
    counts = sampler.sample_batch(n)
    poisson = [e for e, p in enumerate(processes) if isinstance(p, TruncatedPoisson)]
    u = _rng(2).random((n, len(poisson)))
    for j, e in enumerate(poisson):
        p = processes[e]
        cdf = np.cumsum(_truncated_poisson_pmf(p.rate, p.cap)[:-1])
        assert counts[:, e].tolist() == [sum(x >= c for c in cdf) for x in u[:, j]]
    bb84, rng = processes[7], _rng(3)
    assert counts[:, 7].tolist() == [
        min(bb84_round(bb84.photons, bb84.eavesdrop_prob, bb84.check_fraction, rng).sifted_keys, bb84.cap)
        for _ in range(n)
    ]


@pytest.mark.parametrize("chunk_cells", [1, 11, 1 << 15])
def test_a_split_draw_equals_one_draw(chunk_cells, monkeypatch):
    import qkdsim.keying as keying

    monkeypatch.setattr(keying, "_CHUNK_CELLS", chunk_cells)
    split = _mix_sampler(4)[1]
    first = split.sample_batch(3).copy()
    assert np.array_equal(np.vstack([first, split.sample_batch(4)]), _mix_sampler(4)[1].sample_batch(7))


def test_key_sampler_needs_one_generator_per_bb84_link():
    with pytest.raises(ValueError, match="1 BB84 links need as many generators, got 0"):
        KeySampler([BB84Toy(), TruncatedPoisson(0.5)], _rng())


def test_an_absurd_cap_costs_no_memory():
    # the CDF rows stop where the tail is far below a uniform's resolution
    sampler = KeySampler([TruncatedPoisson(0.5, cap=10**6)], _rng(5))
    assert len(sampler.thresholds) < 100
    assert sampler.sample_batch(1_000).max() < 15


def test_counts_above_a_byte_do_not_wrap():
    # 400 threshold rows: counts are accumulated wider than a byte
    counts = KeySampler([TruncatedPoisson(300.0, cap=400)], _rng(6)).sample_batch(2_000)[:, 0]
    assert abs(counts.mean() - 300.0) < 2.0
    assert counts.max() <= 400


def test_keyspec_dispatch():
    assert isinstance(KeySpec().process_for(0.5), TruncatedPoisson)
    assert KeySpec(kind="deterministic", value=3).process_for(0.5).value == 3
    assert isinstance(KeySpec(kind="bb84").process_for(0.5), BB84Toy)
    with pytest.raises(ValueError):
        KeySpec(kind="deterministic").process_for(0.5)
    with pytest.raises(ValueError):
        KeySpec(kind="carrier-pigeon").process_for(0.5)


def test_keyspec_per_edge_override():
    spec = KeySpec(overrides=(((0, 1), KeySpec(kind="deterministic", value=9)),))
    fwd, back, other = spec.processes([_edge(0, 0, 1, 0.5), _edge(1, 1, 0, 0.5), _edge(2, 1, 2, 0.5)])
    assert fwd.value == 9
    assert back.value == 9  # either direction
    assert isinstance(other, TruncatedPoisson)


@pytest.mark.parametrize("fields, error", [
    ({"k_max": 0}, "k_max: must be >= 1"),
    ({"kind": "bb84", "photons": -1}, "photons: must be >= 0, got -1"),
    ({"kind": "bogus"}, "process: unknown key process 'bogus'"),
    ({"kind": "deterministic"}, "value: deterministic keys need a value >= 0"),
    ({"kind": "deterministic", "value": -1}, "value: deterministic keys need a value >= 0"),
    ({"kind": "bb84", "eavesdrop_prob": 1.5}, "eavesdrop_prob: must be in [0, 1], got 1.5"),
    ({"kind": "bb84", "check_fraction": -0.1}, "check_fraction: must be in [0, 1], got -0.1"),
], ids=["k-max-0", "negative-photons", "unknown-kind", "deterministic-no-value", "deterministic-negative",
        "eavesdrop-prob-above-1", "check-fraction-negative"])
def test_keyspec_rejects_a_bad_field(fields, error):
    # these used to pass until the engine built its key samplers
    with pytest.raises(ValueError, match="^" + re.escape(error)):
        KeySpec(**fields)


@pytest.mark.parametrize("second", [(0, 1), (1, 0)])
def test_keyspec_rejects_a_link_overridden_twice(second):
    # the first override used to win silently on a KeySpec built in Python
    overrides = (((0, 1), KeySpec(kind="deterministic", value=3)), (second, KeySpec(kind="deterministic", value=0)))
    error = f"overrides[1]: link ({second[0]}, {second[1]}) is already overridden by overrides[0]"
    with pytest.raises(ValueError, match=re.escape(error)):
        KeySpec(overrides=overrides)


# ---------------------------------------------------------------------------
# BB84

def test_bb84_zero_photons():
    r = bb84_round(0, 0.0, 0.0, _rng())
    assert (r.sifted, r.detected) == (0, False)


def test_bb84_sifted_counts_match_binomial():
    # basis-match probability is exactly 1/2: enumerate the 2x2 basis pairs
    matches = sum(a == b for a in (0, 1) for b in (0, 1))
    p = matches / 4
    assert p == 0.5
    rng = _rng(2)
    rounds = 30_000
    counts = np.array([bb84_round(8, 0.0, 0.0, rng).sifted for _ in range(rounds)])
    for k in range(9):
        expected = math.comb(8, k) * p**8
        freq = (counts == k).mean()
        assert abs(freq - expected) < 0.01


def test_bb84_no_eavesdropper_never_detected():
    rng = _rng(3)
    assert not any(bb84_round(16, 0.0, 0.5, rng).detected for _ in range(2000))


def test_bb84_intercept_resend_mismatch_rate():
    # closed form: eavesdropped sifted bit flips with probability 1/4
    rng = _rng(4)
    checked = mismatched = 0
    while checked < 100_000:
        r = bb84_round(64, 1.0, 0.5, rng)
        checked += r.checked
        mismatched += r.mismatches
    assert abs(mismatched / checked - 0.25) < 0.02


def test_bb84_detection_with_enough_checked_bits():
    rng = _rng(5)
    detected = qualifying = 0
    for _ in range(2000):
        r = bb84_round(256, 1.0, 0.4, rng)
        if r.checked >= 32:
            qualifying += 1
            detected += r.detected
    assert qualifying >= 1500
    assert detected / qualifying > 0.99


def test_bb84_detection_discards_whole_key():
    rng = _rng(6)
    for _ in range(500):
        r = bb84_round(64, 1.0, 0.5, rng)
        if r.detected:
            assert r.sifted_keys == 0
        else:
            assert r.sifted_keys == r.sifted - r.checked


def test_bb84_as_key_process_respects_cap():
    counts = KeySampler([BB84Toy(photons=64, cap=10)], _rng(), [_rng(7)]).sample_batch(500)
    assert counts.max() <= 10
