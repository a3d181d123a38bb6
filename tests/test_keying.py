import dataclasses
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qkdsim.keying import KeyBank, KeySampler, KeySpec, bb84_round
from qkdsim.topology import Edge, EdgeSpec, build_graph
from qkdsim.traffic import TruncatedPoisson
from .oracles import edge_key_spec, key_counts_replay, truncated_poisson_pmf


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

def _edge(eid, u, v, eta, has_qkd=True):
    return Edge(eid, u, v, 1, eta, has_qkd, None, eid)


def _sampler(spec, edges, seed=0):
    """The sampler over ``edges``: key stream ``_rng(seed)``, BB84 streams spawned from seed + 1."""
    return KeySampler(spec, edges, _rng(seed), np.random.SeedSequence(seed + 1))


def _one_link(spec, eta=0.5, seed=0):
    return _sampler(spec, [_edge(0, 0, 1, eta)], seed)


def test_deterministic_keys():
    s = _one_link(KeySpec(kind="deterministic", value=2))
    assert (s.sample_batch(100) == 2).all()


def test_truncated_poisson_mean_near_rate():
    # truncation mass above 20 is ~1e-22 at rate 0.5, so the mean is intact
    counts = _one_link(KeySpec(k_max=20), 0.5, seed=1).sample_batch(1_000_000)
    assert abs(counts.mean() - 0.5) < 0.005
    assert abs(TruncatedPoisson(0.5, cap=20).mean - 0.5) < 1e-12
    assert counts.max() <= 20


def test_generate_keys_functional_form():
    # one slot's fresh keys for a single edge
    assert _one_link(KeySpec(kind="deterministic", value=7)).sample_batch(1)[0, 0] == 7
    counts = _one_link(KeySpec(k_max=4), 3.0, seed=3).sample_batch(200)
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
_MIX_EDGES = [_edge(i, *link) for i, link in enumerate((
    (0, 1, 0.5), (2, 3, 3.0), (4, 5, 0.7), (10, 11, 0.0), (12, 13, 800.0), (14, 15, 1.0, False), (6, 7, 1.0),
    (8, 9, 1.0),
))]


def _mix_sampler(seed=0):
    return _sampler(_MIX_SPEC, _MIX_EDGES, seed)


def test_key_counts_fit_the_truncated_poisson_pmf():
    # each count k in 0..cap of each link: |freq - pmf| within 5 standard
    # errors plus one count; a count of probability 0 never occurs
    n = 40_000
    counts = _mix_sampler(1).sample_batch(n)
    assert edge_key_spec(_MIX_SPEC, _MIX_EDGES[5]) is None  # the keyless link
    for e in _MIX_EDGES:
        spec = edge_key_spec(_MIX_SPEC, e)
        if spec is None or spec.kind != "truncated_poisson":
            continue
        freq = np.bincount(counts[:, e.id], minlength=spec.k_max + 1) / n
        assert len(freq) == spec.k_max + 1
        for k, want in enumerate(truncated_poisson_pmf(e.eta, spec.k_max)):
            assert abs(freq[k] - want) <= 5 * math.sqrt(want * (1 - want) / n) + 1 / n, (e.id, k, freq[k], want)
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
    counts = _mix_sampler(2).sample_batch(n)
    assert np.array_equal(counts, key_counts_replay(_MIX_SPEC, _MIX_EDGES, n, _rng(2), np.random.SeedSequence(3)))


@pytest.mark.parametrize("chunk_cells", [1, 11, 1 << 15])
def test_a_split_draw_equals_one_draw(chunk_cells, monkeypatch):
    import qkdsim.keying as keying

    monkeypatch.setattr(keying, "_CHUNK_CELLS", chunk_cells)
    split = _mix_sampler(4)
    first = split.sample_batch(3).copy()
    assert np.array_equal(np.vstack([first, split.sample_batch(4)]), _mix_sampler(4).sample_batch(7))


def test_bb84_generators_continue_the_seed_sequence():
    # the engine spawns its own streams first; the BB84 links take the next
    # children, one per BB84 edge in edge order
    spec = KeySpec(overrides=(((1, 2), KeySpec(kind="bb84")), ((0, 3), KeySpec(kind="bb84"))))
    g = build_graph(4, [EdgeSpec(0, 1), EdgeSpec(1, 2), EdgeSpec(2, 3, directed=True), EdgeSpec(3, 0)])
    seeds = np.random.SeedSequence(5)
    seeds.spawn(3)
    sampler = KeySampler(spec, g.edges, _rng(), seeds)
    children = np.random.SeedSequence(5).spawn(7)[3:]
    assert [e for e, _, _ in sampler.bb84] == [2, 3, 5, 6]
    assert [r.random() for _, _, r in sampler.bb84] == [np.random.default_rng(c).random() for c in children]


def test_thresholds_are_computed_once_per_link(monkeypatch):
    # a link's two directions share one threshold column; a one-way edge has its own
    import qkdsim.keying as keying

    widths = []
    rows = keying._poisson_cdf_rows
    monkeypatch.setattr(keying, "_poisson_cdf_rows", lambda rates, caps: widths.append(len(rates)) or rows(rates, caps))
    g = build_graph(4, [EdgeSpec(0, 1, eta=0.5), EdgeSpec(1, 2, eta=2.0), EdgeSpec(2, 3, eta=1.0, directed=True),
                        EdgeSpec(3, 2, eta=3.0, directed=True), EdgeSpec(3, 0, has_qkd=False)])
    sampler = KeySampler(KeySpec(), g.edges, _rng(), np.random.SeedSequence(0))
    assert widths == [4]
    assert sampler.poisson_cols == slice(0, 6)
    assert sampler.thresholds.flags.c_contiguous  # each slot compares whole rows
    assert np.array_equal(sampler.thresholds[:, 0], sampler.thresholds[:, 1])
    assert np.array_equal(sampler.thresholds[:, 2], sampler.thresholds[:, 3])
    assert not np.array_equal(sampler.thresholds[:, 4], sampler.thresholds[:, 5])


_KEY_SPECS = st.one_of(
    st.builds(KeySpec, k_max=st.integers(1, 25)),
    st.builds(KeySpec, kind=st.just("deterministic"), value=st.integers(0, 9)),
    st.builds(KeySpec, kind=st.just("bb84"), photons=st.integers(0, 12),
              eavesdrop_prob=st.sampled_from((0.0, 0.5, 1.0)), check_fraction=st.sampled_from((0.0, 0.3, 1.0)),
              k_max=st.integers(1, 8)),
)
_RATES = st.floats(0.01, 30.0)
_KEYED = st.sampled_from((True, True, False))


@st.composite
def _keyed_graphs(draw):
    """A random graph with undirected, one-way and keyless links (a one-way
    link may have its reverse too), and a spec overriding some of its links
    with every kind, each named in either direction."""
    n = draw(st.integers(2, 6))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] < p[1]),
                          min_size=1, max_size=8, unique=True))
    edges, links = [], []
    for u, v in pairs:
        eta, has_qkd = draw(_RATES), draw(_KEYED)
        shape = draw(st.sampled_from(("undirected", "both ways", "one-way")))
        if shape == "undirected":
            edges.append(EdgeSpec(u, v, eta=eta, has_qkd=has_qkd))
        else:
            edges.append(EdgeSpec(u, v, eta=eta, has_qkd=has_qkd, directed=True))
            if shape == "both ways":
                edges.append(EdgeSpec(v, u, eta=draw(_RATES), has_qkd=draw(_KEYED), directed=True))
        links.append((v, u) if draw(st.booleans()) else (u, v))
    named = draw(st.lists(st.sampled_from(links), unique=True))
    overrides = tuple((link, draw(_KEY_SPECS)) for link in named)
    spec = dataclasses.replace(draw(_KEY_SPECS), overrides=overrides)
    return build_graph(n, edges), spec


# one-way links both ways at different rates, a link overridden in its
# reverse direction, an overridden keyless link and a BB84 link
@example((build_graph(4, [EdgeSpec(0, 1, eta=0.2, directed=True), EdgeSpec(1, 0, eta=9.0, directed=True),
                          EdgeSpec(1, 2, eta=1.5), EdgeSpec(2, 3, has_qkd=False), EdgeSpec(3, 0, eta=4.0)]),
          KeySpec(k_max=12, overrides=(((2, 1), KeySpec(kind="deterministic", value=2)),
                                       ((3, 2), KeySpec(kind="deterministic", value=5)),
                                       ((0, 3), KeySpec(kind="bb84", photons=10, k_max=3))))), 7, 10)
@given(_keyed_graphs(), st.integers(0, 1000), st.integers(1, 12))
@settings(max_examples=80, deadline=None)
def test_the_sampler_matches_a_replay_edge_by_edge(graph_spec, seed, nslots):
    g, spec = graph_spec
    counts = _sampler(spec, g.edges, seed).sample_batch(nslots)
    replay = key_counts_replay(spec, g.edges, nslots, _rng(seed), np.random.SeedSequence(seed + 1))
    assert np.array_equal(counts, replay)


def test_an_absurd_cap_costs_no_memory():
    # the CDF rows stop where the tail is far below a uniform's resolution
    sampler = _one_link(KeySpec(k_max=10**6), 0.5, seed=5)
    assert len(sampler.thresholds) < 100
    assert sampler.sample_batch(1_000).max() < 15


@pytest.mark.parametrize("eta", [1e19, 1e300])
def test_a_huge_key_rate_draws_k_max_every_slot(eta):
    # the row bound rate + 12 sqrt(rate) used to overflow its int64 cast
    # above about 9.2e18, and such a link drew 0 keys in every slot
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        counts = _one_link(KeySpec(k_max=20), eta, seed=4).sample_batch(1_000)
    assert (counts == 20).all()


def test_counts_above_a_byte_do_not_wrap():
    # 400 threshold rows: counts are accumulated wider than a byte
    counts = _one_link(KeySpec(k_max=400), 300.0, seed=6).sample_batch(2_000)[:, 0]
    assert abs(counts.mean() - 300.0) < 2.0
    assert counts.max() <= 400


def test_keyspec_dispatch():
    poisson = _one_link(KeySpec())
    assert poisson.thresholds.shape[1] == 1 and not poisson.bb84
    assert _one_link(KeySpec(kind="deterministic", value=3)).constant.tolist() == [3]
    bb84 = _one_link(KeySpec(kind="bb84"))
    assert [e for e, _, _ in bb84.bb84] == [0] and bb84.thresholds.shape[1] == 0
    with pytest.raises(ValueError):
        KeySpec(kind="deterministic")
    with pytest.raises(ValueError):
        KeySpec(kind="carrier-pigeon")


def test_keyspec_per_edge_override():
    spec = KeySpec(overrides=(((0, 1), KeySpec(kind="deterministic", value=9)),))
    sampler = _sampler(spec, [_edge(0, 0, 1, 0.5), _edge(1, 1, 0, 0.5), _edge(2, 1, 2, 0.5)])
    assert sampler.constant.tolist() == [9, 9, 0]  # either direction
    assert sampler.poisson_cols == slice(2, 3)


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
    counts = _one_link(KeySpec(kind="bb84", photons=64, k_max=10)).sample_batch(500)
    assert counts.max() <= 10
