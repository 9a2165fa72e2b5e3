"""The batch trial engine against a per-trial loop reference.

The reference below simulates one trial at a time with Python integers: the
scalar form of the counter-based draw, rscodes.encode (or the generator
rows), and localrepair.recover / repair.  The engine must give identical
TrialRecords on every case.
"""

import numpy as np
import pytest

from loceret import descriptor, localrepair, rscodes, storagesim
from loceret.galois import Field
from loceret.storagesim import (Bernoulli, ClusterConfig, ExactErrors,
                                TrialRecord, trial_records)

MASK = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15

FIBRE = {"field": {"p": 13, "m": 1}, "construction": "lrcrs",
         "p_poly": [0, 0, 0, 0, 1], "l": [2, 2]}
CUBIC_FIBRE = {"field": {"p": 13}, "construction": "lrcrs",
               "p_poly": [0, 0, 0, 1], "l": [1]}
RS_GF256 = {"field": {"p": 2, "m": 8}, "construction": "rs",
            "points": list(range(3, 256, 7)), "k": 8}
RS_GF9 = {"field": {"p": 3, "m": 2}, "construction": "rs",
          "points": "all", "k": 3}
RS_GF2_17 = {"field": {"p": 2, "m": 17}, "construction": "rs",
             "points": [0, 1, 2, 3, 1000, 4097, 65535, 65536, 70001,
                        99999, 131070, 131071], "k": 4}
# plans of 3 and 4 helpers, so the engine pads the narrower ones
GENERATOR = {"field": {"p": 13, "m": 1}, "construction": "generator",
             "rows": [[1, 0, 0, 1, 1, 1, 2], [0, 1, 0, 1, 2, 0, 1],
                      [0, 0, 1, 0, 0, 1, 1]]}

# a generator code over a field that encodes by product table
GENERATOR_GF16 = {"field": {"p": 2, "m": 4}, "construction": "generator",
                  "rows": [[1, 0, 0, 1, 7, 3, 9, 12, 5, 1],
                           [0, 1, 0, 5, 2, 11, 1, 4, 8, 15],
                           [0, 0, 1, 6, 13, 1, 10, 2, 3, 9]]}


def mix(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return z ^ (z >> 31)


def draw(seed: int, trial: int, index: int) -> int:
    stream = mix((mix((seed + GAMMA) & MASK) + (trial + 1) * GAMMA) & MASK)
    return mix((stream + (index + 1) * GAMMA) & MASK)


def reference_records(config: ClusterConfig, start: int = 0, stop=None):
    """The simulator as a loop over trials, one field operation at a time."""
    bundle = descriptor.build_code(config.code)
    field, n, k = bundle.field, bundle.code.n, bundle.code.k
    plans = [localrepair.plan_for(bundle, c, config.t) for c in range(n)]
    seed, channel = config.seed, config.channel

    def encode(message):
        if bundle.spec is not None:
            return rscodes.encode(bundle.spec, message).symbols
        word = [0] * n
        for m, row in zip(message, bundle.code.gen):
            word = [field.add(w, field.mul(m, g)) for w, g in zip(word, row)]
        return word

    for trial in range(start, config.trials if stop is None else stop):
        message = [draw(seed, trial, j) % field.q for j in range(k)]
        if config.target_policy == "uniform-random":
            target = draw(seed, trial, k) % n
        else:
            target = trial % n
        plan = plans[target]
        r = len(plan.helpers)
        word = encode(message)
        values = [word[c] for c in plan.helpers]
        if isinstance(channel, Bernoulli):
            threshold = int(channel.epsilon * (1 << 64))
            corrupted = tuple(j for j in range(r)
                              if draw(seed, trial, k + 1 + j) < threshold)
        else:
            free = list(range(r))
            corrupted = tuple(sorted(
                free.pop(draw(seed, trial, k + 1 + j) % (r - j))
                for j in range(channel.errors)))
        for j in corrupted:
            err = 1 + draw(seed, trial, k + 1 + r + j) % (field.q - 1)
            values[j] = field.add(values[j], err)
        yield TrialRecord(trial, target, corrupted, word[target],
                          localrepair.recover(plan, values),
                          localrepair.repair(plan, values))


CASES = [
    ("fibre-bernoulli", FIBRE, 1, Bernoulli(0.2), "round-robin", 1500),
    ("fibre-exact1", FIBRE, 1, ExactErrors(1), "uniform-random", 600),
    ("fibre-exact2", FIBRE, 1, ExactErrors(2), "round-robin", 1500),
    ("fibre-exact3", FIBRE, 1, ExactErrors(3), "uniform-random", 600),
    ("rs-gf256-exact2", RS_GF256, 1, ExactErrors(2), "uniform-random", 400),
    ("rs-gf9-t2", RS_GF9, 2, Bernoulli(0.3), "round-robin", 800),
    ("rs-gf2^17", RS_GF2_17, 1, Bernoulli(0.25), "uniform-random", 300),
    ("generator-bernoulli", GENERATOR, 1, Bernoulli(0.3), "round-robin", 800),
    ("generator-exact2", GENERATOR, 1, ExactErrors(2), "uniform-random", 800),
    ("generator-gf16-bernoulli", GENERATOR_GF16, 1, Bernoulli(0.3),
     "uniform-random", 800),
    ("cubic-fibre-t2-exact2", CUBIC_FIBRE, 2, ExactErrors(2), "round-robin", 600),
    ("cubic-fibre-t2-bernoulli", CUBIC_FIBRE, 2, Bernoulli(0.4), "uniform-random", 600),
]


@pytest.mark.parametrize("desc,t,channel,policy,trials",
                         [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_engine_matches_the_loop_reference(desc, t, channel, policy, trials):
    config = ClusterConfig(code=desc, t=t, channel=channel, trials=trials,
                           seed=20181203, target_policy=policy)
    engine = list(trial_records(config))
    assert engine == list(reference_records(config))
    # the slices cover the range exactly (trials is not a multiple of one)
    assert [rec.trial for rec in engine] == list(range(trials))
    assert any(rec.corrupted for rec in engine)


# Channel edges on codes of each field kind (prime, GF(2^m), odd-p extension,
# padded 3- and 4-helper plans): no trial hit, every live slot hit, and one
# slice with exactly one hit trial among 60 (seed 1192 at Bernoulli(0.01)).
EDGE_CODES = [("fibre", FIBRE), ("rs-gf256", RS_GF256), ("rs-gf9", RS_GF9),
              ("generator", GENERATOR)]
EDGE_CHANNELS = [("bernoulli0", Bernoulli(0.0), 5, 150),
                 ("bernoulli1", Bernoulli(1.0), 5, 150),
                 ("exact0", ExactErrors(0), 5, 150),
                 ("one-hit", Bernoulli(0.01), 1192, 60)]
EDGE_CASES = [(f"{code}-{channel}-{policy}", desc, 1, ch, policy, trials, seed)
              for code, desc in EDGE_CODES
              for channel, ch, seed, trials in EDGE_CHANNELS
              for policy in ("round-robin", "uniform-random")
              if channel != "one-hit" or policy == "uniform-random"]


@pytest.mark.parametrize("desc,t,channel,policy,trials,seed",
                         [case[1:] for case in EDGE_CASES],
                         ids=[case[0] for case in EDGE_CASES])
def test_channel_edges_match_the_loop_reference(desc, t, channel, policy,
                                                 trials, seed):
    config = ClusterConfig(code=desc, t=t, channel=channel, trials=trials,
                           seed=seed, target_policy=policy)
    engine = list(trial_records(config))
    assert engine == list(reference_records(config))
    hits = [rec for rec in engine if rec.corrupted]
    if isinstance(channel, ExactErrors) or channel.epsilon == 0.0:
        assert not hits
    elif channel.epsilon == 1.0:
        plans = storagesim.build_plans(descriptor.build_code(desc), t)
        assert all(rec.corrupted == tuple(range(len(plans[rec.target].helpers)))
                   for rec in engine)
    else:
        assert len(hits) == 1


def tally_records(records) -> dict:
    """The report cells of trial records, one trial at a time."""
    cells = dict.fromkeys(("clean_correct", "corrupted_trials", "naive_wrong",
                           "naive_right_under_error", "detected",
                           "missed_wrong", "missed_right"), 0)
    for rec in records:
        right = rec.naive_value == rec.truth
        if not rec.corrupted:
            assert right and not rec.outcome.detected, rec
            cells["clean_correct"] += 1
            continue
        cells["corrupted_trials"] += 1
        cells["naive_right_under_error" if right else "naive_wrong"] += 1
        if rec.outcome.detected:
            cells["detected"] += 1
        else:
            cells["missed_right" if right else "missed_wrong"] += 1
    return cells


ALL_CASES = [case + (20181203,) for case in CASES] + EDGE_CASES


@pytest.mark.parametrize("desc,t,channel,policy,trials,seed",
                         [case[1:] for case in ALL_CASES],
                         ids=[case[0] for case in ALL_CASES])
def test_tally_range_counts_the_trial_records_cell_by_cell(desc, t, channel,
                                                           policy, trials, seed):
    config = ClusterConfig(code=desc, t=t, channel=channel, trials=trials,
                           seed=seed, target_policy=policy)
    start = trials // 5          # one slice over an offset span
    context = storagesim._SimContext(config)
    histogram = storagesim._tally_range(context, start, trials)
    assert (storagesim._outcome_cells(histogram)
            == tally_records(trial_records(config, start, trials)))


RS256 = {"field": {"p": 2, "m": 8}, "construction": "rs",
         "points": "all", "k": 16}


def test_trial_records_build_no_encode_table(monkeypatch):
    # each truth is read off the generator columns the engine already holds
    configs = [ClusterConfig(code=GENERATOR_GF16, t=1, channel=Bernoulli(0.3),
                             trials=400, seed=11, target_policy="uniform-random"),
               ClusterConfig(code=RS256, t=1, channel=ExactErrors(2),
                             trials=300, seed=12)]
    expected = [list(reference_records(config)) for config in configs]

    def no_encoding(*args):
        raise AssertionError("the simulator encoded")
    monkeypatch.setattr(storagesim, "_plan_cache", localrepair.PlanCache())
    monkeypatch.setattr(Field, "encoding", no_encoding)
    monkeypatch.setattr(Field, "encode_word", no_encoding)
    assert [list(trial_records(config)) for config in configs] == expected


def test_an_offset_range_matches_the_reference():
    config = ClusterConfig(code=FIBRE, t=1, channel=Bernoulli(0.3),
                           trials=3000, seed=-5, target_policy="uniform-random")
    start, stop = 700, 700 + storagesim._CHUNK_TRIALS + 33
    assert (list(trial_records(config, start, stop))
            == list(reference_records(config, start, stop)))
    # round-robin slices read their targets, helper counts and live slots
    # from periodic tables at start mod n, and their stream offsets from a
    # ramp shifted by start G: ranges that start past 0, wrap around n, and
    # cross a slice boundary (the second slice starts at 700 + 2048)
    for desc in (FIBRE, RS_GF9, GENERATOR):
        n = descriptor.build_code(desc).code.n
        for channel in (Bernoulli(0.3), ExactErrors(2)):
            config = ClusterConfig(code=desc, t=1, channel=channel, trials=3000,
                                   seed=-5, target_policy="round-robin")
            for start, stop in ((1, 40), (n - 1, n + 40), (700, 760),
                                (700, 700 + storagesim._CHUNK_TRIALS + 33)):
                assert (list(trial_records(config, start, stop))
                        == list(reference_records(config, start, stop))), (
                            desc, channel, start)


def test_a_long_campaign_grows_no_table_or_cache_after_its_first_slice(monkeypatch):
    # the bundle, the per-(code, t) arrays and the plans in the one cache are
    # built by the first slice of the first campaign and serve every later
    # slice and campaign as they are: nothing is kept per slice
    monkeypatch.setattr(storagesim, "_plan_cache", localrepair.PlanCache())
    real_run_slice = storagesim._run_slice
    sizes = []

    def sized_slice(context, start, stop):
        out = real_run_slice(context, start, stop)
        arrays = {name: value.shape if isinstance(value, np.ndarray)
                  else len(value) if hasattr(value, "__len__") else None
                  for name, value in vars(context.arrays).items()}
        sizes.append((arrays, len(storagesim._plan_cache)))
        return out
    monkeypatch.setattr(storagesim, "_run_slice", sized_slice)
    trials = 3 * storagesim._CHUNK_TRIALS
    for policy in ("round-robin", "uniform-random"):
        for seed, channel in enumerate((Bernoulli(0.1), ExactErrors(2))):
            storagesim.run_sim(ClusterConfig(code=FIBRE, t=1, channel=channel,
                                             trials=trials, seed=seed,
                                             target_policy=policy))
    assert len(sizes) == 4 * 3
    assert all(size == sizes[0] for size in sizes)
    assert sizes[0][1] == 12 + 1 + 1        # 12 plans, the arrays and the bundle


def test_array_draws_equal_the_scalar_draw():
    # the stream and draw functions that _run_slice calls: three trials from
    # each first trial, on a ramp of trial offsets i G
    ramp = np.arange(3, dtype=np.uint64) * storagesim._G
    offsets = storagesim._offsets(np.arange(20))
    for seed in (0, 2, -1, 1 << 63, (1 << 64) + 9):
        key = storagesim._seed_key(seed)
        for start in (0, 1, 2, 511, 512, 10**6, (1 << 40) + 3):
            streams = storagesim._streams(key, start, ramp)
            got = storagesim._draws(streams[:, None], offsets).tolist()
            assert got == [[draw(seed, trial, i) for i in range(20)]
                           for trial in range(start, start + 3)]


def test_uniform_draws_pass_a_13_bin_chi_square():
    # 10^4 trials x 10 draw indices = 10^5 draws reduced mod 13
    ramp = np.arange(10_000, dtype=np.uint64) * storagesim._G
    streams = storagesim._streams(storagesim._seed_key(2), 0, ramp)
    draws = storagesim._draws(streams[:, None], storagesim._offsets(np.arange(10)))
    values = storagesim._below(draws, np.uint64(13))
    observed = np.bincount(values.ravel(), minlength=13)
    expected = values.size / 13
    chi2 = float(((observed - expected) ** 2 / expected).sum())
    assert chi2 < 32.909          # 0.999 quantile of chi-square, 12 dof
