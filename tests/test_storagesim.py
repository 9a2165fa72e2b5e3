import dataclasses
import hashlib
import json
import random
import re

import numpy as np
import pytest

from loceret import codeops, descriptor, localrepair, storagesim
from loceret.galois import Field
from loceret.storagesim import (RNG, Bernoulli, ClusterConfig, ExactErrors,
                                PlanUnavailableError, UnsupportedFieldError,
                                compare_policies, emit, ingest, run_sim,
                                sweep_csv, trial_records, wilson_interval)

EXAMPLE_DESC = {"field": {"p": 13, "m": 1}, "construction": "lrcrs",
              "p_poly": [0, 0, 0, 0, 1], "l": [2, 2]}

GF16 = Field(2, 4)
GF256 = Field(2, 8)
GF65536 = Field(2, 16)


def example_config(**overrides):
    base = dict(code=EXAMPLE_DESC, t=1, channel=Bernoulli(0.0),
                trials=100, seed=7, target_policy="round-robin")
    base.update(overrides)
    return ClusterConfig(**base)


# ---------------------------------------------------------------------------
# byte ingestion
# ---------------------------------------------------------------------------

def test_empty_input_yields_one_padding_block():
    messages = ingest(b"", GF256, 4)
    assert messages == [[0x80, 0, 0, 0]]
    assert emit(messages, GF256) == b""


def test_sixteen_bytes_are_byte_valued_symbols_plus_padding():
    data = bytes(range(16))
    messages = ingest(data, GF256, 4)
    assert len(messages) == 5                      # 4 data blocks + pad block
    assert [s for block in messages[:4] for s in block] == list(data)
    assert messages[4] == [0x80, 0, 0, 0]
    assert emit(messages, GF256) == data


def test_ingest_roundtrip_on_random_byte_strings():
    rng = random.Random(97)
    for field, k in ((GF16, 3), (GF16, 4), (GF256, 4), (GF256, 5), (GF65536, 2)):
        for _ in range(200):
            data = rng.randbytes(rng.randrange(0, 60))
            assert emit(ingest(data, field, k), field) == data


def test_ingest_roundtrip_on_adversarial_tails():
    for data in (b"\x80", b"\x80\x00", b"abc\x80", b"\x00\x00", b"a\x80\x00\x00"):
        assert emit(ingest(data, GF256, 4), GF256) == data


def test_nibble_symbols_are_big_endian_within_the_byte():
    messages = ingest(b"\xab", GF16, 2)
    flat = [s for block in messages for s in block]
    assert flat[:2] == [0xA, 0xB]


def test_ingest_needs_characteristic_two():
    with pytest.raises(UnsupportedFieldError):
        ingest(b"hi", Field(13), 2)
    with pytest.raises(UnsupportedFieldError):
        emit([[1, 2]], Field(13))


def oracle_ingest(data, field, k):
    """The bit loop that the numpy ingest replaced, kept as an oracle."""
    m = field.m
    block = storagesim._block_bytes(m, k)
    padded = bytearray(data)
    padded.append(0x80)
    while len(padded) % block:
        padded.append(0x00)
    symbols = []
    acc = 0
    bits = 0
    for byte in padded:
        acc = (acc << 8) | byte
        bits += 8
        while bits >= m:
            bits -= m
            symbols.append((acc >> bits) & ((1 << m) - 1))
            acc &= (1 << bits) - 1
    return [symbols[i:i + k] for i in range(0, len(symbols), k)]


def oracle_emit(messages, field):
    """The bit loop that the numpy emit replaced, kept as an oracle."""
    m = field.m
    acc = 0
    bits = 0
    out = bytearray()
    for message in messages:
        for sym in message:
            acc = (acc << m) | field._check(sym)
            bits += m
            while bits >= 8:
                bits -= 8
                out.append((acc >> bits) & 0xFF)
                acc &= (1 << bits) - 1
    if bits:
        raise ValueError("symbol stream does not fill whole bytes")
    while out and out[-1] == 0x00:
        out.pop()
    if not out or out[-1] != 0x80:
        raise ValueError("padding marker missing; not an ingest() output")
    out.pop()
    return bytes(out)


def test_ingest_and_emit_match_the_bit_loops():
    rng = random.Random(113)
    for m in (1, 2, 3, 4, 5, 7, 8, 16):
        field = Field(2, m)
        for k in (1, 3, 15):
            for length in range(51):
                data = rng.randbytes(length)
                messages = ingest(data, field, k)
                assert messages == oracle_ingest(data, field, k)
                assert all(type(s) is int for block in messages for s in block)
                assert emit(messages, field) == oracle_emit(messages, field) == data


def outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def test_emit_rejects_bad_streams_as_the_bit_loop_did():
    # non-canonical symbols (the first bad one is named), a stream that
    # does not fill whole bytes, a missing marker, and ragged messages
    cases = [(GF256, [[1, 256, -1]]), (GF256, [[1, 2.0]]), (GF256, [[-3]]),
             (GF256, [[True, 0x80]]), (GF256, [[1, 2 ** 70]]),
             (GF16, [[0x8, 0x0, 0x1]]), (GF16, [[0x8]]), (GF256, []),
             (GF256, [[0, 0]]), (GF256, [[0x41], [0x80, 0], []]),
             (Field(2, 3), [[4, 0, 0, 0, 0, 0, 0, 0]])]
    for field, messages in cases:
        assert outcome(emit, messages, field) == outcome(oracle_emit, messages, field)
    assert outcome(emit, [[1, 256]], GF256) == (
        ValueError, "256 is not a canonical element of GF(2^8)")


def test_ingest_rejects_a_non_positive_k():
    with pytest.raises(ValueError, match="k must be positive, got 0"):
        ingest(b"x", GF256, 0)
    for k in (True, 2.5):
        with pytest.raises(ValueError, match=f"^k must be an integer, got {k!r}$"):
            ingest(b"ab", GF256, k)


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------

def test_error_free_channel_gives_only_clean_correct():
    report = run_sim(example_config(trials=240))
    assert report.counts["clean_correct"] == 240
    assert report.corrupted_trials == 0
    assert sum(report.counts[c] for c in
               ("clean_correct", "naive_wrong", "naive_right_under_error")) == 240
    assert sum(report.counts[c] for c in
               ("clean_correct", "detected", "missed_wrong", "missed_right")) == 240


def test_single_error_trials_are_always_detected_and_naively_wrong():
    report = run_sim(example_config(channel=ExactErrors(1), trials=1500))
    assert report.corrupted_trials == 1500
    assert report.counts["detected"] == 1500
    assert report.counts["naive_wrong"] == 1500
    assert report.counts["missed_wrong"] == 0
    assert report.counts["missed_right"] == 0


def test_zero_exact_errors_behaves_like_a_clean_channel():
    report = run_sim(example_config(channel=ExactErrors(0), trials=120))
    assert report.counts["clean_correct"] == 120


def test_two_error_misses_are_always_wrong_and_near_one_twelfth():
    report = run_sim(example_config(channel=ExactErrors(2), trials=6000))
    assert report.counts["missed_right"] == 0
    missed = report.counts["missed_wrong"] / report.trials
    assert abs(missed - 1 / 12) < 0.02             # coarse check; exact rate
    assert report.counts["detected"] + report.counts["missed_wrong"] == 6000


def test_report_is_deterministic_and_worker_independent():
    cfg = example_config(channel=Bernoulli(0.08), trials=5000, seed=123)
    first = run_sim(cfg).to_json()
    again = run_sim(cfg).to_json()
    parallel = run_sim(cfg, workers=3).to_json()
    assert first == again == parallel


def test_different_seeds_change_outcomes():
    cfg_a = example_config(channel=Bernoulli(0.2), trials=2000, seed=1)
    cfg_b = example_config(channel=Bernoulli(0.2), trials=2000, seed=2)
    assert run_sim(cfg_a).to_json() != run_sim(cfg_b).to_json()


def test_uniform_random_targets_cover_coordinates():
    cfg = example_config(trials=600, target_policy="uniform-random")
    targets = {rec.target for rec in trial_records(cfg)}
    assert targets == set(range(12))


def test_detection_never_miscorrects_where_plain_recovery_does_on_single_errors():
    # the t = 0 plans read the first r - 1 = 2 of the t = 1 plans' helpers,
    # so the two policies share those slots' corruption draws
    bundle = descriptor.build_code(EXAMPLE_DESC)
    for target in range(12):
        assert (localrepair.plan_for(bundle, target, 0).helpers
                == localrepair.plan_for(bundle, target, 1).helpers[:2])
    base = dict(trials=3000, seed=31, channel=Bernoulli(0.15))
    with_detection = example_config(t=1, **base)
    without = example_config(t=0, **base)
    paired = zip(trial_records(with_detection), trial_records(without))
    single_error_trials = 0
    for det_rec, naive_rec in paired:
        assert naive_rec.corrupted == tuple(j for j in det_rec.corrupted if j < 2)
        assert det_rec.truth == naive_rec.truth
        if len(det_rec.corrupted) == 1:
            assert det_rec.outcome.detected
        if len(naive_rec.corrupted) == 1:
            assert naive_rec.outcome.value is not None
            assert naive_rec.outcome.value != naive_rec.truth
            single_error_trials += det_rec.corrupted == naive_rec.corrupted
        if (det_rec.corrupted and not det_rec.outcome.detected
                and det_rec.outcome.value != det_rec.truth):
            # a wrong value can only slip through past-capacity corruption
            assert len(det_rec.corrupted) >= 2
    assert single_error_trials > 100


def test_compare_policies_defaults_to_a_single_wrapped_run():
    cfg = example_config(trials=60, channel=Bernoulli(0.1))
    rows = compare_policies(cfg)
    assert len(rows) == 1
    assert rows[0]["policy"] == "default"
    assert rows[0]["report"].to_json() == run_sim(cfg).to_json()


def test_compare_policies_shares_the_fault_stream_and_emits_csv():
    cfg = example_config(trials=400, seed=5)
    rows = compare_policies(
        cfg, policies=[{"name": "t0", "t": 0}, {"name": "t1", "t": 1}],
        sweep=[{"kind": "exact", "errors": 1}])
    assert [row["policy"] for row in rows] == ["t0", "t1"]
    t0, t1 = rows[0]["report"], rows[1]["report"]
    assert t0.counts["missed_wrong"] == 400        # no detection rows at all
    assert t1.counts["detected"] == 400
    csv = sweep_csv(rows)
    lines = csv.strip().split("\n")
    assert lines[0].startswith(
        "policy,epsilon_or_e,trials,clean_correct,naive_wrong,detected,"
        "missed_wrong,missed_right,rate_clean_correct")
    assert len(lines) == 3
    assert lines[1].split(",")[0] == "t0"
    assert lines[1].split(",")[1] == "1"


def test_compare_policies_checks_every_entry_before_the_first_run(monkeypatch):
    runs = []
    monkeypatch.setattr(storagesim, "run_sim",
                        lambda cfg, workers=1: runs.append(cfg))
    cfg = example_config(trials=20)
    with pytest.raises(ValueError, match=r"policies\[1\]\.trials"):
        compare_policies(cfg, policies=[{"name": "a"}, {"name": "b", "trials": "5"}])
    with pytest.raises(ValueError, match=r"sweep\[1\]: missing field 'epsilon'"):
        compare_policies(cfg, sweep=[{"kind": "exact", "errors": 1},
                                     {"kind": "bernoulli"}])
    # a policy may override t, trials and target_policy, and nothing else:
    # its seed would be ignored and it would run on the base seed
    with pytest.raises(ValueError, match=r"^policies\[1\]: unknown field "
                                         r"'seed', 'channel'$"):
        compare_policies(cfg, policies=[{"name": "a"}, {"name": "b", "seed": 5,
                                                        "channel": "exact"}])
    assert runs == []


def test_plans_unavailable_when_the_code_is_too_short():
    desc = {"field": {"p": 13, "m": 1}, "construction": "rs",
            "points": [0, 1, 2, 3], "k": 3}
    cfg = ClusterConfig(code=desc, t=1, channel=Bernoulli(0.0), trials=10, seed=0)
    with pytest.raises(PlanUnavailableError):
        run_sim(cfg)


def test_plans_unavailable_for_the_identity_code():
    desc = {"field": {"p": 13, "m": 1}, "construction": "generator",
            "rows": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}
    cfg = ClusterConfig(code=desc, t=0, channel=Bernoulli(0.0), trials=10, seed=0)
    with pytest.raises(PlanUnavailableError):
        run_sim(cfg)


def test_the_zero_code_is_not_simulated():
    desc = {"field": {"p": 13, "m": 1}, "construction": "generator",
            "rows": [[0, 0, 0], [0, 0, 0]]}
    cfg = ClusterConfig(code=desc, t=0, channel=Bernoulli(0.0), trials=10, seed=0)
    with pytest.raises(PlanUnavailableError, match="zero code"):
        run_sim(cfg)


def test_generator_codes_simulate_through_generic_plans():
    spec_desc = {"field": {"p": 13, "m": 1}, "construction": "generator",
                 "rows": [[1, 0, 1, 1, 1], [0, 1, 1, 2, 3]]}
    cfg = ClusterConfig(code=spec_desc, t=1, channel=ExactErrors(1),
                        trials=300, seed=11)
    report = run_sim(cfg)
    assert report.counts["missed_wrong"] == 0
    assert report.counts["detected"] + report.counts["missed_right"] == 300


def test_rs_codes_simulate_with_detection():
    desc = {"field": {"p": 13, "m": 1}, "construction": "rs",
            "points": "all", "k": 5}
    cfg = ClusterConfig(code=desc, t=1, channel=ExactErrors(1),
                        trials=400, seed=3)
    report = run_sim(cfg)
    assert report.counts["detected"] == 400


def test_bernoulli_one_corrupts_every_helper():
    cfg = example_config(channel=Bernoulli(1.0), trials=300)
    assert all(rec.corrupted == (0, 1, 2) for rec in trial_records(cfg))
    report = run_sim(cfg)
    assert report.corrupted_trials == 300
    assert report.counts["clean_correct"] == 0


def test_more_exact_errors_than_helpers_fail_before_any_trial(monkeypatch):
    def no_trials(*args):
        raise AssertionError("a trial ran")
    monkeypatch.setattr(storagesim, "_run_slice", no_trials)
    cfg = example_config(channel=ExactErrors(4), trials=50)
    with pytest.raises(ValueError, match="injects 4 errors but only 3 helpers"):
        run_sim(cfg)
    with pytest.raises(ValueError, match="injects 4 errors but only 3 helpers"):
        next(trial_records(cfg))


def test_campaigns_of_a_sweep_share_one_code_build(monkeypatch):
    builds = []
    real_build = descriptor.build_code

    def counting_build(desc):
        builds.append(desc)
        return real_build(desc)
    monkeypatch.setattr(storagesim, "_plan_cache", localrepair.PlanCache())
    monkeypatch.setattr(descriptor, "build_code", counting_build)
    desc = {"field": {"p": 11}, "construction": "rs",
            "points": [0, 1, 2, 3, 4, 5, 6, 7, 8], "k": 3}
    cfg = ClusterConfig(code=desc, t=1, channel=Bernoulli(0.1), trials=64, seed=3)
    compare_policies(cfg, policies=[{"name": "t0", "t": 0}, {"name": "t1", "t": 1}],
                     sweep=[{"kind": "exact", "errors": 1},
                            {"kind": "bernoulli", "epsilon": 0.2}])
    run_sim(cfg)
    assert len(builds) == 1


def _counted_builds(monkeypatch) -> list:
    """Serve campaigns from a fresh cache; the list collects the descriptor
    of every code build."""
    builds = []
    real_build = descriptor.build_code

    def counting_build(desc):
        builds.append(desc)
        return real_build(desc)
    monkeypatch.setattr(storagesim, "_plan_cache", localrepair.PlanCache())
    monkeypatch.setattr(descriptor, "build_code", counting_build)
    return builds


def _campaign(desc, t=1):
    return run_sim(ClusterConfig(code=desc, t=t, channel=ExactErrors(1),
                                 trials=30, seed=2)).to_json()


def test_descriptors_of_one_digest_share_one_bundle(monkeypatch):
    builds = _counted_builds(monkeypatch)
    desc = {"field": {"p": 13}, "construction": "rs", "points": "all", "k": 4}
    report = _campaign(desc)
    assert _campaign({"field": {"p": 13, "m": 1}, "construction": "rs",
                      "points": "all", "k": 4}) == report
    # one bundle, the arrays and 13 plans; build_code builds on every call
    assert len(builds) == 1 and len(storagesim._plan_cache) == 1 + 1 + 13
    assert descriptor.build_code(desc) is not descriptor.build_code(desc)


@pytest.mark.parametrize("first", ["list", "tuple"])
def test_a_bundle_does_not_depend_on_earlier_campaigns(monkeypatch, first):
    # a tuple is JSON's list, so both spellings share one bundle whichever
    # is built first; values JSON cannot write fail as descriptor errors
    builds = _counted_builds(monkeypatch)
    spelled = {"list": [0, 1, 2, 3], "tuple": (0, 1, 2, 3)}
    order = [first, ({"list", "tuple"} - {first}).pop()]
    reports = [_campaign({"field": {"p": 13}, "construction": "rs",
                          "points": spelled[name], "k": 2}) for name in order]
    assert reports[0] == reports[1]
    assert [desc["points"] for desc in builds] == [[0, 1, 2, 3]]
    cached = len(storagesim._plan_cache)
    for bad in ({"field": {"p": 13}, "construction": "rs",
                 "points": [0, 1, 2, 3], "k": np.int64(2)},
                {"field": {"p": 13}, "construction": "rs",
                 "points": range(4), "k": 2}):
        with pytest.raises(descriptor.DescriptorError, match="not a JSON document"):
            _campaign(bad)
        with pytest.raises(descriptor.DescriptorError, match="not a JSON document"):
            descriptor.descriptor_digest(bad)
    assert len(builds) == 1 and len(storagesim._plan_cache) == cached


def test_a_failed_build_raises_every_time_and_caches_nothing(monkeypatch):
    builds = _counted_builds(monkeypatch)
    bad = {"field": {"p": 13}, "construction": "rs", "points": "all", "k": 14}
    messages = []
    for _ in range(2):
        with pytest.raises(descriptor.DescriptorError) as err:
            _campaign(bad)
        messages.append(str(err.value))
    assert messages == ["rs: k must lie in [1, 13], got 14"] * 2
    assert len(builds) == 2 and len(storagesim._plan_cache) == 0


def test_editing_the_callers_descriptor_changes_no_later_report(monkeypatch):
    builds = _counted_builds(monkeypatch)
    desc = {"field": {"p": 13}, "construction": "rs",
            "points": [0, 1, 2, 3], "k": 2}
    original = json.loads(json.dumps(desc))
    report = _campaign(desc)
    desc["field"]["p"] = 11
    desc["points"].append(4)
    desc["k"] = 3
    assert _campaign(original) == report and len(builds) == 1
    assert builds == [original]


LRC16_4_DESC = {"field": {"p": 17}, "construction": "lrcrs",
                "p_poly": [0, 0, 0, 0, 1], "l": [1, 1]}
GENERATOR_12_6 = {"field": {"p": 13}, "construction": "generator", "rows": [
    [1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1], [1, 1, 1, 1, 3, 3, 3, 3, 9, 9, 9, 9],
    [1, 1, 1, 1, 9, 9, 9, 9, 3, 3, 3, 3], [1, 5, 8, 12, 2, 3, 10, 11, 4, 6, 7, 9],
    [1, 5, 8, 12, 6, 9, 4, 7, 10, 2, 11, 3], [1, 5, 8, 12, 5, 1, 12, 8, 12, 5, 8, 1]]}


# [16,4]/GF(17) at t = 2, past its fibres' capacity, and the paper's [12,6]
# code written as a generator code: every coordinate plans by plan_linear
@pytest.mark.parametrize("desc, t", [(LRC16_4_DESC, 2), (GENERATOR_12_6, 1)],
                         ids=["lrc16-4", "generator-12-6"])
def test_build_plans_runs_one_witness_scan_per_code_and_t(monkeypatch, desc, t):
    scans = []
    real_scan = codeops._shared_scan

    def counting_scan(code, t, floor, d):
        scans.append((t, floor, d))
        return real_scan(code, t, floor, d)
    monkeypatch.setattr(codeops, "_shared_scan", counting_scan)
    monkeypatch.setattr(storagesim, "_plan_cache", localrepair.PlanCache())
    bundle = descriptor.build_code(desc)
    plans = storagesim.build_plans(bundle, t)
    assert scans == [(t, t + 1, None)]
    report = codeops.t_locality(bundle.code, t)
    assert [plan.helpers for plan in plans] == [c.witness for c in report.per_coord]
    assert len(plans) == bundle.code.n and len(scans) == 1


# ---------------------------------------------------------------------------
# the error-domain engine: plan proof, no encoding, slicing, pinned reports
# ---------------------------------------------------------------------------

def _mangled_plans(monkeypatch, coord, mangle):
    """Serve bundles and plans from a fresh cache, with coordinate coord's
    plan replaced by mangle(plan)."""
    monkeypatch.setattr(storagesim, "_plan_cache", localrepair.PlanCache())
    real_plan_for = localrepair.plan_for

    def plan_for(bundle, target, t):
        plan = real_plan_for(bundle, target, t)
        return mangle(plan) if target == coord else plan
    monkeypatch.setattr(localrepair, "plan_for", plan_for)

    def no_trials(*args):
        raise AssertionError("a trial ran")
    monkeypatch.setattr(storagesim, "_run_slice", no_trials)


def _bumped(row, field):
    return (field.add(row[0], 1),) + tuple(row[1:])


def test_a_wrong_recovery_row_fails_the_plan_proof(monkeypatch):
    field = Field(13)
    _mangled_plans(monkeypatch, 5, lambda plan: dataclasses.replace(
        plan, recovery_row=_bumped(plan.recovery_row, field)))
    with pytest.raises(RuntimeError, match="recovery row of coordinate 5's"):
        run_sim(example_config(channel=Bernoulli(0.1), trials=50))


def test_a_wrong_detection_row_fails_the_plan_proof(monkeypatch):
    field = Field(13)
    _mangled_plans(monkeypatch, 7, lambda plan: dataclasses.replace(
        plan, check_rows=(_bumped(plan.check_rows[0], field),)))
    with pytest.raises(RuntimeError, match="detection row 0 of coordinate 7's"):
        run_sim(example_config(channel=ExactErrors(1), trials=50))


RS256 = {"field": {"p": 2, "m": 8}, "construction": "rs",
         "points": "all", "k": 16}
RS40_GF243 = {"field": {"p": 3, "m": 5}, "construction": "rs",
              "points": list(range(40)), "k": 7}
GENERATOR_GF5 = {"field": {"p": 5}, "construction": "generator",
                 "rows": [[1, 0, 0, 1, 1, 2, 3, 1], [0, 1, 0, 1, 2, 4, 1, 3],
                          [0, 0, 1, 1, 3, 3, 4, 2]]}
# plans of 3 and 4 helpers, so the engine pads the narrower ones
PADDED_GENERATOR = {"field": {"p": 13}, "construction": "generator",
                    "rows": [[1, 0, 0, 1, 1, 1, 2], [0, 1, 0, 1, 2, 0, 1],
                             [0, 0, 1, 0, 0, 1, 1]]}


def test_run_sim_encodes_nothing(monkeypatch):
    def no_encoding(*args):
        raise AssertionError("run_sim encoded a word")
    monkeypatch.setattr(Field, "encoding", no_encoding)
    monkeypatch.setattr(Field, "encode_word", no_encoding)
    for desc, channel in ((EXAMPLE_DESC, Bernoulli(0.2)), (RS256, ExactErrors(2))):
        report = run_sim(ClusterConfig(code=desc, t=1, channel=channel,
                                       trials=300, seed=4))
        assert report.corrupted_trials > 0


@pytest.mark.parametrize("channel", [Bernoulli(0.15), ExactErrors(2)],
                         ids=["bernoulli", "exact2"])
@pytest.mark.parametrize("policy", ["round-robin", "uniform-random"])
def test_reports_do_not_depend_on_the_slice_size(monkeypatch, channel, policy):
    configs = [ClusterConfig(code=code, t=1, channel=channel, trials=2100,
                             seed=17, target_policy=policy)
               for code in (EXAMPLE_DESC, PADDED_GENERATOR)]
    reports = set()
    # the last pair cuts slices by gathered coefficients: 10 and 8 trials
    # for Bernoulli (every slot), 16 for exact-2 (two slots).  The cached
    # tables are as long as a slice, so each size builds its own.
    for size, entries in ((1, 1 << 15), (7, 1 << 15), (512, 1 << 15),
                          (2048, 1 << 15), (2048, 64)):
        monkeypatch.setattr(storagesim, "_CHUNK_TRIALS", size)
        monkeypatch.setattr(storagesim, "_SLICE_ENTRIES", entries)
        monkeypatch.setattr(storagesim, "_plan_cache", localrepair.PlanCache())
        reports.add(tuple(run_sim(cfg).to_json() for cfg in configs))
    assert len(reports) == 1


@pytest.mark.parametrize("channel", [Bernoulli(0.15), ExactErrors(2)],
                         ids=["bernoulli", "exact2"])
@pytest.mark.parametrize("policy", ["round-robin", "uniform-random"])
def test_arrays_built_for_short_slices_serve_a_longer_chunk_setting(
        monkeypatch, channel, policy):
    # the tables cached per (code, t) are as long as _CHUNK_TRIALS was when
    # they were built: campaigns run after it grows cut their slices to the
    # tables and write the bytes of a fresh cache
    configs = [ClusterConfig(code=code, t=1, channel=channel, trials=2100,
                             seed=17, target_policy=policy)
               for code in (EXAMPLE_DESC, PADDED_GENERATOR)]
    monkeypatch.setattr(storagesim, "_plan_cache", localrepair.PlanCache())
    monkeypatch.setattr(storagesim, "_CHUNK_TRIALS", 7)
    for cfg in configs:
        run_sim(dataclasses.replace(cfg, trials=10))
    monkeypatch.setattr(storagesim, "_CHUNK_TRIALS", 2048)
    reused = [run_sim(cfg).to_json() for cfg in configs]
    monkeypatch.setattr(storagesim, "_plan_cache", localrepair.PlanCache())
    assert reused == [run_sim(cfg).to_json() for cfg in configs]


# SHA-256 of run_sim(...).to_json() under rng splitmix64-counter/2.  The
# Bernoulli reports equal those of /1 apart from the rng id; the exact-e
# ones draw their e slots without replacement, so their counts differ.
PINNED_REPORTS = [
    (EXAMPLE_DESC, 1, Bernoulli(0.1), 5000, 11, "round-robin",
     "32eba94bb5e5d2f1929642a0c8dfe553eeadfe278453ab5420e04d40f1a7e2fb"),
    (EXAMPLE_DESC, 0, ExactErrors(2), 3000, -3, "uniform-random",
     "10148e30446d0d35d757af9542f7e2d4db9f954c631313a49d652ed6db823eff"),
    (RS256, 1, ExactErrors(2), 3000, 3, "uniform-random",
     "c0482073c1bb8e93db0ab7337d8b63b2dbca03d6dd6dd4797398ba518d0e56dc"),
    (RS40_GF243, 2, Bernoulli(0.2), 3000, 9, "round-robin",
     "fab56c3e8b3b808d5298cc841194cd327c8f01be6394b40b84b125e2b4baaf72"),
    (RS40_GF243, 2, ExactErrors(3), 2500, 10, "uniform-random",
     "f5d4e1d44d15ece313aab3bfca22d5d3b68ece5342ca3f1390e66ff45af1f749"),
    (GENERATOR_GF5, 1, Bernoulli(0.25), 4000, -7, "uniform-random",
     "6fc554b5e95c018a452c1977393dad48762c4d0a76ad524d3a02a5e26bcd144f"),
]


@pytest.mark.parametrize(
    "desc,t,channel,trials,seed,policy,digest", PINNED_REPORTS,
    ids=["fibre-bernoulli", "fibre-t0-exact2", "rs256-exact2",
         "rs40-gf243-t2-bernoulli", "rs40-gf243-t2-exact3", "generator-gf5"])
def test_seeded_reports_match_their_pinned_digests(desc, t, channel, trials,
                                                   seed, policy, digest):
    report = run_sim(ClusterConfig(code=desc, t=t, channel=channel, trials=trials,
                                   seed=seed, target_policy=policy))
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == digest


# No helper and every helper of the narrowest plan corrupted, at t = 1 with
# uniform targets, seed 5 and 3000 trials, under rng splitmix64-counter/2.
# Only padded-generator-exact3 differs from /1 beyond the rng id: its 4-helper
# plans leave a choice of 3 slots, which /1 made by the smallest per-slot keys.
EDGE_PINNED_REPORTS = [
    (RS256, ExactErrors(0),
     "3cf55b7c0f6300d8a37af4cc651adb7bc92c5949662ecabb3d3227eba98f9661"),
    (RS256, ExactErrors(17),
     "69687b1c0883dee687c4ad08a1890dae8af0bc782f8ba560a91c379b89176ea8"),
    (EXAMPLE_DESC, ExactErrors(0),
     "71a19b0cb0c32e4ed3c2555ce4cdb3605bc2ad0668ff4a45c4441417f6220a3f"),
    (EXAMPLE_DESC, ExactErrors(3),
     "b5dcb7add918705ddf8d633dcfacc39fcf584ec0b6268a0d29c4447ea4cd2b56"),
    (PADDED_GENERATOR, ExactErrors(0),
     "1f1e33aa6c82eeab9a6c47443172f5a427ad218ad513370eb5703aafbdc230e1"),
    (PADDED_GENERATOR, ExactErrors(3),
     "250adaa0f861f559c9433d12b903c35c8c9b532d6bd237cf12e5ce0d65ede35c"),
]


@pytest.mark.parametrize(
    "desc,channel,digest", EDGE_PINNED_REPORTS,
    ids=["rs256-exact0", "rs256-exact17", "fibre-exact0", "fibre-exact3",
         "padded-generator-exact0", "padded-generator-exact3"])
def test_edge_channel_reports_match_their_pinned_digests(desc, channel, digest):
    report = run_sim(ClusterConfig(code=desc, t=1, channel=channel, trials=3000,
                                   seed=5, target_policy="uniform-random"))
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == digest
    counts = report.counts
    if channel.errors == 0:
        assert counts["clean_correct"] == report.trials
    else:
        assert report.corrupted_trials == report.trials


# 0.999 quantiles of chi-square with C(r, 2) - 1 degrees of freedom
CHI2_999 = {3: 13.816, 4: 20.515}


def test_exact_error_slots_are_uniform_pairs_of_live_helpers():
    # PADDED_GENERATOR has plans of 3 and 4 helpers: every pair of a plan's
    # slots is equally likely and no padding slot is ever corrupted
    config = ClusterConfig(code=PADDED_GENERATOR, t=1, channel=ExactErrors(2),
                           trials=14000, seed=2018)
    bundle = descriptor.build_code(PADDED_GENERATOR)
    r = [len(localrepair.plan_for(bundle, c, 1).helpers)
         for c in range(bundle.code.n)]
    pairs = {3: {}, 4: {}}
    for rec in trial_records(config):
        width = r[rec.target]
        assert len(rec.corrupted) == 2 and max(rec.corrupted) < width, rec
        pairs[width][rec.corrupted] = pairs[width].get(rec.corrupted, 0) + 1
    for width, counts in pairs.items():
        assert len(counts) == width * (width - 1) // 2, (width, counts)
        observed = np.array(list(counts.values()))
        expected = observed.sum() / len(observed)
        chi2 = float(((observed - expected) ** 2 / expected).sum())
        assert chi2 < CHI2_999[width], (width, counts)


def test_report_declares_its_rng_and_schema():
    doc = json.loads(run_sim(example_config(trials=10)).to_json())
    assert doc["schema_version"] == 2
    assert doc["rng"] == RNG


def test_config_validation():
    with pytest.raises(ValueError):
        Bernoulli(1.5)
    with pytest.raises(ValueError):
        ExactErrors(-1)
    with pytest.raises(ValueError):
        example_config(trials=0)
    with pytest.raises(ValueError):
        example_config(target_policy="everywhere")
    # one error value model exists: the report writes it, and a config
    # may name it but no other
    base = {"code": EXAMPLE_DESC, "channel": {"kind": "exact", "errors": 1},
            "trials": 10, "seed": 7}
    for model in ("uniform-nonzero", None):
        obj = base if model is None else {**base, "error_value_model": model}
        report = run_sim(storagesim.config_from_dict(obj))
        assert report.config["error_value_model"] == "uniform-nonzero"
    with pytest.raises(ValueError, match=r"^config\.error_value_model: "
                                         "unsupported model 'burst'$"):
        storagesim.config_from_dict({**base, "error_value_model": "burst"})


@pytest.mark.parametrize("code", ["x", [EXAMPLE_DESC], None],
                         ids=["str", "list", "none"])
def test_cluster_config_refuses_a_code_that_is_not_a_json_object(code):
    # refused where it enters, naming the field, not when a campaign runs
    with pytest.raises(ValueError, match="^code must be a JSON object, got "):
        example_config(code=code)


@pytest.mark.parametrize("channel", ["bernoulli", {"kind": "exact", "errors": 1},
                                     None], ids=["str", "dict", "none"])
def test_cluster_config_refuses_a_channel_of_another_type(channel):
    # a channel that is not a Bernoulli or an ExactErrors fails where it
    # enters, naming the field, not with an AttributeError inside run_sim
    with pytest.raises(ValueError, match="^channel must be a Bernoulli or an "
                                         "ExactErrors, got "):
        example_config(channel=channel)


@pytest.mark.parametrize("whole", [0, 1])
def test_an_integer_epsilon_writes_the_bytes_of_its_float(whole):
    # Bernoulli keeps epsilon as a float, so equal channels give equal
    # reports and tables, as the JSON config path always did
    configs = [example_config(channel=Bernoulli(eps), trials=300, seed=4)
               for eps in (whole, float(whole))]
    assert configs[0] == configs[1]
    reports = [run_sim(cfg).to_json() for cfg in configs]
    tables = [sweep_csv(compare_policies(cfg)) for cfg in configs]
    assert reports[0] == reports[1] and tables[0] == tables[1]
    assert f'"epsilon": {float(whole)}' in reports[0]


@pytest.mark.parametrize("start, stop, message", [
    (-3, 2, "start must lie in [0, 100], got -3"),
    (101, None, "start must lie in [0, 100], got 101"),
    (5, 4, "stop must lie in [5, 100], got 4"),
    (0, 101, "stop must lie in [0, 100], got 101"),
    (1.0, 5, "start must be an integer, got 1.0"),
    (0, True, "stop must be an integer, got True"),
], ids=["negative-start", "start-past-trials", "stop-before-start",
        "stop-past-trials", "float-start", "bool-stop"])
def test_trial_records_refuses_a_range_outside_the_campaign(start, stop, message):
    cfg = example_config(channel=Bernoulli(0.1))        # 100 trials
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        next(trial_records(cfg, start, stop))
    assert list(trial_records(cfg, 100, 100)) == []
    assert [rec.trial for rec in trial_records(cfg, 98)] == [98, 99]


@pytest.mark.parametrize("overrides, message", [
    ({"t": True}, "t must be an integer, got True"),
    ({"t": 1.0}, "t must be an integer, got 1.0"),
    ({"t": -1}, "t must be nonnegative, got -1"),
    ({"trials": 2.5}, "trials must be an integer, got 2.5"),
    ({"trials": True}, "trials must be an integer, got True"),
    ({"seed": 7.0}, "seed must be an integer, got 7.0"),
    ({"seed": None}, "seed must be an integer, got None"),
], ids=["bool-t", "float-t", "negative-t", "float-trials", "bool-trials",
        "float-seed", "no-seed"])
def test_cluster_config_refuses_malformed_integers(overrides, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        example_config(**overrides)
    assert example_config(t=0, trials=1, seed=-3).trials == 1


@pytest.mark.parametrize("errors", [1.5, True, False, "2", None], ids=repr)
def test_exact_errors_refuses_a_count_that_is_not_an_integer(errors):
    with pytest.raises(ValueError, match=f"^errors must be an integer, got "
                                         f"{re.escape(repr(errors))}$"):
        ExactErrors(errors)
    assert ExactErrors(0).to_dict() == {"kind": "exact", "errors": 0}


@pytest.mark.parametrize("epsilon", ["x", None, True, float("nan"), -0.1],
                         ids=repr)
def test_bernoulli_refuses_an_epsilon_outside_the_unit_interval(epsilon):
    with pytest.raises(ValueError, match=r"^epsilon must lie in \[0, 1\], got "):
        Bernoulli(epsilon)
    assert Bernoulli(1).to_dict() == {"kind": "bernoulli", "epsilon": 1}


def test_wilson_interval_basics():
    lo, hi = wilson_interval(50, 100)
    assert 0.4 < lo < 0.5 < hi < 0.6
    assert wilson_interval(0, 100)[0] == 0.0
    assert wilson_interval(100, 100)[1] == 1.0
    assert wilson_interval(0, 0) == (0.0, 1.0)
