"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
and enforcing its stated tolerance and time budget (run with -s to see the
lines as they complete)."""

import itertools
import math
import random
import time

from loceret import cli, codeops, rscodes
from loceret.codeops import (check_bounds, code_from_rows, dual, ghw,
                             min_distance, puncture, shorten, t_locality)
from loceret.galois import CountingField, Field
from loceret.localrepair import (detect, mult_count, plan_lrcrs, plan_rs,
                                 recover, recovery_weight, repair)
from loceret.storagesim import Bernoulli, ClusterConfig, ExactErrors, run_sim

F13 = Field(13)
MC_SEED = 2          # fixed seed for every Monte Carlo criterion

EXAMPLE_DESC = {"field": {"p": 13, "m": 1}, "construction": "lrcrs",
              "p_poly": [0, 0, 0, 0, 1], "l": [2, 2]}


class criterion:
    """Times a criterion body and prints exactly one PASS/FAIL line."""

    def __init__(self, number, name, budget=None):
        self.number = number
        self.name = name
        self.budget = budget

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.t0
        in_budget = self.budget is None or elapsed <= self.budget
        ok = exc_type is None and in_budget
        print(f"ACCEPTANCE {self.number:>2} {self.name}: "
              f"{'PASS' if ok else 'FAIL'} ({elapsed:.1f}s)")
        if exc_type is None and not in_budget:
            raise AssertionError(
                f"criterion {self.number} took {elapsed:.1f}s, "
                f"budget is {self.budget}s")
        return False


def example_spec():
    return rscodes.lrcrs_make(F13, [0, 0, 0, 0, 1], [2, 2])


_corpus_cache = None


def lemma_corpus():
    """200 random codes (n <= 8, k <= 4, q in {2, 3, 5, 13}) with one random
    nonempty coordinate set each; shared by criteria 4 and 5."""
    global _corpus_cache
    if _corpus_cache is None:
        rng = random.Random(5151)
        fields = [Field(2), Field(3), Field(5), Field(13)]
        out = []
        while len(out) < 200:
            field = rng.choice(fields)
            n = rng.randrange(3, 9)
            rows = [[rng.randrange(field.q) for _ in range(n)]
                    for _ in range(rng.randrange(1, 5))]
            code = code_from_rows(field, rows, n)
            if code.k == 0:
                continue
            S = tuple(sorted(rng.sample(range(n), rng.randrange(1, n + 1))))
            out.append((code, S))
        _corpus_cache = out
    return _corpus_cache


def test_c01_worked_example_reproduction():
    with criterion(1, "paper-example reproduction", budget=1.0):
        checks = cli.worked_example_checks()
        assert len(checks) == 8
        failures = [c for c in checks if not c["ok"]]
        assert not failures, failures
        by_name = {c["name"]: c for c in checks}
        assert by_name["fibres"]["got"] == [[1, [1, 5, 8, 12]],
                                            [3, [2, 3, 10, 11]],
                                            [9, [4, 6, 7, 9]]]
        assert by_name["n"]["got"] == 12
        assert by_name["k"]["got"] == 6
        assert by_name["detection_row"]["got"] == [8, 12, 6]
        assert by_name["recovery_word"]["got"] == [3, 2, 11, 10]
        assert by_name["detect_clean"]["got"] == "clean"
        assert by_name["recovered_value"]["got"] == 2
        assert by_name["detect_corrupted"]["got"] == "corrupted"
        assert cli.main(["paper-example"]) == 0


def test_c02_rs_localities_and_bound_equalities():
    with criterion(2, "RS localities exact", budget=60.0):
        for n, k in ((8, 3), (10, 4), (13, 5)):
            spec = rscodes.rs_make(F13, range(n), k)
            r0 = t_locality(spec.code, 0).r_t
            r1 = t_locality(spec.code, 1).r_t
            assert r0 == k, (n, k, r0)
            assert r1 == k + 1, (n, k, r1)
            d = min_distance(spec.code)
            assert d == n - k + 1
            bounds = check_bounds(n, k, d, t=1, r_t=r1)
            assert bounds.t_optimal, (n, k)
            d2 = ghw(dual(spec.code), 2)
            assert r1 == d2 - 1, (n, k, r1, d2)


def test_c03_lrcrs_paper_code_optimality():
    with criterion(3, "LRC-RS optimality exact", budget=300.0):
        spec = example_spec()
        d = min_distance(spec.code)
        assert d == 3
        r1 = t_locality(spec.code, 1).r_t
        assert r1 == 3
        bounds = check_bounds(spec.n, spec.k, d, t=1, r_t=r1)
        assert bounds.statuses["locality_singleton"].lhs == 15
        assert bounds.statuses["locality_singleton"].rhs == 15
        assert bounds.t_optimal


def test_c04_dual_puncture_shorten_identity():
    from test_codeops import oracle_shorten
    with criterion(4, "dual/puncture/shorten identity", budget=60.0):
        mismatches = 0
        for code, S in lemma_corpus():
            expected = oracle_shorten(dual(code), S)
            if not dual(puncture(code, S)) == shorten(dual(code), S) == expected:
                mismatches += 1
        assert mismatches == 0


def test_c05_distance_dimension_equivalence():
    with criterion(5, "distance/dimension equivalence", budget=120.0):
        for code, _ in lemma_corpus():
            d = min_distance(code)
            n, k = code.n, code.k
            dims_full = {}
            for size in range(1, n + 1):
                dims_full[size] = all(
                    codeops._rank_cols(code, S) == k
                    for S in itertools.combinations(range(n), size))
            for d0 in range(1, n + 1):
                rank_side = all(dims_full[size]
                                for size in range(n - d0 + 1, n + 1))
                assert (d >= d0) == rank_side, (code, d, d0)


def test_c06_single_error_exhaustive_properties():
    with criterion(6, "single-error exhaustive", budget=60.0):
        spec = example_spec()
        plans = [plan_lrcrs(spec, i) for i in range(12)]
        rng = random.Random(MC_SEED)
        detections = wrong_recoveries = total = 0
        for _ in range(50):
            message = [rng.randrange(13) for _ in range(6)]
            word = rscodes.encode(spec, message).symbols
            for target in range(12):
                plan = plans[target]
                clean = [word[c] for c in plan.helpers]
                for pos in range(3):
                    for err in range(1, 13):
                        corrupted = list(clean)
                        corrupted[pos] = F13.add(corrupted[pos], err)
                        total += 1
                        detections += detect(plan, corrupted)
                        wrong_recoveries += (recover(plan, corrupted)
                                             != word[target])
        assert total == 50 * 12 * 3 * 12
        assert detections == total               # detection completeness 100%
        assert wrong_recoveries == total         # naive recovery wrong 100%


def test_c07_two_error_miss_rate():
    with criterion(7, "two-error miss rate", budget=120.0):
        spec = example_spec()
        # exhaustive enumeration over targets, helper pairs and value pairs
        misses = total = 0
        for target in range(12):
            plan = plan_lrcrs(spec, target)
            row = plan.check_rows[0]
            for j1, j2 in itertools.combinations(range(3), 2):
                for e1 in range(1, 13):
                    for e2 in range(1, 13):
                        total += 1
                        s = F13.add(F13.mul(row[j1], e1), F13.mul(row[j2], e2))
                        if s == 0:
                            misses += 1
                            # a missed pair always recovers wrongly
                            values = [0, 0, 0]
                            values[j1], values[j2] = e1, e2
                            outcome = repair(plan, values)
                            assert not outcome.detected
                            assert outcome.value != 0
        assert total == 12 * 3 * 144
        assert misses * 12 == total              # exactly 1/12

        config = ClusterConfig(code=EXAMPLE_DESC, t=1, channel=ExactErrors(2),
                               trials=100_000, seed=MC_SEED)
        report = run_sim(config)
        assert report.counts["missed_right"] == 0
        rate = report.counts["missed_wrong"] / report.trials
        sigma = math.sqrt((1 / 12) * (11 / 12) / report.trials)
        assert abs(rate - 1 / 12) <= 3 * sigma, (rate, 3 * sigma)


def test_c08_channel_sweep_sanity():
    with criterion(8, "channel sweep sanity"):
        for eps in (0.01, 0.05, 0.1):
            config = ClusterConfig(code=EXAMPLE_DESC, t=1,
                                   channel=Bernoulli(eps),
                                   trials=100_000, seed=MC_SEED)
            report = run_sim(config)
            observed = report.counts["naive_wrong"] / report.trials
            expected = 1 - (1 - eps) ** 3
            sigma = math.sqrt(expected * (1 - expected) / report.trials)
            assert abs(observed - expected) <= 3 * sigma, (eps, observed)


def test_c09_multiplication_counts():
    with criterion(9, "multiplication counts"):
        # each weight evaluation costs exactly r field multiplications
        counting = CountingField(F13)
        for support in ((1, 5, 8, 12), (0, 2, 3, 7, 9)):
            r = len(support) - 1
            for alpha in support:
                counting.reset()
                recovery_weight(counting, support, alpha)
                assert counting.mul_count == r
                assert counting.inv_count == 1

        # repair from a stored plan stays within (t+1)*r + t + 2 operations
        fibre_spec = example_spec()
        tally = mult_count(fibre_spec, 0, t=1, helper_values=(6, 9, 0))
        r, t = tally["helpers"], 1
        ops = tally["repair"]["mul"] + tally["repair"]["inv"]
        assert tally["repair"]["mul"] == (t + 1) * r
        assert tally["repair"]["inv"] == 0
        assert ops <= (t + 1) * r + t + 2

        rs = rscodes.rs_make(F13, range(8), 3)
        for t in (0, 1, 2):
            plan = plan_rs(rs, 0, t)
            values = tuple(range(1, len(plan.helpers) + 1))
            tally = mult_count(rs, 0, t=t, helper_values=values)
            r = tally["helpers"]
            ops = tally["repair"]["mul"] + tally["repair"]["inv"]
            assert tally["repair"]["mul"] == (t + 1) * r
            assert ops <= (t + 1) * r + t + 2


def test_c10_simulation_determinism():
    with criterion(10, "simulation determinism"):
        config = ClusterConfig(code=EXAMPLE_DESC, t=1, channel=Bernoulli(0.1),
                               trials=20_000, seed=MC_SEED)
        serial = run_sim(config, workers=1).to_json()
        repeat = run_sim(config, workers=1).to_json()
        parallel = run_sim(config, workers=4).to_json()
        assert serial == repeat
        assert serial == parallel
