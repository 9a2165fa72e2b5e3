"""The four benchmark workloads.

Each workload turns its seed into inputs, sets up (descriptor.build_code,
which builds the field tables, and a recovery plan for every coordinate),
then runs a timed phase and checks every output.  Checks never depend on the
simulator's random stream: they are exact properties (clean trials correct,
single errors detected, reports identical) or 5-sigma bounds on rates that
follow from the code alone.

Every workload also serves degraded reads: a closed-loop caller (one caller,
next request only after the reply) erases one symbol of a stored stripe and
rebuilds it through a PlanCache lookup, a helper gather and
localrepair.repair, with one corrupted helper in a seeded share of requests.
Reads are interleaved with the main operation, so both see the same mix of
machine states over the run.
"""

from __future__ import annotations

import array
import contextlib
import functools
import io
import json
import math
import operator
import os
import random
import time

from loceret import cli, descriptor, localrepair, rscodes, storagesim

T = 1                      # detection capacity of every plan
CORRUPT_SHARE = 1 / 8      # degraded reads that see one corrupted helper
MAX_READS = 150_000        # latency samples kept; the buffer is allocated up front
SIGMAS = 5.0


class WallClock:
    """Plain wall time, for callers without a calibrated clock."""
    now = staticmethod(time.perf_counter)


class Tally:
    """Checked operations: attempted, failed, and what failed first."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def check(self, ok: bool, what: str, ops: int = 1):
        self.attempted += ops
        if not ok:
            self.failed += ops
            if len(self.notes) < 20:
                self.notes.append(what)


class Latencies:
    """Fixed-capacity sample buffer, filled up front so that peak memory does
    not depend on how many reads a run manages."""

    def __init__(self, capacity: int = MAX_READS):
        self.values = array.array("d", [0.0]) * capacity
        self.count = 0

    def add(self, seconds: float):
        if self.count < len(self.values):
            self.values[self.count] = seconds
            self.count += 1

    def sorted(self) -> list:
        return sorted(self.values[:self.count])


def within_sigmas(hits: int, n: int, p: float) -> bool:
    """|hits - n p| within SIGMAS binomial standard deviations."""
    return abs(hits - n * p) <= SIGMAS * math.sqrt(n * p * (1 - p))


def _add(field, a, e):
    return a ^ e if field.p == 2 else (a + e) % field.p


class Setup:
    """What a workload holds after set-up: bundles and per-coordinate plans."""

    def __init__(self, descriptors):
        self.bundles = [descriptor.build_code(d) for d in descriptors]
        self.plans = [storagesim.build_plans(b, T) for b in self.bundles]


class ReadPath:
    """Closed-loop degraded reads against stored stripes of one or more codes."""

    def __init__(self, setup: Setup, clock=WallClock):
        self.setup = setup
        self.clock = clock
        self.cache = localrepair.PlanCache()
        self.builders = []
        for bundle, plans in zip(setup.bundles, setup.plans):
            per_coord = []
            for c in range(bundle.code.n):
                key = (bundle.digest, c, T)
                build = functools.partial(operator.getitem, plans, c)
                self.cache.get_or_build(key, build)
                per_coord.append((key, build))
            self.builders.append(per_coord)

    def request(self, rng, code_idx: int, word):
        """One seeded request: erase a target, maybe corrupt one helper."""
        bundle = self.setup.bundles[code_idx]
        target = rng.randrange(bundle.code.n)
        key, build = self.builders[code_idx][target]
        plan = self.setup.plans[code_idx][target]
        bad, bad_value = -1, 0
        if rng.random() < CORRUPT_SHARE:
            bad = rng.randrange(len(plan.helpers))
            err = rng.randrange(1, bundle.field.q)
            bad_value = _add(bundle.field, word[plan.helpers[bad]], err)
        return word, key, build, target, bad, bad_value

    def read(self, req, tally: Tally, latencies: Latencies | None):
        """Serve and check one request; the timed part is the lookup, the
        gather and the repair.  Returns the outcome."""
        word, key, build, target, bad, bad_value = req
        t0 = self.clock.now()
        plan = self.cache.get_or_build(key, build)
        values = [word[c] for c in plan.helpers]
        if bad >= 0:
            values[bad] = bad_value
        outcome = localrepair.repair(plan, values)
        elapsed = self.clock.now() - t0
        if latencies is not None:
            latencies.add(elapsed)
        if bad >= 0:
            tally.check(outcome.detected, f"corrupted read of {target} not flagged")
        else:
            tally.check(outcome.value == word[target],
                        f"clean read of {target} returned {outcome.value}")
        return outcome


class Workload:
    """Base: seeded inputs, set-up, timed samples, checks.

    The timed phase alternates one sample of the main operation with
    degraded reads that last READ_SHARE of the wall time."""

    name = ""
    op_unit = ""
    headline = ""              # what ops_per_s is called for this workload
    READ_SHARE = 0.2

    def __init__(self, seed: int, clock=WallClock):
        self.seed = seed
        self.rng = random.Random(seed)
        self.clock = clock

    def descriptors(self) -> list:
        raise NotImplementedError

    def setup(self) -> Setup:
        return Setup(self.descriptors())

    def begin(self, setup: Setup):
        """Prepare inputs for the timed phase (untimed)."""

    def sample(self, setup: Setup, tally: Tally, reads: ReadPath,
               latencies: Latencies) -> tuple[int, float]:
        """One timed sample of the main operation: (operations, seconds)."""
        raise NotImplementedError

    def end(self, setup: Setup, tally: Tally):
        """Checks over the whole run (untimed)."""

    def run(self, setup: Setup, seconds: float, tally: Tally,
            trace_main=None, trace_reads=None) -> dict:
        """Timed phase; the optional tracers cover the main operation and
        the interleaved degraded reads separately."""
        reads = ReadPath(setup, self.clock)
        requests = self._read_requests(reads)
        latencies = Latencies()
        rates, ops = [], 0
        self.begin(setup)
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            w0 = time.perf_counter()
            if trace_main is not None:
                trace_main.op_id = len(rates)
            with trace_main or contextlib.nullcontext():
                n, elapsed = self.sample(setup, tally, reads, latencies)
            rates.append(n / elapsed)
            ops += n
            if self.READ_SHARE:
                budget = (time.perf_counter() - w0) * self.READ_SHARE / (1 - self.READ_SHARE)
                with trace_reads or contextlib.nullcontext():
                    self._serve(reads, requests, budget, tally, latencies)
        self.end(setup, tally)
        return {"ops": ops, "rates": rates, "latencies": latencies}

    def _read_requests(self, reads, stripes_per_code=16, per_stripe=64):
        requests = []
        for idx, bundle in enumerate(reads.setup.bundles):
            for _ in range(stripes_per_code):
                msg = [self.rng.randrange(bundle.field.q) for _ in range(bundle.spec.k)]
                word = rscodes.encode(bundle.spec, msg).symbols
                requests += [reads.request(self.rng, idx, word) for _ in range(per_stripe)]
        self.rng.shuffle(requests)
        self._next_request = 0
        return requests

    def _serve(self, reads, requests, seconds, tally, latencies):
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            for _ in range(64):
                req = requests[self._next_request]
                self._next_request = (self._next_request + 1) % len(requests)
                reads.read(req, tally, latencies)

    def extra_checks(self, setup: Setup, tally: Tally, traced=None):
        """Untimed checks after the run, including a re-run of a short prefix
        that must give identical output; with a tracer, the prefix also runs
        traced and (untraced seconds, traced seconds) is returned."""
        raise NotImplementedError

    def _prefix_twice(self, tally, traced, produce, what):
        """Run produce() untraced and traced; the outputs must be identical."""
        t0 = self.clock.now()
        base = produce()
        untraced_s = self.clock.now() - t0
        t0 = self.clock.now()
        with traced:
            again = produce()
        traced_s = self.clock.now() - t0
        tally.check(again == base, f"traced and untraced {what} differ")
        return untraced_s, traced_s


# ---------------------------------------------------------------------------
# Simulation campaigns through storagesim.run_sim
# ---------------------------------------------------------------------------

class SimWorkload(Workload):
    """One sample runs one campaign per channel point."""
    op_unit = "trial"
    headline = "sim_trials_per_s"
    desc: dict = {}
    channels: tuple = ()
    target_policy = "round-robin"
    workers = 1
    batch = 1024               # trials per campaign

    def descriptors(self):
        return [self.desc]

    def config(self, channel, trials, index):
        return storagesim.ClusterConfig(
            code=self.desc, t=T, channel=channel, trials=trials,
            seed=self.seed * 1_000_003 + index, target_policy=self.target_policy)

    def begin(self, setup):
        self._index = 0
        self._totals = {ch: [0, 0, 0] for ch in self.channels}  # trials, corrupted, missed

    def sample(self, setup, tally, reads, latencies):
        t0 = self.clock.now()
        reports = []
        for channel in self.channels:
            reports.append(self._checked_run(self.config(channel, self.batch, self._index),
                                             tally))
            self._index += 1
        elapsed = self.clock.now() - t0
        for channel, report in zip(self.channels, reports):
            if report is not None:
                tot = self._totals[channel]
                tot[0] += report.trials
                tot[1] += report.corrupted_trials
                tot[2] += report.counts["missed_wrong"] + report.counts["missed_right"]
        return self.batch * len(self.channels), elapsed

    def end(self, setup, tally):
        q = setup.bundles[0].field.q
        r = len(setup.plans[0][0].helpers)
        for channel, (n, corrupted, missed) in self._totals.items():
            if isinstance(channel, storagesim.Bernoulli):
                p = 1 - (1 - channel.epsilon) ** r
                tally.check(within_sigmas(corrupted, n, p),
                            f"corrupted share {corrupted}/{n} far from {p:.4f}")
            elif channel.errors == 2:
                # one detection row with nonzero entries misses a uniform
                # nonzero 2-error pattern with probability exactly 1/(q-1)
                tally.check(within_sigmas(missed, n, 1 / (q - 1)),
                            f"exact-2 misses {missed}/{n} far from 1/{q - 1}")

    def _checked_run(self, config, tally):
        """run_sim plus the per-report accounting checks; None on failure."""
        try:
            report = storagesim.run_sim(config, workers=self.workers)
        except RuntimeError:   # a clean trial returned a wrong value
            tally.check(False, "run_sim: clean trial wrong", ops=config.trials)
            return None
        c = report.counts
        exact = isinstance(config.channel, storagesim.ExactErrors) and config.channel.errors
        ok = (c["clean_correct"] + report.corrupted_trials == report.trials
              and c["naive_wrong"] + c["naive_right_under_error"] == report.corrupted_trials
              and c["detected"] + c["missed_wrong"] + c["missed_right"] == report.corrupted_trials
              and (not exact or report.corrupted_trials == report.trials))
        tally.check(ok, f"report accounting broken: {c}", ops=config.trials)
        return report if ok else None

    def extra_checks(self, setup, tally, traced=None):
        # every single-error trial is detected and naive recovery is wrong
        one = self._checked_run(self.config(storagesim.ExactErrors(1), 512, -1), Tally())
        ok = (one is not None and one.counts["detected"] == one.trials
              and one.counts["naive_wrong"] == one.trials)
        tally.check(ok, "an exact-1 trial was not detected", ops=512)

        # two chunks, so that the thread pool runs for workers=2
        config = self.config(self.channels[-1], storagesim._CHUNK_TRIALS + 64, -2)
        base = storagesim.run_sim(config, workers=self.workers).to_json()
        other = 2 if self.workers == 1 else 1
        tally.check(storagesim.run_sim(config, workers=other).to_json() == base,
                    f"workers={self.workers} and workers={other} reports differ")
        if traced is None:
            return None
        return self._prefix_twice(
            tally, traced,
            lambda: storagesim.run_sim(config, workers=self.workers).to_json(),
            "reports")


class SimFibre(SimWorkload):
    """The paper's [12,6] GF(13) fibre code, y = x^4, l = [2,2]."""
    name = "sim-fibre"
    desc = {"field": {"p": 13}, "construction": "lrcrs",
            "p_poly": [0, 0, 0, 0, 1], "l": [2, 2]}
    channels = (storagesim.Bernoulli(0.05), storagesim.ExactErrors(2))


class SimRs256(SimWorkload):
    """RS[256,16] over GF(2^8), exact-2 errors, uniform targets, two workers."""
    name = "sim-rs256"
    desc = {"field": {"p": 2, "m": 8}, "construction": "rs",
            "points": "all", "k": 16}
    channels = (storagesim.ExactErrors(2),)
    target_policy = "uniform-random"
    workers = 2
    # One chunk of storagesim's 4096-trial chunks, so a sample runs on one
    # thread (two interleaved threads track the calibrated clock less well)
    # and the per-campaign build_code stays a few percent of a sample; the
    # 4160-trial determinism prefix runs on both workers.
    batch = 2048


# ---------------------------------------------------------------------------
# Certified analyze reports through cli.main
# ---------------------------------------------------------------------------

class AnalyzeRs(Workload):
    """`loceret analyze --t 1` on RS[14,6]/GF(17) and RS[12,5]/GF(16); one
    operation is the pair.  Evaluation points are a seeded subset in seeded
    order: every RS code is MDS, so the certified results and the amount of
    search are the same for any choice."""
    name = "analyze-rs"
    op_unit = "report pair"
    headline = "analyze_pairs_per_s"
    # (field, field size, n, k, expected d, expected r_1)
    CODES = (({"p": 17}, 17, 14, 6, 9, 7), ({"p": 2, "m": 4}, 16, 12, 5, 8, 6))

    def __init__(self, seed, clock=WallClock):
        super().__init__(seed, clock)
        self.workdir = None        # set by the caller before the timed phase
        self._descs = [
            {"field": field, "construction": "rs",
             "points": self.rng.sample(range(q), n), "k": k}
            for field, q, n, k, _, _ in self.CODES]

    def descriptors(self):
        return self._descs

    def begin(self, setup):
        self._paths = []
        for idx, desc in enumerate(self._descs):
            path = os.path.join(self.workdir, f"code{idx}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(desc, fh)
            self._paths.append(path)
        self._first = [None] * len(self._paths)

    def analyze(self, path):
        """One `loceret analyze` call; returns (exit code, report text)."""
        out = path + ".report"
        with contextlib.redirect_stdout(io.StringIO()):
            status = cli.main(["analyze", path, "--t", str(T), "--out", out])
        with open(out, "r", encoding="utf-8") as fh:
            return status, fh.read()

    def sample(self, setup, tally, reads, latencies):
        t0 = self.clock.now()
        results = [self.analyze(path) for path in self._paths]
        elapsed = self.clock.now() - t0
        for idx, (status, text) in enumerate(results):
            _, _, n, k, d, r = self.CODES[idx]
            doc = json.loads(text)
            ok = (status == 0 and doc["distance"] == {"value": d, "kind": "exact"}
                  and doc["locality"] == r and doc["t_optimal"] is True
                  and doc["exact_search"] is True and doc["code"]["n"] == n
                  and doc["code"]["k"] == k)
            tally.check(ok, f"analyze of code {idx}: status {status}, "
                            f"d {doc['distance']}, r {doc['locality']}")
            if self._first[idx] is None:
                self._first[idx] = text
            else:
                tally.check(text == self._first[idx], "repeated analyze report differs")
        return 1, elapsed

    def extra_checks(self, setup, tally, traced=None):
        if traced is None:
            return None   # repeated reports are compared in sample()
        return self._prefix_twice(tally, traced, lambda: self.analyze(self._paths[0]),
                                  "analyze reports")


# ---------------------------------------------------------------------------
# Write path and degraded reads on the [255,15] GF(2^8) fibre code
# ---------------------------------------------------------------------------

class StoreGf256(Workload):
    """A seeded byte stream goes through ingest and full encode, then every
    stripe serves READS_PER_STRIPE degraded reads, then emit restores the
    bytes.  One operation is one stripe; one sample is one batch, and its
    time covers ingest and encode only."""
    name = "store-gf256"
    op_unit = "stripe"
    headline = "write_stripes_per_s"
    desc = {"field": {"p": 2, "m": 8}, "construction": "lrcrs",
            "p_poly": [0, 0, 0, 0, 0, 1], "l": [4, 4, 4]}
    READ_SHARE = 0             # the reads belong to each batch
    STRIPES_PER_BATCH = 16
    READS_PER_STRIPE = 8
    BATCHES = 64               # distinct input chunks, cycled

    def descriptors(self):
        return [self.desc]

    def begin(self, setup):
        # k bytes per stripe; one byte less so the pad marker completes the batch
        size = setup.bundles[0].spec.k * self.STRIPES_PER_BATCH - 1
        self.user_bytes_per_op = size / self.STRIPES_PER_BATCH
        self._chunks = [self.rng.randbytes(size) for _ in range(self.BATCHES)]
        self._next_chunk = 0

    def store_batch(self, setup, tally, reads, latencies, chunk):
        """Write one chunk, serve its degraded reads, emit it back.
        Returns (write seconds, serialized outputs)."""
        bundle = setup.bundles[0]
        field, spec = bundle.field, bundle.spec
        t0 = self.clock.now()
        messages = storagesim.ingest(chunk, field, spec.k)
        words = [rscodes.encode(spec, m).symbols for m in messages]
        write_s = self.clock.now() - t0
        tally.check(len(words) == self.STRIPES_PER_BATCH, "ingest stripe count",
                    ops=self.STRIPES_PER_BATCH)
        outcomes = [reads.read(reads.request(self.rng, 0, word), tally, latencies).value
                    for word in words for _ in range(self.READS_PER_STRIPE)]
        tally.check(storagesim.emit(messages, field) == chunk, "emit(ingest(x)) != x")
        return write_s, json.dumps([words, outcomes])

    def sample(self, setup, tally, reads, latencies):
        chunk = self._chunks[self._next_chunk]
        self._next_chunk = (self._next_chunk + 1) % len(self._chunks)
        write_s, _ = self.store_batch(setup, tally, reads, latencies, chunk)
        return self.STRIPES_PER_BATCH, write_s

    def extra_checks(self, setup, tally, traced=None):
        if traced is None:
            return None
        state = self.rng.getstate()

        def produce():
            self.rng.setstate(state)
            return self.store_batch(setup, tally, ReadPath(setup), None,
                                    self._chunks[0])[1]
        return self._prefix_twice(tally, traced, produce, "store outputs")


WORKLOADS = {w.name: w for w in (SimFibre, SimRs256, AnalyzeRs, StoreGf256)}
