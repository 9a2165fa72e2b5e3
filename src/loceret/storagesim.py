"""Seeded fault-injection simulator for an erasure-coded storage cluster.

One codeword symbol lives on each node.  A trial erases one target node and
silently corrupts helper symbols per the configured channel, then judges two
repair arms: naive recovery (the fixed linear combination, no checking) and
repair with detection.  The recovery and detection rows are dual codewords,
so on stored helpers c + e they give the true symbol plus recovery . e and
the syndromes check . e, whatever the message: once every plan is proven on
the generator, a trial needs its error pattern e alone and encodes nothing.
Every draw is a pure hash of (seed, trial, draw index), formed only by
_streams and _draws, so reports are bit-identical however trials are
sliced.  Slices of trials run as numpy array operations, one row per helper
slot and one column per trial; an exact-error trial carries only its
corrupted slots, and only trials with a corrupted slot draw error values.
Each slice returns an 8-bin outcome histogram (_tally_range), and run_sim
maps the campaign's sum to report cells once (_outcome_cells).  What does
not depend on the seed is built once per (code, t) in bounded tables that
every slice of every campaign reads by slicing: the trial offsets of the
streams and, for round-robin targets, a periodic run of targets, helper
counts and live slots.

Also hosts the byte ingestion pipeline: a byte stream is cut into m-bit
symbols of GF(2^m) and grouped into k-symbol messages, with reversible
0x80-then-zeros padding, by numpy bit unpacking and packing for every m.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import codeops, descriptor, localrepair
from .galois import _checked_int, _is_int

CSV_CELLS = ("clean_correct", "naive_wrong", "detected",
             "missed_wrong", "missed_right")

# Trials per engine slice, at most.  A slice is also cut so that the plan
# coefficients it may gather, (carried slots x trials x rows), hold
# _SLICE_ENTRIES entries at most.  A hit Bernoulli trial carries every slot
# and an ExactErrors(e) trial its e corrupted ones; the cut counts every
# Bernoulli trial as hit, as at epsilon = 1, so it binds only Bernoulli
# slices of wide plans: Bernoulli trials on RS[40,7]/GF(3^5) at t = 2 ran
# about 50% slower in slices twice as large.  A slice also has a fixed cost
# of a few dozen numpy calls, which larger slices spread over more trials.
_CHUNK_TRIALS = 2048
_SLICE_ENTRIES = 1 << 15
_SCALE = 1 << 64


class UnsupportedFieldError(ValueError):
    """Byte ingestion needs characteristic 2."""


class PlanUnavailableError(ValueError):
    """The code has no usable recovery plan for some coordinate."""


@dataclass(frozen=True)
class Bernoulli:
    """Each helper symbol is independently corrupted with probability epsilon."""
    epsilon: float

    def __post_init__(self):
        eps = self.epsilon
        if (not (_is_int(eps) or isinstance(eps, float))
                or not 0.0 <= eps <= 1.0):
            raise ValueError(f"epsilon must lie in [0, 1], got {eps!r}")
        # a float, so Bernoulli(1) and Bernoulli(1.0) write the same bytes
        object.__setattr__(self, "epsilon", float(eps))

    def to_dict(self):
        return {"kind": "bernoulli", "epsilon": self.epsilon}


@dataclass(frozen=True)
class ExactErrors:
    """Exactly this many helper symbols are corrupted, positions uniform."""
    errors: int

    def __post_init__(self):
        if _checked_int("errors", self.errors) < 0:
            raise ValueError(f"error count must be nonnegative, got {self.errors}")

    def to_dict(self):
        return {"kind": "exact", "errors": self.errors}


def channel_from_dict(obj: dict, where: str = "channel"):
    kind = descriptor._require(obj, "kind", str, where)
    if kind not in ("bernoulli", "exact"):
        raise ValueError(f"{where}.kind: unknown channel kind {kind!r}")
    key = "epsilon" if kind == "bernoulli" else "errors"
    descriptor._refuse_unknown_keys(obj, ("kind", key), where)
    if kind == "bernoulli":
        return Bernoulli(descriptor._require(obj, key, (int, float), where))
    return ExactErrors(descriptor._require(obj, key, int, where))


@dataclass(frozen=True)
class ClusterConfig:
    code: dict                      # code descriptor (see descriptor module)
    t: int
    channel: object                 # Bernoulli or ExactErrors
    trials: int
    seed: int
    target_policy: str = "round-robin"

    def __post_init__(self):
        if not isinstance(self.code, dict):
            raise ValueError(f"code must be a JSON object, got {self.code!r}")
        if _checked_int("trials", self.trials) < 1:
            raise ValueError(f"trials must be positive, got {self.trials}")
        codeops._checked_t(self.t)
        _checked_int("seed", self.seed)
        if not isinstance(self.channel, (Bernoulli, ExactErrors)):
            raise ValueError("channel must be a Bernoulli or an ExactErrors, "
                             f"got {self.channel!r}")
        if self.target_policy not in ("round-robin", "uniform-random"):
            raise ValueError(f"unknown target policy {self.target_policy!r}")

    def to_dict(self, code_digest: str):
        """The report's config record, under the digest of its code."""
        return {"code_digest": code_digest,
                "t": self.t, "channel": self.channel.to_dict(),
                "trials": self.trials, "seed": self.seed,
                "target_policy": self.target_policy,
                "error_value_model": "uniform-nonzero"}


# The keys a simulate config and each of its policies may hold: any other
# key would be read by nothing, so it is refused by name.
_CONFIG_KEYS = ("code", "code_file", "t", "channel", "trials", "seed",
                "target_policy", "error_value_model", "policies", "sweep")
_POLICY_KEYS = ("name", "t", "trials", "target_policy")


def config_from_dict(obj: dict) -> ClusterConfig:
    """A ClusterConfig from its JSON form, rejecting unknown and missing
    fields and values of the wrong type with a ValueError that names the
    field."""
    descriptor._refuse_unknown_keys(obj, _CONFIG_KEYS, "config")
    model = descriptor._require(obj, "error_value_model", str, "config",
                                "uniform-nonzero")
    if model != "uniform-nonzero":
        raise ValueError(f"config.error_value_model: unsupported model {model!r}")
    return ClusterConfig(
        code=descriptor._require(obj, "code", dict, "config"),
        t=descriptor._require(obj, "t", int, "config", 1),
        channel=channel_from_dict(descriptor._require(obj, "channel", dict, "config")),
        trials=descriptor._require(obj, "trials", int, "config"),
        seed=descriptor._require(obj, "seed", int, "config"),
        target_policy=descriptor._require(obj, "target_policy", str, "config",
                                          "round-robin"))


# ---------------------------------------------------------------------------
# Counter-based randomness: every draw is a pure function of (seed, trial,
# index), so any partitioning of the trial range reproduces the same stream.
#
#   stream(seed, trial)      = mix(mix(seed + G) + (trial + 1) G)
#   draw(seed, trial, index) = mix(stream(seed, trial) + (index + 1) G)
#
# all mod 2^64, with mix the SplitMix64 finaliser and G its golden-ratio
# increment, so a trial's draws are the SplitMix64 sequence started at its
# stream value.  One function holds each rule, and the engine, trial_records
# and the tests all call it: _seed_key (the key mix(seed + G) + G, in Python
# ints), _streams (a run of trials from the key, its first trial and a ramp
# of i G), _offsets ((index + 1) G), _draws (stream plus offset, mixed) and
# _below (a draw mod a bound: bias below 2^-43 for the fields in scope).
# Draws 0..k-1 give the message (only trial_records needs it) and draw k
# the uniform target.  For a plan with r helpers, a Bernoulli trial reads
# the corruption key of helper j at draw k+1+j, an ExactErrors(e) trial picks
# its e slots with draws k+1..k+e (_exact_slots), and draw k+1+r+j is the
# error value of helper j.
# ---------------------------------------------------------------------------

RNG = "splitmix64-counter/2"
_GAMMA = 0x9E3779B97F4A7C15
_MUL1, _MUL2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
_G = np.uint64(_GAMMA)
_M1, _M2 = np.uint64(_MUL1), np.uint64(_MUL2)
_S27, _S30, _S31 = np.uint64(27), np.uint64(30), np.uint64(31)


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finaliser on a uint64 array (wrapping arithmetic)."""
    z = z ^ (z >> _S30)              # a new array: the rest is in place
    z *= _M1
    z ^= z >> _S27
    z *= _M2
    z ^= z >> _S31
    return z


def _seed_key(seed: int) -> int:
    """mix(seed + G) + G mod 2^64, in Python ints: stream(seed, trial) is
    the mix of the key plus trial G.  _mix64 on a one-element array gives
    the same key, but its numpy call overhead cost ~7 us a campaign against
    under 1 us here (numpy 2.4.6, 2-vCPU x86-64 VM), which slowed
    1024-trial campaigns on the [12,6] code by 5-10%."""
    z = (seed + _GAMMA) % _SCALE
    z = (z ^ (z >> 30)) * _MUL1 % _SCALE
    z = (z ^ (z >> 27)) * _MUL2 % _SCALE
    key = (z ^ (z >> 31)) + _GAMMA
    return key % _SCALE


def _streams(key: int, start: int, ramp: np.ndarray) -> np.ndarray:
    """stream(seed, trial) of the trials start, start + 1, ...: key is
    _seed_key(seed) and ramp[i] = i G, one entry per trial."""
    return _mix64(ramp + np.uint64((key + start * _GAMMA) % _SCALE))


def _offsets(index) -> np.ndarray:
    """(index + 1) G mod 2^64 for integer draw indices: mixing a stream plus
    the offset of an index gives that draw."""
    return (np.asarray(index, dtype=np.uint64) + np.uint64(1)) * _G


def _draws(streams: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """draw(seed, trial, index) from the trials' streams and the _offsets of
    the draw indices, broadcast against each other."""
    return _mix64(streams + offsets)


def _below(draws: np.ndarray, bound: np.uint64) -> np.ndarray:
    """draws mod bound as int64, by floor division, which numpy runs faster
    than its % by a scalar."""
    return (draws - draws // bound * bound).view(np.int64)


def wilson_interval(successes: int, n: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson 95% score interval for a binomial proportion."""
    if n == 0:
        return (0.0, 1.0)
    phat = successes / n
    denom = 1.0 + z * z / n
    centre = phat + z * z / (2 * n)
    half = z * math.sqrt(phat * (1.0 - phat) / n + z * z / (4 * n * n))
    low = 0.0 if successes == 0 else max(0.0, (centre - half) / denom)
    high = 1.0 if successes == n else min(1.0, (centre + half) / denom)
    return (low, high)


@dataclass
class SimReport:
    """Outcome tallies of one simulation run; to_json() is byte-stable."""
    trials: int
    seed: int
    config: dict
    counts: dict
    corrupted_trials: int

    @property
    def rates(self) -> dict:
        out = {}
        for cell, count in self.counts.items():
            lo, hi = wilson_interval(count, self.trials)
            out[cell] = {"rate": count / self.trials,
                         "ci_low": lo, "ci_high": hi}
        return out

    def to_dict(self) -> dict:
        return {"schema_version": 2, "rng": RNG, "trials": self.trials,
                "seed": self.seed, "config": self.config, "counts": dict(self.counts),
                "corrupted_trials": self.corrupted_trials,
                "rates": self.rates}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


class TrialRecord(NamedTuple):
    trial: int
    target: int
    corrupted: tuple[int, ...]     # helper positions that were corrupted
    truth: int
    naive_value: int
    outcome: localrepair.RepairOutcome


# ---------------------------------------------------------------------------
# Simulation core: a batch engine over slices of trials
# ---------------------------------------------------------------------------

# Memo for everything a campaign reuses of its code, under three keys: the
# bundle (key: the canonical text of the descriptor, which its digest
# hashes), the engine arrays (key (digest, t)) and each coordinate's plan
# (key (digest, coordinate, t)).  Campaigns of a sweep share one build of
# each.
_plan_cache = localrepair.PlanCache()


def build_plans(bundle: descriptor.CodeBundle, t: int) -> list:
    """One plan per coordinate, memoized on (digest, coordinate, t)."""
    plans = []
    for coord in range((bundle.spec or bundle.code).n):
        key = (bundle.digest, coord, t)
        try:
            plans.append(_plan_cache.get_or_build(
                key, lambda c=coord: localrepair.plan_for(bundle, c, t)))
        except ValueError as exc:
            raise PlanUnavailableError(
                f"no detection-capacity-{t} plan for coordinate {coord}: {exc}"
            ) from None
    return plans


class _CodeArrays:
    """Per-(code, t) engine state: the generator columns and every
    coordinate's plan, padded to the widest plan and stored row by row:
    coeffs[i, j, c] holds helper slot j of row i of coordinate c's plan, the
    recovery row first and then the detection rows.  A slice gathers them
    into (rows, slots, trials) and takes its inner products along the slot
    axis, over whole runs of trials rather than many short rows.

    Padding slots of a plan with fewer helpers point at coordinate 0 with
    zero check and recovery coefficients, so they add nothing to any inner
    product, and the channel corrupts only slots below the plan's helper
    count r.  Building proves every plan on the generator, so no plan
    reaches a trial unproven.

    It also holds the read-only tables that every slice of every campaign
    reads instead of computing, each of at most width x (n + _CHUNK_TRIALS)
    entries: ramp[i] = i G, the stream offset of the i-th trial of a slice,
    an all-hit plane for exact channels, and, for round-robin targets,
    _CHUNK_TRIALS + n trials' worth of the periodic targets, helper counts
    r and live-slot masks, so that a slice starting at trial `start` reads
    its entries from start mod n on.
    """

    def __init__(self, bundle: descriptor.CodeBundle, t: int):
        if not (bundle.spec or bundle.code).k:
            raise PlanUnavailableError("cannot simulate the zero code")
        plans = build_plans(bundle, t)
        self.field = bundle.field
        if bundle.spec is not None:
            self.columns = bundle.spec.generator
        else:
            self.columns = np.array(bundle.code.gen, dtype=np.int64).T
        self.n, self.k = self.columns.shape                     # (n, k)
        self.r = np.array([len(plan.helpers) for plan in plans], dtype=np.uint64)
        self.fewest, width = int(self.r.min()), int(self.r.max())
        depth = max(len(plan.check_rows) for plan in plans)
        helpers = np.zeros((self.n, width), dtype=np.int64)
        self.coeffs = np.zeros((1 + depth, width, self.n), dtype=np.int64)
        for coord, plan in enumerate(plans):
            r = len(plan.helpers)
            helpers[coord, :r] = plan.helpers
            self.coeffs[0, :r, coord] = plan.recovery_row
            if plan.check_rows:
                self.coeffs[1:1 + len(plan.check_rows), :r, coord] = plan.check_rows
        self._prove(helpers)
        # uint64 constants of the draws: offsets[i] is the offset of draw
        # index k + i (the uniform target, then channel draw i - 1), and
        # error_offsets[j, c] that of the error value of slot j of
        # coordinate c's plan, draw index k + 1 + r + j.
        self.n64, self.nonzero = np.uint64(self.n), np.uint64(self.field.q - 1)
        self.slots = np.arange(width, dtype=np.uint64)[:, None]
        self.offsets = _offsets(np.arange(self.k, self.k + 1 + width))
        self.error_offsets = _offsets(self.k + 1 + self.r + self.slots)  # (width, n)
        self.ramp = np.arange(_CHUNK_TRIALS, dtype=np.uint64) * _G
        self.all_hit = np.ones(_CHUNK_TRIALS, dtype=bool)
        cycle = np.arange(_CHUNK_TRIALS + self.n) % self.n
        self.cycle_targets, self.cycle_r = cycle, self.r[cycle]
        self.cycle_live = self.slots < self.cycle_r  # (width, _CHUNK_TRIALS + n)
        for table in (self.ramp, self.all_hit, self.cycle_targets,
                      self.cycle_r, self.cycle_live):
            table.flags.writeable = False        # slices hand out views

    def _prove(self, helpers: np.ndarray):
        """Raise unless every recovery row maps the helpers' generator rows
        to the target's and every detection row maps them to zero: then, by
        linearity, every plan recovers every clean codeword and flags none."""
        basis = self.columns[helpers.T]                         # (width, n, k)
        coeffs = self.coeffs.transpose(1, 2, 0)                 # (width, n, 1+depth)
        images = self.field.dot_array(coeffs[:, :, :, None],
                                      basis[:, :, None, :], axis=0)  # (n, 1+depth, k)
        wrong = images != 0
        wrong[:, 0] = images[:, 0] != self.columns
        if wrong.any():
            coord, row, _ = np.argwhere(wrong)[0]
            what = "recovery row" if row == 0 else f"detection row {row - 1}"
            raise RuntimeError(
                f"the {what} of coordinate {coord}'s plan is wrong on clean "
                "helpers; this indicates a bug, not a channel effect")


class _SimContext:
    """One campaign: its config, its code's digest and the cached arrays of
    its code, plus what every slice of the campaign reuses: the seed's key,
    the offsets of the draws a slice makes at once (the target under
    uniform-random, then the channel's keys or slot picks) and the
    Bernoulli threshold.

    Descriptors of one digest share one bundle, built from the JSON text
    the digest hashes, so it is the same whichever spelling came first and
    whatever the caller later does to its dict.  A descriptor that fails to
    build raises every time and is not kept."""

    def __init__(self, config: ClusterConfig):
        text = descriptor._canonical(config.code)
        bundle = _plan_cache.get_or_build(
            text, lambda: descriptor.build_code(json.loads(text)))
        self.digest = bundle.digest
        arr = self.arrays = _plan_cache.get_or_build(
            (bundle.digest, config.t), lambda: _CodeArrays(bundle, config.t))
        self.config = config
        self.key = _seed_key(config.seed)
        channel = config.channel
        self.exact = isinstance(channel, ExactErrors)
        if self.exact and channel.errors > arr.fewest:
            raise ValueError(f"channel injects {channel.errors} errors but "
                             f"only {arr.fewest} helpers exist")
        rows, width, _ = arr.coeffs.shape
        carried = channel.errors if self.exact else width
        # the arrays' tables hold len(arr.ramp) trials, whatever
        # _CHUNK_TRIALS holds now: a longer slice would read past them
        self.slice_trials = max(1, min(len(arr.ramp),
                                       _SLICE_ENTRIES // max(1, carried * rows)))
        self.uniform = config.target_policy == "uniform-random"
        self.draw_offsets = arr.offsets[0 if self.uniform else 1:1 + carried, None]
        # Bernoulli(1) corrupts every live slot: 2^64 does not fit in uint64
        self.threshold = (None if self.exact or channel.epsilon == 1.0
                          else np.uint64(int(channel.epsilon * _SCALE)))


class _Slice(NamedTuple):
    """Outcomes of the trials [start, stop): one entry per trial, and one
    column per trial in corrupted.  Entries may be views of the read-only
    tables of _CodeArrays."""
    streams: np.ndarray            # stream(seed, trial)
    targets: np.ndarray
    corrupted: np.ndarray          # slot-major: ExactErrors(e) slices hold the
                                   # (e, trials) chosen slots, Bernoulli slices
                                   # the (width, trials) mask of corrupted slots
    hit: np.ndarray                # bool: some helper slot is corrupted
    shift: np.ndarray              # naive value minus the true symbol
    detected: np.ndarray           # bool


def _exact_slots(draws: np.ndarray, r: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Distinct slots below each trial's uint64 helper count r, drawn
    uniformly without replacement, one row per row of draws: row j picks the
    (draw mod (r - j))-th slot that no earlier row took.  rows is the uint64
    column 0, 1, ..., at least one entry per row of draws."""
    slots = (draws % (r - rows[:len(draws)])).view(np.int64)
    for j in range(1, len(slots)):
        # step over the taken slots, smallest first (one row needs no sort)
        for taken in np.sort(slots[:j], axis=0) if j > 1 else slots[:j]:
            slots[j] += slots[j] >= taken
    return slots


def _images(field, coeffs: np.ndarray, errors: np.ndarray):
    """Naive shifts and detection flags: the plan coefficients
    (1+depth, slots, trials) times the (slots, trials) error values."""
    images = field.dot_array(coeffs, errors, axis=1)           # (1+depth, trials)
    return images[0], images[1:].any(axis=0)


def _run_slice(context: _SimContext, start: int, stop: int) -> _Slice:
    """The trials [start, stop) as arrays, slot-major: one row per helper
    slot and one column per trial.  Only hit trials draw error values and
    take the inner product of their plan coefficients with them; the plans
    are proven on clean words, so a clean trial's naive value is right
    (shift 0) and nothing is detected."""
    arr = context.arrays
    count = stop - start
    streams = _streams(context.key, start, arr.ramp[:count])
    draws = _draws(streams, context.draw_offsets)
    if context.uniform:
        first, draws = draws[0], draws[1:]
        targets = _below(first, arr.n64)
        r = arr.r[targets]
        live_slots = None
    else:
        at = start % arr.n
        targets = arr.cycle_targets[at:at + count]
        r = arr.cycle_r[at:at + count]
        live_slots = arr.cycle_live[:, at:at + count]

    if context.exact:
        # every trial is hit, and only its e chosen slots carry an error
        corrupted = _exact_slots(draws, r, arr.slots)           # (e, trials)
        hit = (arr.all_hit[:count] if len(corrupted)
               else np.zeros(count, dtype=bool))
        index = corrupted * arr.n + targets                     # into (width, n)
        errors = 1 + _below(_draws(streams, np.take(arr.error_offsets, index)),
                            arr.nonzero)
        coeffs = np.take(arr.coeffs.reshape(len(arr.coeffs), -1),
                         index, axis=1)                         # (1+depth, e, trials)
        shift, detected = _images(arr.field, coeffs, errors)
    else:
        corrupted = arr.slots < r if live_slots is None else live_slots
        if context.threshold is not None:
            corrupted = corrupted & (draws < context.threshold)
        hit = corrupted.any(axis=0)
        live = np.flatnonzero(hit)
        columns = targets[live]
        errors = 1 + _below(_draws(streams[live], np.take(
            arr.error_offsets, columns, axis=1)), arr.nonzero)  # (width, hits)
        errors *= corrupted[:, live]                            # clean slots add 0
        coeffs = np.take(arr.coeffs, columns, axis=2)           # (1+depth, width, hits)
        shift = np.zeros(count, dtype=np.int64)
        detected = np.zeros(count, dtype=bool)
        shift[live], detected[live] = _images(arr.field, coeffs, errors)
    return _Slice(streams, targets, corrupted, hit, shift, detected)


def _spans(context: _SimContext, start: int, stop: int):
    step = context.slice_trials
    for lo in range(start, stop, step):
        yield lo, min(lo + step, stop)


def trial_records(config: ClusterConfig, start: int = 0, stop: int | None = None):
    """The trials [start, stop) of a campaign, for paired-policy comparisons
    and diagnostics; run_sim tallies exactly these trials.  Each trial's true
    symbol is its message times the target's generator column, the columns
    the engine proves its plans on, so no encoding is built."""
    stop = config.trials if stop is None else stop
    for name, value, low in (("start", start, 0), ("stop", stop, start)):
        if not low <= _checked_int(name, value) <= config.trials:
            raise ValueError(
                f"{name} must lie in [{low}, {config.trials}], got {value}")
    context = _SimContext(config)
    arr = context.arrays
    field = arr.field
    message_offsets, q = _offsets(np.arange(arr.k)), np.uint64(field.q)
    for span in _spans(context, start, stop):
        out = _run_slice(context, *span)
        message = _below(_draws(out.streams[:, None], message_offsets), q)
        truths = field.dot_array(message, arr.columns[out.targets])
        if context.exact:
            corrupted = np.sort(out.corrupted, axis=0).T.tolist()
        else:
            corrupted = [[j for j, h in enumerate(mask) if h]
                         for mask in out.corrupted.T.tolist()]
        for trial, target, slots, truth, naive, detected in zip(
                range(*span), out.targets.tolist(), corrupted,
                truths.tolist(), field.add_array(truths, out.shift).tolist(),
                out.detected.tolist()):
            yield TrialRecord(
                trial, target, tuple(slots), truth,
                naive, localrepair.RepairOutcome(None if detected else naive))


def _tally_range(context: _SimContext, start: int, stop: int) -> np.ndarray:
    """The outcome histogram of the trials [start, stop): each trial's
    outcome code 4 hit + 2 detected + naive-right, counted in 8 bins."""
    out = _run_slice(context, start, stop)
    return np.bincount(out.hit * 4 + out.detected * 2 + (out.shift == 0),
                       minlength=8)


def _outcome_cells(histogram: np.ndarray) -> dict:
    """The report cells of an outcome histogram, corrupted_trials too."""
    bins = histogram.tolist()
    missed_wrong, missed_right, caught_wrong, caught_right = bins[4:]
    return {"clean_correct": sum(bins[:4]),
            "corrupted_trials": sum(bins[4:]),
            "naive_wrong": missed_wrong + caught_wrong,
            "naive_right_under_error": missed_right + caught_right,
            "detected": caught_wrong + caught_right,
            "missed_wrong": missed_wrong,
            "missed_right": missed_right}


def run_sim(config: ClusterConfig, workers: int = 1) -> SimReport:
    """Run the campaign; identical (config, seed) gives a bit-identical
    report, because trial outcomes are pure in the trial index and the
    slice histograms merge by addition.

    workers is kept only for the benchmark harness, which passes it: the
    campaign runs on the calling thread, whatever its value.
    """
    context = _SimContext(config)
    counts = _outcome_cells(sum(_tally_range(context, *span)
                                for span in _spans(context, 0, config.trials)))
    corrupted = counts.pop("corrupted_trials")
    return SimReport(trials=config.trials, seed=config.seed,
                     config=config.to_dict(context.digest), counts=counts,
                     corrupted_trials=corrupted)


def compare_policies(config: ClusterConfig, policies=None,
                     sweep=None) -> list[dict]:
    """One run per (policy, channel point), all with the same seed so aligned
    draw streams see identical fault patterns.  The runs share one build of
    the code and of its plans (the plan cache).

    policies: list of {"name": str, and overrides of "t", "trials" and
    "target_policy"}, refusing any other key; sweep: list of channel
    objects or dicts replacing the base channel per point.
    """
    for where, values in (("policies", policies), ("sweep", sweep)):
        if values is not None and not isinstance(values, (list, tuple)):
            raise ValueError(f"{where}: expected a list")
    policies, sweep = policies or [{"name": "default"}], sweep or []
    channels = [ch if isinstance(ch, (Bernoulli, ExactErrors))
                else channel_from_dict(ch, f"sweep[{idx}]")
                for idx, ch in enumerate(sweep)] or [config.channel]
    runs = []    # every policy is checked before the first run
    for idx, policy in enumerate(policies):
        where = f"policies[{idx}]"
        descriptor._refuse_unknown_keys(policy, _POLICY_KEYS, where)
        name = descriptor._require(policy, "name", str, where, "default")
        overrides = dict(
            t=descriptor._require(policy, "t", int, where, config.t),
            trials=descriptor._require(policy, "trials", int, where, config.trials),
            target_policy=descriptor._require(policy, "target_policy", str, where,
                                              config.target_policy))
        runs += [(name, ClusterConfig(code=config.code, channel=channel,
                                      seed=config.seed, **overrides))
                 for channel in channels]
    return [{"policy": name, "channel": cfg.channel.to_dict(),
             "report": run_sim(cfg)} for name, cfg in runs]


def sweep_csv(rows: list[dict]) -> str:
    """Fixed-header CSV of a policy/channel sweep, one row per cell."""
    header = ["policy", "epsilon_or_e", "trials"]
    header += list(CSV_CELLS)
    header += [f"rate_{c}" for c in CSV_CELLS]
    header += [f"ci_low_{c}" for c in CSV_CELLS]
    header += [f"ci_high_{c}" for c in CSV_CELLS]
    lines = [",".join(header)]
    for row in rows:
        report = row["report"]
        channel = row["channel"]
        point = channel["epsilon"] if channel["kind"] == "bernoulli" else channel["errors"]
        rates = report.rates
        cells = [row["policy"], repr(point), str(report.trials)]
        cells += [str(report.counts[c]) for c in CSV_CELLS]
        cells += [repr(rates[c]["rate"]) for c in CSV_CELLS]
        cells += [repr(rates[c]["ci_low"]) for c in CSV_CELLS]
        cells += [repr(rates[c]["ci_high"]) for c in CSV_CELLS]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Byte ingestion
# ---------------------------------------------------------------------------

def _block_bytes(m: int, k: int) -> int:
    return math.lcm(m * k, 8) // 8


def _bit_weights(m: int) -> np.ndarray:
    """Place values of a symbol's m bits, most significant first."""
    return 1 << np.arange(m - 1, -1, -1, dtype=np.int64)


def ingest(data: bytes, field, k: int) -> list[list[int]]:
    """Cut a byte stream into k-symbol messages of m-bit symbols (big-endian
    within each symbol).  A 0x80 byte plus zeros pads to a whole number of
    messages; the marker is always appended so emit() can always strip it.
    """
    if field.p != 2:
        raise UnsupportedFieldError(
            f"byte ingestion needs characteristic 2, got {field!r}")
    if _checked_int("k", k) < 1:
        raise ValueError(f"k must be positive, got {k}")
    m = field.m
    padded = bytes(data) + b"\x80"
    padded += bytes(-len(padded) % _block_bytes(m, k))
    bits = np.unpackbits(np.frombuffer(padded, dtype=np.uint8)).reshape(-1, m)
    return (bits @ _bit_weights(m)).reshape(-1, k).tolist()


def emit(messages, field) -> bytes:
    """Inverse of ingest: renders symbols back to bytes and strips the pad."""
    if field.p != 2:
        raise UnsupportedFieldError(
            f"byte ingestion needs characteristic 2, got {field!r}")
    m = field.m
    symbols = field._check_all([sym for message in messages for sym in message])
    if len(symbols) * m % 8:
        raise ValueError("symbol stream does not fill whole bytes")
    values = np.array(symbols, dtype=np.int64)[:, None]
    bits = ((values & _bit_weights(m)) != 0).astype(np.uint8)
    out = np.packbits(bits.ravel()).tobytes().rstrip(b"\x00")
    if not out or out[-1] != 0x80:
        raise ValueError("padding marker missing; not an ingest() output")
    return out[:-1]
