"""Local erasure repair with helper-error detection.

A recovery plan for a target coordinate packages precomputed dual codewords:
a recovery word w supported on the helpers plus the target (all entries
nonzero for the RS constructions), and t detection rows supported on the
helpers alone.  Repair first checks every detection row against the helper
symbols; a nonzero inner product proves corruption, otherwise the erased
symbol is a fixed linear combination of the helpers.  With at most t
corrupted helpers the verdict is guaranteed: either corruption is flagged or
the returned value is correct.  No polynomial interpolation is involved.

Each plan carries its read (_checked_read), built once with the plan: a
closure that checks the helper count, then each helper symbol
(Field._check_all), where the symbols enter, then calls the field's read
kernel over the plan's check rows and recovery row (Field._reader) and
returns the shared _DETECTED or the value's RepairOutcome.  repair is one
call of it, and detect one call compared with _DETECTED.  recover, which
reads no check row, passes the read a kernel over the recovery row alone,
built at each call.  So every read checks its symbols once, and no check
runs inside a kernel, which runs on canonical ints.  CountingField's kernel
takes a row at a time through its counted _add and _mul, so a clean repair
counts (t + 1) * r multiplications.

RS and piecewise-RS codes share one builder, plan_rs (also bound as
plan_lrcrs), and one rule: the helpers are the spec.local_k + t lowest other
coordinates of the target's fibre, for t up to spec.t_cap.  Their dual
words come from the polynomial that vanishes on the complement of the
chosen point set: its value at a member point costs r multiplications and
one inversion via the product of all nonzero field elements being -1.
plan_linear takes them from the kernel of the generator's columns on the
plan's own coordinates.  Plans are built on
the field's unchecked scalar kernels (Field._mul, _sub, _neg, _inv), since
the code's points and generator were checked when the code was built;
CountingField counts those kernel calls, which is what mult_count tallies.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, replace
from typing import NamedTuple

from . import codeops
from .galois import CountingField


class AlphaNotInSetError(ValueError):
    """Evaluation point must belong to the support set."""


class NotEnoughCoordinatesError(ValueError):
    """The target's fibre is too short for local_k + t helpers."""


class HelpersNotEdrError(ValueError):
    """Proposed helper set cannot detect the requested number of errors."""


class WrongLengthError(ValueError):
    """Helper symbol vector has the wrong length."""


@dataclass(frozen=True)
class RecoveryPlan:
    """Everything needed to repair one coordinate from fixed helpers.

    weights holds the recovery word over barred (helpers plus target, sorted);
    check_rows are the detection rows aligned with helpers; recovery_row is
    the precomputed combination -w_target^(-1) * w_helpers, so one inner
    product of length r recovers the erased symbol.
    """
    field: object
    target: int
    helpers: tuple[int, ...]
    barred: tuple[int, ...]
    target_pos: int
    weights: tuple[int, ...]
    check_rows: tuple[tuple[int, ...], ...]
    recovery_row: tuple[int, ...]
    t: int
    # the plan's read (_checked_read over the field's read kernel of
    # check_rows and recovery_row), built with the plan (replace builds it
    # again); no part of ==, hash or repr
    _read: object = dataclasses.field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_read", _checked_read(
            self.field, len(self.helpers),
            self.field._reader(self.check_rows, self.recovery_row)))

    def __reduce__(self):
        # by the init fields, so a copy or an unpickled plan builds its
        # kernel on its own field
        return RecoveryPlan, tuple(getattr(self, f.name)
                                   for f in dataclasses.fields(self) if f.init)


class RepairOutcome(NamedTuple):
    """Either a recovered symbol or a detection verdict, never both.

    Reads build none through the named tuple's Python-level __new__: a
    flagged read returns the shared _DETECTED, and a clean read over a field
    of at most 256 elements the value's shared entry of _OUTCOMES.  Over a
    larger field a clean read builds one by tuple.__new__.  Outcomes compare,
    hash and pickle as any RepairOutcome(value) does."""
    value: int | None

    @property
    def detected(self) -> bool:
        return self.value is None


_DETECTED = RepairOutcome(None)
# RepairOutcome(v) for each v in 0..255, shared by the reads of every field
# of at most 256 elements
_OUTCOMES = tuple(RepairOutcome(v) for v in range(256))


def _outcome_maker(q: int):
    """RepairOutcome(v) for the symbols v of a field of q elements, chosen
    once per field: an index into _OUTCOMES when it holds them all, else one
    tuple.__new__ a call."""
    if q <= len(_OUTCOMES):
        return _OUTCOMES.__getitem__
    new = tuple.__new__

    def outcome(value):
        return new(RepairOutcome, (value,))
    return outcome


def _checked_read(field, count: int, kernel):
    """A plan's read through `field`'s read kernel `kernel`: given `count`
    helper symbols, _DETECTED when the kernel flags them, else the value's
    RepairOutcome.  A call may pass another kernel of the field over the
    same helpers, as recover does.

    The read checks the count, then each symbol (Field._check_all), before
    the kernel runs: the kernel indexes tables with them, so a negative
    symbol would read a table from its end and give a wrong answer, and
    False would pass as 0."""
    check_all, outcome = field._check_all, _outcome_maker(field.q)

    def read(values, kernel=kernel):
        if len(values) != count:
            raise WrongLengthError(
                f"expected {count} helper symbols, got {len(values)}")
        value = kernel(check_all(values))
        return _DETECTED if value is None else outcome(value)
    return read


def recovery_weight(field, support_points, alpha: int) -> int:
    """Entry at alpha of the dual word living on the given point set.

    Computed as minus the inverse of the product of the differences to the
    other support points: exactly len(support) - 1 multiplications, one
    inversion and one negation.  Equals the direct product of (alpha - g)
    over every field element g outside the support.  The points and alpha
    are checked once, here, and the product runs on the field's kernels.
    """
    field._check_all((*support_points, alpha))
    return _weight(field, support_points, alpha)


def _weight(field, support_points, alpha: int) -> int:
    """recovery_weight on canonical elements, unchecked."""
    mul, sub = field._mul, field._sub
    acc = 1
    seen = False
    for gamma in support_points:
        if gamma == alpha:
            seen = True
            continue
        acc = mul(acc, sub(alpha, gamma))
    if not seen:
        raise AlphaNotInSetError(f"{alpha} is not in the support set")
    return field._neg(field._inv(acc))


def _assemble(field, barred, target, weights, check_rows, t) -> RecoveryPlan:
    """The plan from its recovery word over barred and its detection rows,
    which every plan builder ends in: the recovery row is the word's helper
    entries times -w_target^(-1), one inversion, one negation and r
    multiplications."""
    target_pos = barred.index(target)
    scale = field._neg(field._inv(weights[target_pos]))
    mul = field._mul
    recovery_row = tuple(mul(scale, w)
                         for idx, w in enumerate(weights) if idx != target_pos)
    helpers = tuple(c for c in barred if c != target)
    return RecoveryPlan(field=field, target=target, helpers=helpers,
                        barred=barred, target_pos=target_pos, weights=weights,
                        check_rows=tuple(check_rows),
                        recovery_row=recovery_row, t=t)


def _build_plan(spec, barred, target, t) -> RecoveryPlan:
    """The plan on the sorted barred coordinates of an RS or piecewise-RS
    spec, from the polynomial words of its points."""
    field = spec.field
    mul, sub = field._mul, field._sub
    pts = tuple(spec.points[c] for c in barred)
    alpha_t = spec.points[target]

    weights = tuple(_weight(field, pts, a) for a in pts)
    helper_pts = tuple(a for a in pts if a != alpha_t)
    helper_w = tuple(w for a, w in zip(pts, weights) if a != alpha_t)

    check_rows = []
    if t > 0:
        row = tuple(mul(sub(a, alpha_t), w)
                    for a, w in zip(helper_pts, helper_w))
        check_rows.append(row)
        for _ in range(1, t):
            row = tuple(mul(a, z) for a, z in zip(helper_pts, row))
            check_rows.append(row)
    return _assemble(field, barred, target, weights, check_rows, t)


def plan_rs(spec, target: int, t: int = 1, helpers=None) -> RecoveryPlan:
    """Plan for an RS or piecewise-RS code by the fibre rule of its spec:
    any spec.local_k + t other coordinates of the target's fibre form a
    t-edr set, for t up to spec.t_cap.  Default helpers are the lowest of
    them; explicit helpers must number exactly local_k + t and lie in the
    fibre.  plan_lrcrs is the same function."""
    fibre = spec.fibre_coords(target)
    codeops._checked_t(t)
    if t > spec.t_cap:
        raise NotEnoughCoordinatesError(
            f"t = {t} exceeds the capacity t_cap = {spec.t_cap} of the "
            f"target's fibre of {len(fibre)} coordinates")
    need = spec.local_k + t
    if helpers is None:
        helpers = tuple(c for c in fibre[:need + 1] if c != target)[:need]
    else:
        helpers = codeops._checked_helpers(spec.n, target, helpers, t)
        if len(helpers) != need or not all(c in fibre for c in helpers):
            raise HelpersNotEdrError(
                f"t = {t} takes exactly {need} helpers in the target's fibre "
                f"{fibre[0]}..{fibre[-1]}, got {list(helpers)}")
    return _build_plan(spec, tuple(sorted(helpers + (target,))), target, t)


plan_lrcrs = plan_rs


def plan_linear(code: codeops.LinearCode, target: int, t: int,
                helpers=None) -> RecoveryPlan:
    """Plan for an arbitrary linear code from the dual words on its own
    support, which codeops._dual_words reads off the generator's columns
    there; the whole dual is never built.

    The detection rows are the canonical basis of the dual words on the
    helpers; the recovery word is the first canonical row on helpers +
    target that is nonzero at the target, and may be zero elsewhere, unlike
    in the RS constructions.  Default helpers are the target's first t-edr
    set in exhaustive order: its witness in codeops.t_locality(code, t),
    whose one scan the code keeps, so the plans of every coordinate at t
    share it (a zero column gets no helpers).  Like exhaustive t_locality,
    that scan is only run up to n = DEFAULT_EXHAUSTIVE_N; a longer code
    needs explicit helpers.
    """
    if helpers is None:
        codeops._checked_helpers(code.n, target, t=t)
        helpers = codeops.t_locality(code, t).per_coord[target].witness
        if helpers is None:
            raise HelpersNotEdrError(
                f"coordinate {target} admits no {t}-error-detecting recovery set")
    else:
        helpers = codeops._checked_helpers(code.n, target, helpers, t)
        if not codeops._detects(code, tuple(sorted(helpers + (target,))), t):
            raise HelpersNotEdrError(
                f"{list(helpers)} is not a {t}-error-detecting recovery set "
                f"for coordinate {target}")
    barred = tuple(sorted(helpers + (target,)))
    target_pos = barred.index(target)
    weights = next((row for row in codeops._dual_words(code, barred)
                    if row[target_pos]), None)
    if weights is None:
        raise AssertionError("an error-detecting recovery set must recover")
    return _assemble(code.field, barred, target, weights,
                     codeops._dual_words(code, helpers), t)


def truncate_detection(plan: RecoveryPlan, t: int) -> RecoveryPlan:
    """Keep only the first t detection rows (t below the plan's capacity)."""
    codeops._checked_t(t)
    if t > plan.t:
        raise ValueError(f"plan detects at most {plan.t} errors, asked for {t}")
    return replace(plan, check_rows=plan.check_rows[:t], t=t)


def plan_for(bundle, target: int, t: int, helpers=None) -> RecoveryPlan:
    """The plan for one coordinate of a descriptor's code (a CodeBundle).

    RS codes, and piecewise-RS codes of positive dimension without explicit
    helpers and with t up to spec.t_cap, use the fibre rule (plan_rs).
    Everything else (explicit helpers on a piecewise-RS code, t above its
    fibre's capacity, a piecewise-RS code of dimension 0, whose coordinates
    are all zero columns, generator codes) goes through plan_linear, which
    alone builds the code.  Only t is checked here.
    """
    codeops._checked_t(t)
    if bundle.kind == "rs" or (bundle.kind == "lrcrs" and helpers is None
                               and bundle.spec.k and t <= bundle.spec.t_cap):
        return plan_rs(bundle.spec, target, t, helpers=helpers)
    return plan_linear(bundle.code, target, t, helpers=helpers)


def detect(plan: RecoveryPlan, helper_values) -> bool:
    """True when the helper symbols are provably corrupted (some detection
    row has a nonzero inner product with them): exactly when repair flags."""
    return plan._read(helper_values) is _DETECTED


def recover(plan: RecoveryPlan, helper_values) -> int:
    """The erased symbol as a fixed linear combination of the helper symbols.

    Correct whenever the helpers are clean; performs no error checking (see
    repair for the safe path) and no interpolation.
    """
    return plan._read(helper_values,
                      plan.field._reader((), plan.recovery_row)).value


def repair(plan: RecoveryPlan, helper_values) -> RepairOutcome:
    """Detect first, recover only on a clean verdict.

    With at most t corrupted helpers the outcome is guaranteed sound: either
    corruption is flagged or the recovered value is the true symbol.
    """
    return plan._read(helper_values)


def mult_count(spec, target: int, t: int = 1, helpers=None,
               helper_values=None) -> dict:
    """Instrumented operation tally for plan construction and (optionally)
    one repair from the stored plan.

    Plan construction costs at most r*(r + t + 2) multiplications and r + 2
    inversions for r helpers; repair costs exactly (t + 1)*r multiplications
    and no inversions, since the inverse is folded into the stored rows.
    """
    counting = CountingField(spec.field)
    plan = plan_rs(replace(spec, field=counting), target, t, helpers=helpers)
    tally = {"plan_build": counting.counts(), "helpers": len(plan.helpers),
             "t": t, "repair": None}
    if helper_values is not None:
        counting.reset()
        outcome = repair(plan, helper_values)
        tally["repair"] = counting.counts()
        tally["outcome"] = outcome
    return tally


class PlanCache:
    """Memo for recovery plans, and for what else a caller builds once per
    code (the simulator keeps its bundles and engine arrays in its cache
    too).  Keys should include the code-descriptor digest, or the text it
    hashes, so that entries never leak across codes; cached and freshly
    built plans are identical."""

    def __init__(self):
        self._plans: dict = {}

    def get_or_build(self, key, build):
        try:
            return self._plans[key]
        except KeyError:
            pass
        return self._plans.setdefault(key, build())

    def __len__(self):
        return len(self._plans)
