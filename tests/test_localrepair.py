import copy
import itertools
import pickle
import random
import re
import threading

import pytest

from loceret import codeops, descriptor, storagesim
from loceret.codeops import t_locality
from loceret.galois import CountingField, Field
from loceret.localrepair import (AlphaNotInSetError, HelpersNotEdrError,
                                 NotEnoughCoordinatesError, PlanCache,
                                 RepairOutcome, WrongLengthError, detect,
                                 mult_count, plan_for, plan_linear, plan_lrcrs,
                                 plan_rs, recover, recovery_weight, repair,
                                 truncate_detection)
from loceret.rscodes import encode, lrcrs_make, rs_make

F13 = Field(13)
GF256 = Field(2, 8)


def example_code():
    return lrcrs_make(F13, [0, 0, 0, 0, 1], [2, 2])


def oracle_dot(field, xs, ys):
    """The checked scalar loop that the field's read kernel replaces: one
    validated mul and add per term."""
    acc = 0
    for x, y in zip(xs, ys):
        acc = field.add(acc, field.mul(x, y))
    return acc


def oracle_repair(plan, values):
    """repair's value through oracle_dot: None when a detection row flags
    the symbols, else the recovery row's inner product."""
    for row in plan.check_rows:
        if oracle_dot(plan.field, row, values) != 0:
            return None
    return oracle_dot(plan.field, plan.recovery_row, values)


# ---------------------------------------------------------------------------
# recovery weights
# ---------------------------------------------------------------------------

def test_recovery_weights_on_the_example_fibre():
    support = (1, 5, 8, 12)
    assert recovery_weight(F13, support, 1) == 3
    assert recovery_weight(F13, support, 5) == 2
    assert recovery_weight(F13, support, 8) == 11
    assert recovery_weight(F13, support, 12) == 10


def test_recovery_weight_equals_direct_complement_product():
    rng = random.Random(71)
    for field in (F13, Field(2, 3)):
        for _ in range(10):
            size = rng.randrange(2, min(6, field.q) + 1)
            support = rng.sample(range(field.q), size)
            alpha = rng.choice(support)
            direct = 1
            for gamma in field.elements():
                if gamma not in support:
                    direct = field.mul(direct, field.sub(alpha, gamma))
            assert recovery_weight(field, support, alpha) == direct


def test_recovery_weight_of_the_whole_field_is_one():
    for field in (F13, Field(2, 3)):
        support = list(field.elements())
        for alpha in support:
            assert recovery_weight(field, support, alpha) == 1


def test_recovery_weight_requires_membership():
    with pytest.raises(AlphaNotInSetError):
        recovery_weight(F13, (1, 5, 8), 2)


# ---------------------------------------------------------------------------
# plan construction
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("field", [F13, GF256, Field(3, 5), Field(2, 17)],
                         ids=repr)
def test_recovery_weight_refuses_non_canonical_points(field):
    for bad in (field.q, -1, 1.0, True):
        with pytest.raises(ValueError, match="canonical"):
            recovery_weight(field, (1, 2, bad), 1)
        with pytest.raises(ValueError, match="canonical"):
            recovery_weight(field, (1, 2), bad)


def test_rs_plan_reproduces_the_worked_example_pair():
    spec = rs_make(F13, [1, 5, 8, 12], 2)
    plan = plan_rs(spec, 0, 1)
    assert plan.helpers == (1, 2, 3)
    assert plan.weights == (3, 2, 11, 10)
    assert plan.check_rows == ((8, 12, 6),)


def test_plan_without_detection_has_no_check_rows():
    spec = rs_make(F13, list(range(8)), 3)
    plan = plan_rs(spec, 2, 0)
    assert plan.check_rows == ()
    assert len(plan.helpers) == 3
    message = [4, 9, 1]
    word = encode(spec, message).symbols
    assert recover(plan, [word[c] for c in plan.helpers]) == word[2]


def test_detection_rows_span_the_shortened_dual():
    spec = rs_make(F13, list(range(8)), 3)
    plan = plan_rs(spec, 0, 2)
    assert len(plan.check_rows) == 2
    from test_codeops import oracle_shorten
    dual_code = codeops.dual(spec.code)
    expected = oracle_shorten(dual_code, plan.helpers)
    got = codeops.code_from_rows(F13, plan.check_rows, len(plan.helpers))
    assert got == expected


def test_rs_plan_validation():
    spec = rs_make(F13, list(range(4)), 3)
    with pytest.raises(NotEnoughCoordinatesError):
        plan_rs(spec, 0, 1)                      # needs k + t + 1 = 5 points
    spec8 = rs_make(F13, list(range(8)), 3)
    with pytest.raises(HelpersNotEdrError):
        plan_rs(spec8, 0, 1, helpers=[1, 2])     # k - 1 helpers cannot work
    with pytest.raises(HelpersNotEdrError):
        plan_rs(spec8, 0, 1, helpers=[1, 2, 3, 4, 5])
    plan = plan_rs(spec8, 0, 1, helpers=[2, 4, 5, 7])
    assert plan.helpers == (2, 4, 5, 7)


def test_fibre_plans_for_every_coordinate_lie_in_the_dual():
    spec = example_code()
    code = spec.code
    for target in range(12):
        plan = plan_lrcrs(spec, target)
        assert all(w != 0 for w in plan.weights)
        assert all(z != 0 for row in plan.check_rows for z in row)
        extended_w = [0] * 12
        for coord, w in zip(plan.barred, plan.weights):
            extended_w[coord] = w
        for row in code.gen:
            assert oracle_dot(F13, extended_w, row) == 0
        for zrow in plan.check_rows:
            extended_z = [0] * 12
            for coord, z in zip(plan.helpers, zrow):
                extended_z[coord] = z
            for row in code.gen:
                assert oracle_dot(F13, extended_z, row) == 0


def test_every_constructed_plan_uses_an_error_detecting_set():
    spec8 = rs_make(F13, list(range(8)), 3)
    for t in (0, 1, 2):
        for target in range(8):
            plan = plan_rs(spec8, target, t)
            assert codeops.is_edr_set(spec8.code, target, plan.helpers, t)
    fibre_spec = example_code()
    for target in range(12):
        plan = plan_lrcrs(fibre_spec, target)
        assert codeops.is_edr_set(fibre_spec.code, target, plan.helpers, 1)


def test_generic_plan_matches_fibre_plan_semantics():
    spec = example_code()
    plan = plan_linear(spec.code, 0, 1)
    assert plan.helpers == (1, 2, 3)
    word = encode(spec, [1, 0, 0, 0, 1, 0]).symbols
    values = [word[c] for c in plan.helpers]
    assert not detect(plan, values)
    assert recover(plan, values) == word[0]
    corrupted = list(values)
    corrupted[1] = F13.add(corrupted[1], 5)
    assert detect(plan, corrupted)


def test_generic_plan_agrees_with_the_fibre_plan():
    # the generic planner may pick a different dual word (possibly with zero
    # entries), so recovery formulas agree on codeword restrictions while
    # detection verdicts agree everywhere (the detection span is the same)
    spec = example_code()
    fibre_plan = plan_lrcrs(spec, 0)
    generic = plan_linear(spec.code, 0, 1, helpers=[1, 2, 3])
    assert generic.helpers == fibre_plan.helpers
    for values in itertools.product(range(13), repeat=3):
        assert detect(generic, values) == detect(fibre_plan, values)
    local = rs_make(F13, spec.fibres[0][1], 2)
    for msg in itertools.product(range(13), repeat=2):
        word = encode(local, list(msg)).symbols
        assert recover(generic, word[1:]) == word[0]
        assert recover(fibre_plan, word[1:]) == word[0]


def test_generic_plan_refuses_unrecoverable_coordinates():
    identity = codeops.code_from_rows(F13, [[1, 0], [0, 1]])
    with pytest.raises(HelpersNotEdrError):
        plan_linear(identity, 0, 0)
    spec = rs_make(F13, list(range(8)), 3)
    with pytest.raises(HelpersNotEdrError):
        plan_linear(spec.code, 0, 1, helpers=[1, 2, 3])


# fault -> (exception type, target, helpers, t): every entry point raises
# the same type for the same fault
BAD_RECOVERY_ARGUMENTS = {
    "target-out-of-range": (codeops.IndexOutOfRangeError, 8, [1, 2, 3, 4], 1),
    "duplicate-helper": (ValueError, 0, [1, 1, 2, 3], 1),
    "target-among-helpers": (ValueError, 0, [0, 1, 2, 3], 1),
    "negative-t": (ValueError, 0, [1, 2, 3], -1),
    "target-bool": (codeops.IndexOutOfRangeError, True, [2, 3, 4, 5], 1),
    "target-float": (codeops.IndexOutOfRangeError, 2.0, [3, 4, 5, 6], 1),
    "helper-bool": (codeops.IndexOutOfRangeError, 0, [True, 2, 3, 4], 1),
    "helper-str": (codeops.IndexOutOfRangeError, 0, [2, "a", 3, 4], 1),
    "helper-none": (codeops.IndexOutOfRangeError, 0, [None, 2, 3, 4], 1),
}
TARGET_FAULTS = ("target-out-of-range", "target-bool", "target-float")


@pytest.mark.parametrize("fault", BAD_RECOVERY_ARGUMENTS)
def test_every_recovery_call_rejects_bad_arguments_alike(fault):
    expected, target, helpers, t = BAD_RECOVERY_ARGUMENTS[fault]
    spec = rs_make(F13, list(range(8)), 3)
    fibre = lrcrs_make(Field(3, 2), [0, 0, 0, 0, 1], [1, 0])      # n = 8 too
    calls = [lambda: codeops.is_edr_set(spec.code, target, helpers, t),
             lambda: plan_rs(spec, target, t, helpers=helpers),
             lambda: plan_linear(spec.code, target, t, helpers=helpers)]
    if t >= 0:
        calls.append(lambda: codeops.is_recovery_set(spec.code, target, helpers))
    if fault in TARGET_FAULTS + ("negative-t",):
        # default helpers: the plans check target and t before any search
        calls += [lambda: plan_rs(spec, target, t),
                  lambda: plan_linear(spec.code, target, t)]
    if fault in TARGET_FAULTS:
        # fibre plans take a target alone, and mult_count builds one
        calls += [lambda: plan_lrcrs(fibre, target),
                  lambda: mult_count(fibre, target)]
    for call in calls:
        with pytest.raises(ValueError) as info:
            call()
        assert info.type is expected


def test_bool_coordinates_are_refused_by_name():
    # True == 1 as an int, so it used to pass as coordinate 1
    spec = rs_make(F13, list(range(8)), 3)
    with pytest.raises(codeops.IndexOutOfRangeError, match="^target True "):
        codeops.is_edr_set(spec.code, True, [2, 3, 4, 5], 1)
    with pytest.raises(codeops.IndexOutOfRangeError, match="^True is not"):
        plan_rs(spec, 0, 1, helpers=[True, 2, 3, 4])


def oracle_linear_rows(dual_code, plan):
    """The (weights, check_rows) of plan through the whole dual shortened
    twice, the construction plan_linear replaced: the first canonical dual
    row on barred that is nonzero at the target, and the canonical dual
    rows on the helpers, each shortening by the generator-side oracle."""
    from test_codeops import oracle_shorten
    on_barred = oracle_shorten(dual_code, plan.barred).gen
    weights = next(row for row in on_barred if row[plan.target_pos])
    if not plan.helpers:
        return weights, ()
    return weights, oracle_shorten(dual_code, plan.helpers).gen


def assert_default_helpers_are_the_witnesses(code):
    """plan_linear's own helpers for every coordinate at t = 0, 1, 2 are
    the witnesses of the per-coordinate oracle scan, which t_locality
    reports too, a coordinate without one has no plan, and every plan's
    rows are the dual oracle's."""
    from test_codeops import oracle_scan
    dual_code = codeops.dual(code)
    for t in (0, 1, 2):
        report = t_locality(code, t)
        for entry, (_, witness) in zip(report.per_coord, oracle_scan(code, t)):
            c = entry.coord
            assert entry.witness == witness, (code, c, t)
            if witness is None:
                with pytest.raises(HelpersNotEdrError):
                    plan_linear(code, c, t)
                continue
            plan = plan_linear(code, c, t)
            assert plan.helpers == witness, (code, c, t)
            assert (plan.weights, plan.check_rows) == oracle_linear_rows(
                dual_code, plan), (code, c, t)
            if not any(row[c] for row in code.gen):
                assert plan.helpers == ()


def test_default_linear_helpers_are_the_locality_witnesses_on_the_lemma_corpus():
    from test_acceptance import lemma_corpus
    for code, _ in lemma_corpus():
        assert_default_helpers_are_the_witnesses(code)


@pytest.mark.parametrize("field", [Field(2), Field(3), Field(2, 2),
                                   Field(3, 2), F13, Field(2, 4)], ids=repr)
def test_default_linear_helpers_are_the_locality_witnesses_with_zero_columns(
        field):
    from test_codeops import random_codes_with_zero_and_repeated_columns
    zero_columns = 0
    for _, code in random_codes_with_zero_and_repeated_columns(
            field, field.q * 60, 12):
        assert_default_helpers_are_the_witnesses(code)
        zero_columns += sum(not any(col) for col in zip(*code.gen))
    assert zero_columns


def assert_explicit_linear_plans_match_the_oracle(code, cases):
    """plan_linear on each (target, helpers, t) of cases gives the dual
    oracle's rows; returns how many of them picked the recovery word among
    several dual rows nonzero at the target."""
    from test_codeops import oracle_shorten
    dual_code = codeops.dual(code)
    ambiguous = 0
    for target, helpers, t in cases:
        assert codeops.is_edr_set(code, target, helpers, t)
        plan = plan_linear(code, target, t, helpers=helpers)
        assert (plan.weights, plan.check_rows) == oracle_linear_rows(
            dual_code, plan), (target, helpers, t)
        on_barred = oracle_shorten(dual_code, plan.barred).gen
        ambiguous += sum(1 for row in on_barred if row[plan.target_pos]) > 1
    return ambiguous


def test_explicit_linear_plans_match_the_oracle_on_the_gf256_fibre_code():
    spec = lrcrs_make(GF256, [0, 0, 0, 0, 0, 1], [4, 4, 4])      # [255, 15]
    cases = []
    for target in (0, 7, 131, 254):
        mates = [c for c in spec.fibre_coords(target) if c != target]
        cases += [(target, mates, 1), (target, mates, 0),
                  (target, mates[:3], 0), (target, mates[1:], 0)]
    assert assert_explicit_linear_plans_match_the_oracle(spec.code, cases)


STORE255_DESC = {"field": {"p": 2, "m": 8}, "construction": "lrcrs",
                 "p_poly": [0, 0, 0, 0, 0, 1], "l": [4, 4, 4]}


def test_default_linear_helpers_stop_at_the_exhaustive_limit():
    # t = 2 is past the fibre plans' capacity, so plan_for falls back to
    # plan_linear, whose default helpers come from the exhaustive scan
    bundle = descriptor.build_code(STORE255_DESC)
    limit = f"exhaustive-search limit {codeops.DEFAULT_EXHAUSTIVE_N}"
    with pytest.raises(codeops.TooLargeToEnumerateError,
                       match=f"n = 255 exceeds the {limit}.*pass explicit helpers"):
        plan_for(bundle, 0, 2)
    with pytest.raises(storagesim.PlanUnavailableError, match=limit):
        storagesim.build_plans(bundle, 2)


def test_explicit_linear_plans_match_the_oracle_on_rs256():
    code = rs_make(GF256, list(range(256)), 16).code
    rng = random.Random(256)
    cases = []
    for target in (0, 100, 255):
        others = [c for c in range(256) if c != target]
        for t in (0, 1, 2):
            cases.append((target, rng.sample(others, 16 + t), t))
    assert assert_explicit_linear_plans_match_the_oracle(code, cases)


# ---------------------------------------------------------------------------
# detect / recover / repair on the worked example
# ---------------------------------------------------------------------------

def test_detect_on_the_worked_example_values():
    plan = plan_lrcrs(example_code(), 0)
    assert not detect(plan, (6, 9, 0))
    assert detect(plan, (7, 9, 0))
    assert not detect(plan, (0, 0, 0))


def test_recover_on_the_worked_example_values():
    plan = plan_lrcrs(example_code(), 0)
    assert recover(plan, (6, 9, 0)) == 2
    assert recover(plan, (0, 0, 0)) == 0


def test_recover_matches_the_dual_word_formula():
    spec = example_code()
    rng = random.Random(73)
    for _ in range(30):
        target = rng.randrange(12)
        plan = plan_lrcrs(spec, target)
        values = [rng.randrange(13) for _ in plan.helpers]
        w_i = plan.weights[plan.target_pos]
        helper_w = [w for idx, w in enumerate(plan.weights)
                    if idx != plan.target_pos]
        formula = F13.mul(F13.neg(F13.inv(w_i)), oracle_dot(F13, helper_w, values))
        assert recover(plan, values) == formula


def test_repair_outcomes():
    plan = plan_lrcrs(example_code(), 0)
    assert repair(plan, (6, 9, 0)).value == 2
    assert repair(plan, (7, 9, 0)).detected
    assert repair(plan, (0, 0, 0)).value == 0


def test_repair_roundtrip_over_seeded_messages():
    spec = example_code()
    plans = [plan_lrcrs(spec, i) for i in range(12)]
    rng = random.Random(79)
    for _ in range(100):
        message = [rng.randrange(13) for _ in range(6)]
        word = encode(spec, message).symbols
        for target in range(12):
            plan = plans[target]
            outcome = repair(plan, [word[c] for c in plan.helpers])
            assert outcome.value == word[target]


def test_soundness_exhaustive_over_all_fibre_restrictions():
    # every restriction of a codeword to a fibre is a short RS codeword;
    # enumerate them all and check clean verdicts plus exact recovery
    spec = example_code()
    for block in range(spec.u):
        coords = spec.fibre_coords(block * (spec.r + 1))
        members = spec.fibres[block][1]
        local = rs_make(F13, members, spec.r - 1)
        plans = {target: plan_lrcrs(spec, target) for target in coords}
        for msg in itertools.product(range(13), repeat=spec.r - 1):
            restriction = encode(local, list(msg)).symbols
            by_coord = dict(zip(coords, restriction))
            for target in coords:
                plan = plans[target]
                values = [by_coord[c] for c in plan.helpers]
                assert not detect(plan, values)
                assert recover(plan, values) == by_coord[target]


def test_single_error_always_detected_and_naive_always_wrong():
    spec = example_code()
    rng = random.Random(83)
    plans = [plan_lrcrs(spec, i) for i in range(12)]
    for _ in range(10):
        message = [rng.randrange(13) for _ in range(6)]
        word = encode(spec, message).symbols
        for target in range(12):
            plan = plans[target]
            clean = [word[c] for c in plan.helpers]
            for pos in range(3):
                for err in range(1, 13):
                    values = list(clean)
                    values[pos] = F13.add(values[pos], err)
                    assert detect(plan, values)
                    assert recover(plan, values) != word[target]


def test_wrong_helper_count_rejected():
    # every read checks the count before its kernel, whose zip would read a
    # short vector's symbols against the wrong row entries; on every kernel
    # kind
    for field in (F13, Field(2, 4), GF256, Field(3, 5), Field(2, 17)):
        spec = rs_make(field, list(range(8)), 3)
        plan = plan_rs(spec, 0, 1)
        clean, _ = codeword_values(spec, plan, 7)
        r = len(clean)
        for values in (clean[:-1], clean + [1]):
            for read in (detect, recover, repair):
                with pytest.raises(WrongLengthError, match=(
                        rf"^expected {r} helper symbols, got {len(values)}$")):
                    read(plan, values)


def test_truncate_detection():
    plan = plan_lrcrs(example_code(), 0)
    bare = truncate_detection(plan, 0)
    assert bare.check_rows == () and bare.t == 0
    assert recover(bare, (6, 9, 0)) == 2
    with pytest.raises(ValueError):
        truncate_detection(plan, 2)


def test_fibre_plans_detect_up_to_the_spec_capacity():
    # one rule for the fibre's capacity (spec.t_cap): plan_lrcrs reads the
    # local_k + t lowest fibre mates at every t up to it (2 at t = 0, 3 at
    # t = 1), plan_for and mult_count go through it, and a larger t is
    # refused by name
    spec = example_code()
    bundle = descriptor.build_code({"field": {"p": 13}, "construction": "lrcrs",
                                    "p_poly": [0, 0, 0, 0, 1], "l": [2, 2]})
    assert spec.t_cap == 1
    for target in range(spec.n):
        mates = tuple(c for c in spec.fibre_coords(target) if c != target)
        full = plan_lrcrs(spec, target)
        assert plan_lrcrs(spec, target, 1) == full == plan_for(bundle, target, 1)
        assert full.helpers == mates
        bare = plan_lrcrs(spec, target, 0)
        assert bare == plan_for(bundle, target, 0)
        assert bare.helpers == mates[:2] and bare.check_rows == ()
    for call in (lambda: plan_lrcrs(spec, 0, 2), lambda: mult_count(spec, 0, 2)):
        with pytest.raises(NotEnoughCoordinatesError,
                           match="^t = 2 exceeds the capacity t_cap = 1 of the "
                                 "target's fibre of 4 coordinates$"):
            call()
    tally = mult_count(spec, 0, 0, helper_values=(6, 9))
    assert tally["repair"]["mul"] == tally["helpers"] == 2
    assert tally["outcome"].value == 2


ZERO_LRCRS_DESC = {"field": {"p": 3, "m": 2}, "construction": "lrcrs",
                   "p_poly": [0, 0, 1], "l": []}


def test_a_zero_dimension_piecewise_rs_code_plans_through_plan_linear():
    # GF(9), y = x^2, l = []: n = 8, k = 0, so every coordinate is a zero
    # column, locality 0 with the empty witness, as analyze reports it
    bundle = descriptor.build_code(ZERO_LRCRS_DESC)
    assert (bundle.spec.n, bundle.spec.k) == (8, 0)
    for t in (0, 1):
        for target in range(bundle.spec.n):
            plan = plan_for(bundle, target, t)
            assert plan == plan_linear(bundle.code, target, t)
            assert plan.helpers == () and plan.check_rows == ()
            assert recover(plan, ()) == 0


@pytest.mark.parametrize("t, message", [
    (-1, "t must be nonnegative, got -1"),
    (True, "t must be an integer, got True"),
    (0.0, "t must be an integer, got 0.0"),
], ids=["negative", "bool", "float"])
def test_truncate_detection_checks_t(t, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        truncate_detection(plan_lrcrs(example_code(), 0), t)


# ---------------------------------------------------------------------------
# operation counting
# ---------------------------------------------------------------------------

def test_recovery_weight_costs_exactly_r_multiplications():
    counting = CountingField(F13)
    support = (1, 5, 8, 12)
    for alpha in support:
        counting.reset()
        recovery_weight(counting, support, alpha)
        assert counting.mul_count == 3
        assert counting.inv_count == 1
        assert counting.neg_count == 1


def test_repair_cost_from_a_stored_plan():
    spec = example_code()
    tally = mult_count(spec, 0, t=1, helper_values=(6, 9, 0))
    r = tally["helpers"]
    assert r == 3
    assert tally["repair"]["mul"] == (1 + 1) * r        # t rows + recovery row
    assert tally["repair"]["inv"] == 0
    assert tally["repair"]["mul"] + tally["repair"]["inv"] <= 2 * r + 1 + 2
    assert tally["outcome"].value == 2
    build = tally["plan_build"]
    assert build["mul"] <= r * (r + 1 + 2)
    assert build["inv"] == r + 2


@pytest.mark.parametrize("t, message", [
    (True, "t must be an integer, got True"),
    (1.0, "t must be an integer, got 1.0"),
    (-1, "t must be nonnegative, got -1"),
], ids=["bool", "float", "negative"])
def test_mult_count_refuses_a_malformed_t(t, message):
    for spec in (example_code(), rs_make(F13, list(range(8)), 3)):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            mult_count(spec, 0, t)
    assert mult_count(example_code(), 0, 1)["helpers"] == 3


def test_plain_recovery_costs_r_multiplications():
    spec = rs_make(F13, list(range(8)), 3)
    tally = mult_count(spec, 0, t=0, helper_values=(1, 2, 3))
    assert tally["repair"]["mul"] == tally["helpers"]
    assert tally["repair"]["inv"] == 0


@pytest.mark.parametrize("spec, target, t, expected", [
    (example_code(), 0, 1, {"mul": 18, "inv": 5, "add": 15, "neg": 5, "pow": 0}),
    (example_code(), 0, 0, {"mul": 8, "inv": 4, "add": 6, "neg": 4, "pow": 0}),
    (rs_make(F13, list(range(8)), 3), 0, 0,
     {"mul": 15, "inv": 5, "add": 12, "neg": 5, "pow": 0}),
    (rs_make(F13, list(range(8)), 3), 0, 1,
     {"mul": 28, "inv": 6, "add": 24, "neg": 6, "pow": 0}),
    (rs_make(F13, list(range(8)), 3), 0, 2,
     {"mul": 45, "inv": 7, "add": 35, "neg": 7, "pow": 0}),
    (rs_make(GF256, list(range(256)), 16), 200, 1,
     {"mul": 340, "inv": 19, "add": 323, "neg": 19, "pow": 0}),
    (rs_make(GF256, list(range(256)), 16), 200, 2,
     {"mul": 396, "inv": 20, "add": 360, "neg": 20, "pow": 0}),
], ids=["fibre12-t1", "fibre12-t0", "rs8-t0", "rs8-t1", "rs8-t2", "rs256-t1",
        "rs256-t2"])
def test_plan_build_tallies_are_pinned(spec, target, t, expected):
    # r weights of r multiplications each, t detection rows, one recovery row
    assert mult_count(spec, target, t)["plan_build"] == expected


@pytest.mark.parametrize("helpers", [[1, 2], [4, 5, 6]],
                         ids=["too-few", "outside-the-fibre"])
def test_mult_count_checks_explicit_helpers_on_a_fibre_spec(helpers):
    # coordinate 0's fibre is 0..3; outside it the polynomial words of
    # _build_plan are not dual codewords, so such a plan would be wrong
    with pytest.raises(HelpersNotEdrError,
                       match=r"^t = 1 takes exactly 3 helpers in the target's "
                             rf"fibre 0\.\.3, got {re.escape(str(helpers))}$"):
        mult_count(example_code(), 0, 1, helpers=helpers)
    assert (mult_count(example_code(), 0, 1, helpers=[1, 2, 3])
            == mult_count(example_code(), 0, 1))


# (spec, largest t checked); None means the spec's t_cap
ONE_RULE_CODES = [
    (example_code(), None),
    (lrcrs_make(Field(17), [0, 0, 0, 0, 1], [1, 1]), None),
    (lrcrs_make(Field(19), [0, 0, 0, 1], [3]), None),
    (lrcrs_make(Field(5, 2), [0, 0, 0, 0, 1], [2, 2]), None),
    (lrcrs_make(GF256, [0, 0, 0, 0, 0, 1], [4, 4, 4]), None),
    (rs_make(Field(17), list(range(14)), 6), 2),
]


@pytest.mark.parametrize("spec, top", ONE_RULE_CODES,
                         ids=["[12,6]/GF(13)", "[16,4]/GF(17)", "[18,4]/GF(19)",
                              "[24,6]/GF(25)", "[255,15]/GF(2^8)",
                              "RS[14,6]/GF(17)"])
def test_every_plan_reads_the_local_k_plus_t_lowest_fibre_mates(spec, top):
    # the one plan rule: on the target's fibre every codeword restricts to
    # an MDS code of dimension local_k, so its local_k + t lowest other
    # coordinates detect t errors, for every t up to t_cap
    top = spec.t_cap if top is None else top
    assert top <= spec.t_cap
    for t in range(top + 1):
        locality = (t_locality(spec.code, t).per_coord if spec.n <= 20
                    else None)
        for target in range(spec.n):
            plan = plan_rs(spec, target, t)
            r = spec.local_k + t
            mates = [c for c in spec.fibre_coords(target) if c != target]
            assert plan.helpers == tuple(mates[:r])
            assert codeops.is_edr_set(spec.code, target, plan.helpers, t)
            if locality is not None:
                assert locality[target].locality == r
            linear = plan_linear(spec.code, target, t, helpers=plan.helpers)
            if t == 0:
                # the dual on the barred set is one-dimensional
                assert plan.recovery_row == linear.recovery_row
            else:
                assert (codeops.code_from_rows(spec.field, plan.check_rows, r)
                        == codeops.code_from_rows(spec.field, linear.check_rows,
                                                  r))
            values, symbol = codeword_values(spec, plan, target)
            tally = mult_count(spec, target, t, helper_values=values)
            assert tally["helpers"] == r
            assert tally["plan_build"]["mul"] <= r * (r + t + 2)
            assert tally["repair"]["mul"] == (t + 1) * r
            assert tally["outcome"].value == symbol


def oracle_plan_words(spec, barred, target, t):
    """The recovery word, detection rows and recovery row of the RS or fibre
    plan on barred, recomputed through the public checked operations."""
    f = spec.field
    pts = [spec.points[c] for c in barred]

    def weight(alpha):
        acc = 1
        for gamma in pts:
            if gamma != alpha:
                acc = f.mul(acc, f.sub(alpha, gamma))
        return f.neg(f.inv(acc))

    weights = [weight(a) for a in pts]
    at = spec.points[target]
    helper = [(a, w) for a, w in zip(pts, weights) if a != at]
    rows = []
    row = [f.mul(f.sub(a, at), w) for a, w in helper]
    for _ in range(t):
        rows.append(tuple(row))
        row = [f.mul(a, z) for (a, _), z in zip(helper, row)]
    scale = f.neg(f.inv(weights[pts.index(at)]))
    return (tuple(weights), tuple(rows),
            tuple(f.mul(scale, w) for _, w in helper))


def plan_words(plan):
    return plan.weights, plan.check_rows, plan.recovery_row


@pytest.mark.parametrize("spec, ts", [
    (rs_make(GF256, list(range(256)), 16), (1, 2)),
    (rs_make(Field(3, 5), list(range(0, 243, 5)), 6), (0, 1, 2)),
    (rs_make(Field(2, 17), list(range(70000, 70024)), 5), (0, 1, 2)),
    (rs_make(Field(3, 11), list(range(90000, 90020)), 4), (0, 1, 2)),
], ids=["RS[256,16]/GF(2^8)", "RS[49,6]/GF(3^5)", "RS[24,5]/GF(2^17)",
        "RS[20,4]/GF(3^11)"])
def test_rs_plans_match_the_checked_oracle_on_every_coordinate(spec, ts):
    for t in ts:
        for target in range(spec.n):
            plan = plan_rs(spec, target, t)
            need = spec.k + t
            assert plan.helpers == tuple(
                c for c in range(spec.n) if c != target)[:need]
            assert plan_words(plan) == oracle_plan_words(spec, plan.barred,
                                                         target, t)


def test_fibre_plans_match_the_checked_oracle_on_the_gf256_fibre_code():
    spec = lrcrs_make(GF256, [0, 0, 0, 0, 0, 1], [4, 4, 4])
    for target in range(spec.n):
        plan = plan_lrcrs(spec, target)
        assert plan_words(plan) == oracle_plan_words(spec, plan.barred,
                                                     target, 1)


def codeword_values(spec, plan, seed):
    """Helper symbols of one seeded codeword of spec, and its target symbol."""
    rng = random.Random(seed)
    word = encode(spec, [rng.randrange(spec.field.q) for _ in range(spec.k)]).symbols
    return [word[c] for c in plan.helpers], word[plan.target]


@pytest.mark.parametrize("t", [1, 2])
def test_repair_cost_on_rs256_is_t_plus_one_times_r_multiplications(t):
    spec = rs_make(GF256, list(range(256)), 16)
    for target in (0, 200, 255):
        values, symbol = codeword_values(spec, plan_rs(spec, target, t), target)
        tally = mult_count(spec, target, t=t, helper_values=values)
        r = tally["helpers"]
        assert r == 16 + t
        assert tally["repair"]["mul"] == tally["repair"]["add"] == (t + 1) * r
        assert tally["repair"]["inv"] == 0
        assert tally["outcome"].value == symbol


def test_repair_cost_on_the_gf256_fibre_code():
    spec = lrcrs_make(GF256, [0, 0, 0, 0, 0, 1], [4, 4, 4])
    for target in (0, 7, 254):
        values, symbol = codeword_values(spec, plan_lrcrs(spec, target), target)
        tally = mult_count(spec, target, t=1, helper_values=values)
        r = tally["helpers"]
        assert r == 4
        assert tally["repair"]["mul"] == tally["repair"]["add"] == 2 * r
        assert tally["repair"]["inv"] == 0
        assert tally["outcome"].value == symbol


# ---------------------------------------------------------------------------
# the read kernel and the read boundary
# ---------------------------------------------------------------------------

KERNEL_FIELDS = [Field(13), Field(17), Field(2, 4), GF256, Field(3, 5),
                 Field(2, 17)]


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=repr)
def test_field_dot_matches_the_checked_oracle(field):
    # the read kernel with no check rows is the recovery row's inner product
    rng = random.Random(field.q)
    edges = [0, 1, field.q - 1]
    for length in range(21):
        for _ in range(6):
            xs = [rng.choice(edges) if rng.random() < 0.3 else rng.randrange(field.q)
                  for _ in range(length)]
            ys = [rng.choice(edges) if rng.random() < 0.3 else rng.randrange(field.q)
                  for _ in range(length)]
            got = field._reader((), xs)(ys)
            assert got == oracle_dot(field, xs, ys)
            assert type(got) is int


def generator_code_with_zeros():
    """A [8,3] code over GF(2^4) whose plans carry zero entries."""
    rows = [[1, 0, 0, 1, 3, 0, 5, 7],
            [0, 1, 0, 1, 0, 9, 2, 0],
            [0, 0, 1, 0, 1, 4, 0, 11]]
    return codeops.code_from_rows(Field(2, 4), rows)


def oracle_cases():
    """(plans for every coordinate, codeword sampler) for each code."""
    gf17, gf16, gf243 = Field(17), Field(2, 4), Field(3, 5)
    fibre = example_code()
    specs = [([plan_lrcrs(fibre, c) for c in range(fibre.n)], fibre)]
    for spec, t in ((rs_make(GF256, list(range(256)), 16), 1),
                    (rs_make(gf17, list(range(14)), 6), 2),
                    (rs_make(gf16, list(range(12)), 5), 1),
                    (rs_make(gf243, list(range(0, 200, 5)), 7), 2)):
        specs.append(([plan_rs(spec, c, t) for c in range(spec.n)], spec))
    # every read kernel at t = 0 (no check row: the table kernel's zero first
    # row), 1 and 2 (the second row after the first)
    for field in KERNEL_FIELDS:
        spec = rs_make(field, list(range(10)), 4)
        for t in (0, 1, 2):
            specs.append(([plan_rs(spec, c, t) for c in (0, 9)], spec))
    for plans, spec in specs:
        yield plans, lambda rng, spec=spec: encode(
            spec, [rng.randrange(spec.field.q) for _ in range(spec.k)]).symbols

    code = generator_code_with_zeros()
    plans = [plan_linear(code, c, 1) for c in range(code.n)]
    assert any(0 in plan.recovery_row or any(0 in row for row in plan.check_rows)
               for plan in plans)

    def sample(rng):
        message = [rng.randrange(16) for _ in range(code.k)]
        return [oracle_dot(code.field, message, col) for col in zip(*code.gen)]
    yield plans, sample


def test_reads_match_the_checked_oracle_on_every_plan():
    rng = random.Random(97)
    for plans, sample in oracle_cases():
        for plan in plans:
            field = plan.field
            word = sample(rng)
            clean = [word[c] for c in plan.helpers]
            variants = [clean]
            for bad in range(1, plan.t + 2):
                values = list(clean)
                for pos in rng.sample(range(len(values)), bad):
                    values[pos] = field.add(values[pos], rng.randrange(1, field.q))
                variants.append(values)
            for values in variants:
                expected = oracle_repair(plan, values)
                assert repair(plan, values).value == expected
                assert detect(plan, values) == any(
                    oracle_dot(field, row, values) for row in plan.check_rows)
                assert recover(plan, values) == oracle_dot(
                    field, plan.recovery_row, values)
            assert repair(plan, clean).value == word[plan.target]


def test_the_read_kernel_takes_the_second_check_row_and_truncation_drops_it():
    # two errors that the first check row of a t = 2 plan on RS[256,16] does
    # not see: the second row flags them, and the plan truncated to t = 1
    # returns the recovery row's (wrong) value
    spec = rs_make(GF256, list(range(256)), 16)
    plan = plan_rs(spec, 200, 2)
    clean, symbol = codeword_values(spec, plan, 3)
    first, second = plan.check_rows
    errors = [0] * len(clean)
    errors[0], errors[1] = 1, GF256.div(first[0], first[1])   # -x = x in GF(2^8)
    values = [GF256.add(v, e) for v, e in zip(clean, errors)]
    assert oracle_dot(GF256, first, values) == 0
    assert oracle_dot(GF256, second, values) != 0
    assert repair(plan, values).detected and detect(plan, values)
    truncated = truncate_detection(plan, 1)
    assert truncated.check_rows == (first,)
    wrong = oracle_dot(GF256, plan.recovery_row, values)
    assert wrong != symbol
    assert not detect(truncated, values)
    assert repair(truncated, values).value == recover(truncated, values) == wrong
    assert repair(truncated, clean).value == symbol


def test_plan_copies_compare_equal_and_read_alike():
    # a copy or an unpickled plan builds its read kernel on its own field
    for spec, t in ((example_code(), 1), (rs_make(GF256, list(range(256)), 16), 2),
                    (rs_make(Field(2, 4), list(range(12)), 5), 0),
                    (rs_make(Field(3, 5), list(range(0, 200, 5)), 7), 2)):
        plan = plan_rs(spec, 1, t)
        clean, symbol = codeword_values(spec, plan, 17)
        bad = [spec.field.add(clean[0], 1)] + clean[1:]
        for copied in (copy.deepcopy(plan), copy.copy(plan),
                       pickle.loads(pickle.dumps(plan))):
            assert copied == plan and hash(copied) == hash(plan)
            assert copied._read is not plan._read
            assert repr(copied) == repr(plan) and "_read" not in repr(plan)
            assert repair(copied, clean).value == symbol
            for values in (clean, bad):
                assert repair(copied, values) == repair(plan, values)
                assert detect(copied, values) == detect(plan, values)
                assert recover(copied, values) == recover(plan, values)


@pytest.mark.parametrize("field", [F13, GF256, Field(3, 5), Field(2, 17)],
                         ids=repr)
def test_read_outcomes_equal_fresh_outcomes(field):
    # clean reads share their outcomes below 257 elements and build them past
    # that (GF(2^17) reads values above 255); each equals, hashes and pickles
    # as RepairOutcome(value), and every flagged read as RepairOutcome(None)
    spec = rs_make(field, list(range(8)), 3)
    values_read = set()
    for target in range(spec.n):
        plan = plan_rs(spec, target, 1)
        for seed in range(8):
            clean, symbol = codeword_values(spec, plan, seed)
            bad = [field.add(clean[0], 1)] + clean[1:]
            for values, expected in ((clean, RepairOutcome(symbol)),
                                     (bad, RepairOutcome(None))):
                outcome = repair(plan, values)
                assert outcome == expected and hash(outcome) == hash(expected)
                assert type(outcome) is RepairOutcome
                assert outcome.detected == expected.detected
                assert pickle.loads(pickle.dumps(outcome)) == expected
            values_read.add(symbol)
    assert max(values_read) > 255 or field.q <= 256


@pytest.mark.parametrize("field", [F13, GF256, Field(3, 5), Field(2, 17)],
                         ids=repr)
def test_reads_reject_non_canonical_helper_symbols(field):
    spec = rs_make(field, list(range(8)), 3)
    plan = plan_rs(spec, 0, 1)
    clean, _ = codeword_values(spec, plan, 5)
    for bad in (field.q, -1, 2.5, None, False):
        for pos in (0, len(clean) - 1):
            values = list(clean)
            values[pos] = bad
            for read in (detect, recover, repair):
                with pytest.raises(ValueError, match=rf"^{re.escape(repr(bad))} is not"):
                    read(plan, values)


# ---------------------------------------------------------------------------
# plan cache
# ---------------------------------------------------------------------------

def test_plan_cache_returns_identical_plans():
    spec = example_code()
    cache = PlanCache()
    built = []

    def build():
        plan = plan_lrcrs(spec, 0)
        built.append(plan)
        return plan

    first = cache.get_or_build(("digest", 0, 1), build)
    second = cache.get_or_build(("digest", 0, 1), build)
    assert first is second
    assert len(built) == 1
    assert len(cache) == 1


def test_plan_cache_concurrent_reads():
    spec = example_code()
    cache = PlanCache()
    results = []

    def worker(target):
        plan = cache.get_or_build(
            ("digest", target, 1), lambda: plan_lrcrs(spec, target))
        results.append((target, plan.target))

    threads = [threading.Thread(target=worker, args=(i % 12,)) for i in range(48)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    assert all(target == planned for target, planned in results)
    assert len(cache) == 12
