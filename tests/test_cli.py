import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import time

import pytest

from loceret import cli, codeops, galois
from loceret.descriptor import (DescriptorError, build_code, build_field,
                                descriptor_digest, load_descriptor,
                                parse_descriptor)
from loceret.galois import Field
from loceret.localrepair import plan_linear
from loceret.rscodes import rs_make

EXAMPLE_DESC = {"field": {"p": 13, "m": 1}, "construction": "lrcrs",
              "p_poly": [0, 0, 0, 0, 1], "l": [2, 2]}
RS83_DESC = {"field": {"p": 13, "m": 1}, "construction": "rs",
             "points": [0, 1, 2, 3, 4, 5, 6, 7], "k": 3}

EXAMPLE_WORD = "? 6 9 0 7 10 5 8 11 3 12 4\n"
EXAMPLE_WORD_CORRUPTED = "? 7 9 0 7 10 5 8 11 3 12 4\n"


def write_json(path, obj):
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# descriptors
# ---------------------------------------------------------------------------

def test_descriptor_constructions():
    bundle = build_code(EXAMPLE_DESC)
    assert bundle.kind == "lrcrs" and bundle.code.n == 12 and bundle.code.k == 6

    rs = build_code({"field": {"p": 13, "m": 1}, "construction": "rs",
                     "points": "all", "k": 4})
    assert rs.code.n == 13 and rs.code.k == 4

    gen = build_code({"field": {"p": 5, "m": 1}, "construction": "generator",
                      "rows": [[1, 0, -1], [0, 1, 2]]})
    assert gen.code.k == 2
    assert gen.code.gen[0][2] == 4               # -1 normalized mod 5


def test_descriptor_with_extension_field_modulus():
    bundle = build_code({"field": {"p": 2, "m": 8,
                                   "modulus": [1, 1, 0, 1, 1, 0, 0, 0, 1]},
                         "construction": "rs", "points": [1, 2, 3, 4], "k": 2})
    assert bundle.field == Field(2, 8)


def test_descriptor_digest_is_stable_and_content_sensitive():
    a = descriptor_digest(EXAMPLE_DESC)
    assert a == descriptor_digest(json.loads(json.dumps(EXAMPLE_DESC)))
    assert a != descriptor_digest(RS83_DESC)
    assert len(a) == 64


def test_descriptor_parse_errors_carry_diagnostics():
    with pytest.raises(DescriptorError) as err:
        parse_descriptor("{ not json")
    assert "line 1" in str(err.value)
    with pytest.raises(DescriptorError) as err:
        build_code({"field": {"p": 13}, "construction": "warp"})
    assert "construction" in str(err.value)
    with pytest.raises(DescriptorError) as err:
        build_code({"field": {"p": 4}, "construction": "rs",
                    "points": "all", "k": 2})
    assert "field" in str(err.value)
    with pytest.raises(DescriptorError) as err:
        build_code({"field": {"p": 13}, "construction": "rs", "points": "all"})
    assert "k" in str(err.value)


@pytest.mark.parametrize("field", [{"p": 2305843009213693951},
                                   {"p": 3, "m": 20000000}], ids=["p", "m"])
def test_oversized_field_descriptors_fail_fast(field, tmp_path, capsys):
    desc = write_json(tmp_path / "code.json", {
        "field": field, "construction": "rs", "points": [0, 1, 2], "k": 2})
    start = time.perf_counter()
    with pytest.raises(DescriptorError, match=r"^field: .*exceeds the cap"):
        build_code(load_descriptor(desc))
    assert cli.main(["analyze", desc]) == 1
    assert capsys.readouterr().err.startswith("error: field: ")
    assert time.perf_counter() - start < 1.0


BOOLEAN_AS_INTEGER = {  # field named in the error -> descriptor
    "field.p": {"field": {"p": True}, "construction": "rs",
                "points": "all", "k": 1},
    "field.m": {"field": {"p": 13, "m": True}, "construction": "rs",
                "points": "all", "k": 2},
    "field.modulus": {"field": {"p": 2, "m": 2, "modulus": [1, True, 1]},
                      "construction": "rs", "points": "all", "k": 2},
    "rs.k": {"field": {"p": 13}, "construction": "rs",
             "points": "all", "k": True},
    "rs.points": {"field": {"p": 13}, "construction": "rs",
                  "points": [0, True, 2], "k": 2},
    "lrcrs.p_poly": {"field": {"p": 13}, "construction": "lrcrs",
                     "p_poly": [0, 0, 0, 0, True], "l": [2, 2]},
    "lrcrs.l": {"field": {"p": 13}, "construction": "lrcrs",
                "p_poly": [0, 0, 0, 0, 1], "l": [2, True]},
    "generator.rows": {"field": {"p": 13}, "construction": "generator",
                       "rows": [[1, 0], [0, False]]},
}


@pytest.mark.parametrize("name", list(BOOLEAN_AS_INTEGER))
def test_descriptor_rejects_json_booleans_as_integers(name):
    with pytest.raises(DescriptorError) as err:
        build_code(BOOLEAN_AS_INTEGER[name])
    assert str(err.value).startswith(name)


@pytest.mark.skipif(not any(importlib.util.find_spec(name)
                            for name in ("_sha2", "_sha256")),
                    reason="this Python has no builtin SHA-256")
def test_importing_the_package_does_not_load_openssl_hashes():
    # hashlib maps OpenSSL's libcrypto, about 3.5 MB resident
    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = "import sys, loceret; print('_hashlib' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=60,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"


def test_descriptor_digest_ignores_default_valued_keys():
    minimal = {"field": {"p": 13}, "construction": "rs", "points": "all", "k": 4}
    spelled = {"field": {"p": 13, "m": 1, "modulus": None},
               "construction": "rs", "points": "all", "k": 4}
    assert descriptor_digest(minimal) == descriptor_digest(spelled)
    assert build_code(minimal).digest == build_code(spelled).digest
    # a minimal descriptor hashes its own JSON text, as before
    text = json.dumps(minimal, sort_keys=True, separators=(",", ":"))
    assert descriptor_digest(minimal) == hashlib.sha256(text.encode()).hexdigest()
    assert descriptor_digest({**minimal, "field": {"p": 13, "m": 2}}) != \
        descriptor_digest(minimal)


def test_descriptor_digest_ignores_the_default_modulus():
    base = {"construction": "rs", "points": "all", "k": 4}
    minimal = {**base, "field": {"p": 2, "m": 8}}
    # the default irreducible as written, and the same after reducing mod 2
    for modulus in ([1, 1, 0, 1, 1, 0, 0, 0, 1], [3, 1, 0, -1, 1, 0, 2, 0, 1]):
        spelled = {**base, "field": {"p": 2, "m": 8, "modulus": modulus}}
        assert build_field(spelled) == build_field(minimal)
        assert descriptor_digest(spelled) == descriptor_digest(minimal)
    other = {**base, "field": {"p": 2, "m": 8,
                               "modulus": [1, 0, 1, 1, 1, 0, 0, 0, 1]}}
    assert build_field(other) != build_field(minimal)
    assert descriptor_digest(other) != descriptor_digest(minimal)


def test_descriptor_digest_searches_for_the_default_modulus_once(monkeypatch):
    # 1 + x + x^3 + x^5 + x^16, the irreducible Field(2, 16) picks
    modulus = [1, 1, 0, 1, 0, 1] + [0] * 10 + [1]
    spelled = {"field": {"p": 2, "m": 16, "modulus": modulus},
               "construction": "rs", "points": [1, 2, 3, 4], "k": 2}
    minimal = {**spelled, "field": {"p": 2, "m": 16}}
    text = json.dumps(minimal, sort_keys=True, separators=(",", ":"))
    expected = hashlib.sha256(text.encode()).hexdigest()
    tested = []
    is_irreducible = galois.is_irreducible

    def counted(p, coeffs):
        tested.append(tuple(coeffs))
        return is_irreducible(p, coeffs)

    galois.find_irreducible.cache_clear()
    monkeypatch.setattr(galois, "is_irreducible", counted)
    assert descriptor_digest(spelled) == expected
    searched = len(tested)
    assert searched and tested[-1] == tuple(modulus)
    assert descriptor_digest(spelled) == expected
    assert len(tested) == searched
    assert expected == \
        "99f082434fbda27b5b19fc4fbe37e4a9117cee9f1c4c8db04c27a5802a1a8b12"


@pytest.mark.parametrize("frag", [
    {"p": 4, "m": 2, "modulus": [1, 1, 1]},
    {"p": 2, "modulus": [1, 1, 0, 1, 1, 0, 0, 0, 1]},
    {"p": 2, "m": 8, "modulus": "x^8+x^4+x^3+x+1"},
    {"p": 2, "m": 2, "modulus": [1, True, 1]},
    {"p": 2, "m": True, "modulus": [1, 1, 1]},
    {"p": 2, "m": 2, "modulus": [1, 1]},
    {"p": 2.0, "m": 2, "modulus": [1, 1, 1]},
    {"m": 2, "modulus": [1, 1, 1]},
    {"p": 2, "m": 30, "modulus": [1] * 31},
], ids=["p-not-prime", "no-extension", "modulus-string", "modulus-bool",
        "m-bool", "modulus-too-short", "p-float", "p-missing", "too-large"])
def test_malformed_field_fragment_digest_hashes_it_as_written(frag):
    desc = {"field": frag, "construction": "rs", "points": "all", "k": 2}
    text = json.dumps(desc, sort_keys=True, separators=(",", ":"))
    assert descriptor_digest(desc) == hashlib.sha256(text.encode()).hexdigest()


def test_load_descriptor(tmp_path):
    path = write_json(tmp_path / "code.json", EXAMPLE_DESC)
    assert load_descriptor(path) == EXAMPLE_DESC


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def test_analyze_example_code_is_one_optimal(tmp_path, capsys):
    desc = write_json(tmp_path / "code.json", EXAMPLE_DESC)
    out = tmp_path / "report.json"
    assert cli.main(["analyze", desc, "--t", "1", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["locality"] == 3
    assert doc["distance"] == {"value": 3, "kind": "exact"}
    assert doc["t_optimal"] is True
    assert doc["bounds"]["statuses"]["locality_singleton"]["equality"]
    assert "t-optimal" in capsys.readouterr().out


def test_analyze_report_holds_the_library_certificate(tmp_path):
    desc = write_json(tmp_path / "code.json", RS83_DESC)
    out = tmp_path / "report.json"
    assert cli.main(["analyze", desc, "--t", "1", "--out", str(out)]) == 0
    bundle = build_code(RS83_DESC)
    cert = codeops.certify(bundle.code, 1, bundle.spec).to_dict()
    cert = json.loads(json.dumps(cert))         # witness tuples as lists
    doc = json.loads(out.read_text())
    assert {key: doc[key] for key in cert} == cert


def test_analyze_rs_code_locality(tmp_path):
    desc = write_json(tmp_path / "code.json", RS83_DESC)
    out = tmp_path / "report.json"
    assert cli.main(["analyze", desc, "--t", "1", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["locality"] == 4
    assert doc["dual_ghw"] == 5
    assert doc["bounds"]["statuses"]["dual_weight_hierarchy"]["equality"]


def test_analyze_identity_code_reports_unrecoverable_coordinates(tmp_path):
    desc = write_json(tmp_path / "code.json",
                      {"field": {"p": 13, "m": 1}, "construction": "generator",
                       "rows": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]})
    out = tmp_path / "report.json"
    assert cli.main(["analyze", desc, "--t", "0", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["locality"] is None
    assert doc["not_t_lredc"] == [0, 1, 2]
    assert doc["bounds"] is None


def test_analyze_zero_column_code_with_detection(tmp_path):
    from test_codeops import oracle_locality
    desc = {"field": {"p": 5}, "construction": "generator",
            "rows": [[0, 1, 2, 3], [0, 1, 1, 1]]}
    path = write_json(tmp_path / "code.json", desc)
    out = tmp_path / "report.json"
    assert cli.main(["analyze", path, "--t", "1", "--out", str(out)]) == 0
    per = json.loads(out.read_text())["per_coordinate"]
    assert per[0] == {"coordinate": 0, "locality": 0, "witness": []}
    expected = oracle_locality(build_code(desc).code, 1)
    assert [(c["locality"], c["witness"]) for c in per[1:]] == \
        [(size, None if R is None else list(R)) for size, R in expected[1:]]


# the rows of RS[40,7]/GF(3^5) as a generator code: its distance search
# would reach ~2.9e13 words, past the cap, and no spec gives a bound
RS40_GF243_ROWS = [list(row) for row in
                   rs_make(Field(3, 5), range(40), 7).eval_rows]


@pytest.mark.parametrize("field, rows, kind", [
    ({"p": 13}, [[0] * 5], "zero_code"),
    ({"p": 3, "m": 5}, RS40_GF243_ROWS, "unavailable"),
], ids=["zero_code", "unavailable"])
def test_analyze_summary_says_when_no_distance_is_known(field, rows, kind,
                                                        tmp_path, capsys):
    desc = write_json(tmp_path / "code.json",
                      {"field": field, "construction": "generator",
                       "rows": rows})
    out = tmp_path / "report.json"
    assert cli.main(["analyze", desc, "--t", "0", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["distance"] == {"value": None,
                                                       "kind": kind}
    summary = capsys.readouterr().out.splitlines()[0]
    n, k = len(rows[0]), (0 if kind == "zero_code" else len(rows))
    q = field["p"] ** field.get("m", 1)
    assert summary == f"[{n},{k}] code over GF({q}), no distance known ({kind})"


def test_analyze_finds_the_distance_past_q_to_the_k(tmp_path, capsys):
    # [10,8]/GF(13): q^k = 13^8 is past the enumeration cap, but the
    # search reaches 8 words on one set
    rows = [[int(i == j) for j in range(8)] + [(3 * i + j + 1) % 13 for j in range(2)]
            for i in range(8)]
    desc = write_json(tmp_path / "code.json",
                      {"field": {"p": 13}, "construction": "generator",
                       "rows": rows})
    out = tmp_path / "report.json"
    assert cli.main(["analyze", desc, "--t", "0", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["distance"] == {"value": 2,
                                                       "kind": "exact"}
    summary = capsys.readouterr().out.splitlines()[0]
    assert summary == "[10,8] code over GF(13), d = 2 (exact)"


def test_analyze_with_t_at_least_the_dual_dimension(tmp_path):
    # RS[8,6] has a 2-dimensional dual: d_3 of the dual does not exist and no
    # coordinate has a 2-error-detecting recovery set
    desc = write_json(tmp_path / "code.json",
                      {"field": {"p": 13}, "construction": "rs",
                       "points": list(range(8)), "k": 6})
    out = tmp_path / "report.json"
    assert cli.main(["analyze", desc, "--t", "2", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["dual_ghw"] is None
    assert doc["locality"] is None
    assert doc["not_t_lredc"] == list(range(8))


def test_analyze_downgrades_to_greedy_on_oversized_codes(tmp_path):
    desc = write_json(tmp_path / "code.json",
                      {"field": {"p": 29, "m": 1}, "construction": "rs",
                       "points": "all", "k": 3})
    out = tmp_path / "report.json"
    assert cli.main(["analyze", desc, "--t", "0", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["downgraded_to_greedy"] is True
    assert doc["mode"] == "greedy"
    assert doc["locality"] == 3             # greedy still finds the witness
    assert doc["distance"] == {"value": 27, "kind": "exact"}


def test_analyze_greedy_flag_labels_the_report(tmp_path):
    desc = write_json(tmp_path / "code.json", RS83_DESC)
    out = tmp_path / "report.json"
    assert cli.main(["analyze", desc, "--t", "1", "--greedy",
                     "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["mode"] == "greedy"
    assert doc["exact_search"] is False


# ---------------------------------------------------------------------------
# plan
# ---------------------------------------------------------------------------

def test_plan_example_target_exports_the_expected_vectors(tmp_path):
    desc = write_json(tmp_path / "code.json", EXAMPLE_DESC)
    out = tmp_path / "plan.json"
    assert cli.main(["plan", desc, "--target", "0", "--t", "1",
                     "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["plan"]["helpers"] == [1, 2, 3]
    assert doc["plan"]["detection_rows"] == [[8, 12, 6]]
    assert doc["plan"]["recovery_word"] == [3, 2, 11, 10]


def test_plan_with_zero_detection_has_no_rows(tmp_path):
    desc = write_json(tmp_path / "code.json", RS83_DESC)
    out = tmp_path / "plan.json"
    assert cli.main(["plan", desc, "--target", "2", "--t", "0",
                     "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["plan"]["detection_rows"] == []
    assert len(doc["plan"]["helpers"]) == 3


def test_plan_rejects_an_undersized_helper_set(tmp_path, capsys):
    desc = write_json(tmp_path / "code.json", RS83_DESC)
    assert cli.main(["plan", desc, "--target", "0", "--t", "1",
                     "--helpers", "1,2"]) == 1
    assert "error:" in capsys.readouterr().err


def test_plan_without_helpers_on_a_long_code_fails_at_once(tmp_path, capsys):
    # [255,15]/GF(2^8) fibre code at t = 2: no default helper search past n = 20
    desc = write_json(tmp_path / "code.json", {
        "field": {"p": 2, "m": 8}, "construction": "lrcrs",
        "p_poly": [0, 0, 0, 0, 0, 1], "l": [4, 4, 4]})
    assert cli.main(["plan", desc, "--target", "0", "--t", "2"]) == 1
    err = capsys.readouterr().err
    assert f"exhaustive-search limit {codeops.DEFAULT_EXHAUSTIVE_N}" in err
    assert "pass explicit helpers" in err
    assert "greedy" not in err                 # plan has no greedy mode


def test_plan_of_a_zero_dimension_piecewise_rs_code_matches_plan_linear(tmp_path):
    # GF(9), y = x^2, l = []: every symbol of the [8,0] code is 0, so every
    # coordinate plans with no helpers, as analyze's empty witnesses say
    zero = {"field": {"p": 3, "m": 2}, "construction": "lrcrs",
            "p_poly": [0, 0, 1], "l": []}
    desc = write_json(tmp_path / "code.json", zero)
    code = build_code(zero).code
    analysis = tmp_path / "analysis.json"
    assert cli.main(["analyze", desc, "--t", "1", "--out", str(analysis)]) == 0
    for entry in json.loads(analysis.read_text())["per_coordinate"]:
        assert (entry["locality"], entry["witness"]) == (0, [])
    out = tmp_path / "plan.json"
    for t in (0, 1):
        for target in range(code.n):
            assert cli.main(["plan", desc, "--target", str(target), "--t", str(t),
                             "--out", str(out)]) == 0
            expected = cli._plan_record(plan_linear(code, target, t))
            assert json.loads(out.read_text())["plan"] == expected
            assert expected["helpers"] == []


BAD_T_OR_HELPERS = {  # case -> (argv after the descriptor, message start)
    "plan-negative-t": (["plan", "--target", "0", "--t", "-1"],
                        "error: t must be nonnegative, got -1"),
    "repair-negative-t": (["repair", "--word", "WORD", "--target", "0",
                           "--t", "-1"], "error: t must be nonnegative, got -1"),
    "analyze-negative-t": (["analyze", "--t", "-1"],
                           "error: --t must be nonnegative, got -1"),
    "plan-bad-helpers": (["plan", "--target", "0", "--helpers", "1,2,x"],
                         "error: --helpers: expected comma-separated"),
}


@pytest.mark.parametrize("case", list(BAD_T_OR_HELPERS))
def test_bad_t_or_helpers_name_the_flag(case, tmp_path, capsys):
    argv, message = BAD_T_OR_HELPERS[case]
    desc = write_json(tmp_path / "code.json", EXAMPLE_DESC)
    word = tmp_path / "word.txt"
    word.write_text(EXAMPLE_WORD)
    argv = [argv[0], desc] + [str(word) if a == "WORD" else a for a in argv[1:]]
    out = tmp_path / "out.json"
    assert cli.main(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(message)
    assert not out.exists()


# ---------------------------------------------------------------------------
# repair
# ---------------------------------------------------------------------------

def test_repair_recovers_the_example_word(tmp_path):
    desc = write_json(tmp_path / "code.json", EXAMPLE_DESC)
    word = tmp_path / "word.txt"
    word.write_text(EXAMPLE_WORD)
    out = tmp_path / "repair.json"
    assert cli.main(["repair", desc, "--word", str(word), "--target", "0",
                     "--t", "1", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["outcome"] == {"status": "recovered", "value": 2}


def test_repair_detects_the_corrupted_word(tmp_path):
    desc = write_json(tmp_path / "code.json", EXAMPLE_DESC)
    word = tmp_path / "word.txt"
    word.write_text(EXAMPLE_WORD_CORRUPTED)
    out = tmp_path / "repair.json"
    assert cli.main(["repair", desc, "--word", str(word), "--target", "0",
                     "--t", "1", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["outcome"] == {"status": "error-detected"}


def test_repair_of_the_zero_word(tmp_path):
    desc = write_json(tmp_path / "code.json", EXAMPLE_DESC)
    word = tmp_path / "word.txt"
    word.write_text("? 0 0 0 0 0 0 0 0 0 0 0\n")
    out = tmp_path / "repair.json"
    assert cli.main(["repair", desc, "--word", str(word), "--target", "0",
                     "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["outcome"] == {"status": "recovered", "value": 0}


def test_repair_works_on_rs_descriptors(tmp_path):
    desc = write_json(tmp_path / "code.json", RS83_DESC)
    # codeword of 5 + 2x + x^2 over points 0..7, coordinate 1 erased
    word = tmp_path / "word.txt"
    word.write_text("5 ? 0 7 3 1 1 3\n")
    out = tmp_path / "repair.json"
    assert cli.main(["repair", desc, "--word", str(word), "--target", "1",
                     "--t", "1", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["outcome"] == {"status": "recovered", "value": 8}


def test_repair_validates_the_erasure_pattern(tmp_path, capsys):
    desc = write_json(tmp_path / "code.json", EXAMPLE_DESC)
    word = tmp_path / "word.txt"
    word.write_text("2 6 9 0 7 10 5 8 11 3 12 4\n")
    assert cli.main(["repair", desc, "--word", str(word), "--target", "0"]) == 1
    word.write_text("? ? 9 0 7 10 5 8 11 3 12 4\n")
    assert cli.main(["repair", desc, "--word", str(word), "--target", "0"]) == 1
    word.write_text("2 ? 9 0 7 10 5 8 11 3 12 4\n")
    assert cli.main(["repair", desc, "--word", str(word), "--target", "0"]) == 1
    capsys.readouterr()


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def simulate_config(tmp_path, **overrides):
    config = {"code": EXAMPLE_DESC, "t": 1,
              "channel": {"kind": "bernoulli", "epsilon": 0.0},
              "trials": 200, "seed": 9, "target_policy": "round-robin"}
    config.update(overrides)
    return write_json(tmp_path / "sim.json", config)


def test_simulate_clean_channel(tmp_path, monkeypatch):
    # a single run goes through the sweep driver too, as one "default" run
    calls = []
    driver = cli.storagesim.compare_policies

    def spy(config, policies=None, sweep=None):
        calls.append((policies, sweep))
        return driver(config, policies, sweep)
    monkeypatch.setattr(cli.storagesim, "compare_policies", spy)
    cfg = simulate_config(tmp_path)
    out = tmp_path / "report.json"
    assert cli.main(["simulate", cfg, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["report"]["counts"]["clean_correct"] == 200
    assert calls == [(None, None)]


def test_simulate_single_error_channel_detects_everything(tmp_path):
    cfg = simulate_config(tmp_path, channel={"kind": "exact", "errors": 1})
    out = tmp_path / "report.json"
    assert cli.main(["simulate", cfg, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["report"]["counts"]["detected"] == 200
    assert doc["report"]["rates"]["detected"]["rate"] == 1.0


def test_simulate_repeat_is_byte_identical(tmp_path):
    cfg = simulate_config(tmp_path, channel={"kind": "bernoulli", "epsilon": 0.1})
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(["simulate", cfg, "--out", str(out_a)]) == 0
    assert cli.main(["simulate", cfg, "--out", str(out_b), "--workers", "3"]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_simulate_seed_override_changes_the_report(tmp_path):
    cfg = simulate_config(tmp_path, channel={"kind": "bernoulli", "epsilon": 0.1})
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(["simulate", cfg, "--out", str(out_a)]) == 0
    assert cli.main(["simulate", cfg, "--seed", "77", "--out", str(out_b)]) == 0
    assert out_a.read_bytes() != out_b.read_bytes()


def test_simulate_sweep_writes_the_csv(tmp_path):
    cfg = simulate_config(
        tmp_path, trials=150,
        policies=[{"name": "t0", "t": 0}, {"name": "t1", "t": 1}],
        sweep=[{"kind": "bernoulli", "epsilon": 0.05},
               {"kind": "bernoulli", "epsilon": 0.1}])
    out = tmp_path / "report.json"
    csv_path = tmp_path / "table.csv"
    assert cli.main(["simulate", cfg, "--out", str(out),
                     "--csv", str(csv_path)]) == 0
    doc = json.loads(out.read_text())
    assert len(doc["runs"]) == 4
    lines = csv_path.read_text().strip().split("\n")
    assert len(lines) == 5
    assert lines[0].split(",")[:3] == ["policy", "epsilon_or_e", "trials"]


def test_simulate_code_file_reference(tmp_path):
    desc_path = write_json(tmp_path / "code.json", EXAMPLE_DESC)
    cfg = write_json(tmp_path / "sim.json",
                     {"code_file": desc_path, "t": 1,
                      "channel": {"kind": "bernoulli", "epsilon": 0.0},
                      "trials": 50, "seed": 1})
    assert cli.main(["simulate", cfg]) == 0


BAD_SIMULATE_CONFIGS = {  # id -> (config overrides, start of the message)
    "missing-channel": ({"channel": None}, "config: missing field 'channel'"),
    "missing-trials": ({"trials": None}, "config: missing field 'trials'"),
    "missing-code": ({"code": None}, "config: missing field 'code'"),
    "code-file-list": ({"code": None, "code_file": ["code.json"]},
                       "config.code_file: expected a file name"),
    "config-list": (None, "config: expected a JSON object"),
    "missing-epsilon": ({"channel": {"kind": "bernoulli"}},
                        "channel: missing field 'epsilon'"),
    "missing-errors": ({"channel": {"kind": "exact"}},
                       "channel: missing field 'errors'"),
    "t-bool": ({"t": True}, "config.t: unexpected type bool"),
    "trials-float": ({"trials": 10.9},
                     "config.trials: unexpected type float"),
    "seed-float": ({"seed": 9.0}, "config.seed: unexpected type float"),
    "errors-float": ({"channel": {"kind": "exact", "errors": 1.5}},
                     "channel.errors: unexpected type float"),
    "epsilon-string": ({"channel": {"kind": "bernoulli", "epsilon": "0.1"}},
                       "channel.epsilon: unexpected type str"),
    "epsilon-bool": ({"channel": {"kind": "bernoulli", "epsilon": False}},
                     "channel.epsilon: unexpected type bool"),
    "policy-t-bool": (
        {"policies": [{"name": "a", "t": 0}, {"name": "b", "t": True}]},
        "policies[1].t: unexpected type bool"),
    "policy-trials-float": ({"policies": [{"name": "a", "trials": 10.5}]},
                            "policies[0].trials: unexpected type float"),
    "policies-object": ({"policies": {"name": "a", "t": 0}},
                        "policies: expected a list"),
    "policies-false": ({"policies": False}, "policies: expected a list"),
    "sweep-empty-object": ({"sweep": {}}, "sweep: expected a list"),
    "sweep-missing-errors": ({"sweep": [{"kind": "exact"}]},
                             "sweep[0]: missing field 'errors'"),
    "sweep-epsilon-bool": (
        {"sweep": [{"kind": "exact", "errors": 1},
                   {"kind": "bernoulli", "epsilon": True}]},
        "sweep[1].epsilon: unexpected type bool"),
    # a key nothing reads would leave its campaign on the defaults
    "misspelt-key": ({"target_polcy": "uniform-random"},
                     "config: unknown field 'target_polcy'"),
    "two-unknown-keys": ({"sedd": 5, "comment": "x"},
                         "config: unknown field 'sedd', 'comment'"),
    "policy-seed": ({"policies": [{"name": "a", "seed": 5}]},
                    "policies[0]: unknown field 'seed'"),
    "exact-epsilon": ({"channel": {"kind": "exact", "errors": 1, "epsilon": 0.1}},
                      "channel: unknown field 'epsilon'"),
    "bernoulli-errors": ({"channel": {"kind": "bernoulli", "epsilon": 0.1,
                                      "errors": 2}},
                         "channel: unknown field 'errors'"),
    "sweep-seed": ({"sweep": [{"kind": "bernoulli", "epsilon": 0.1, "seed": 3}]},
                   "sweep[0]: unknown field 'seed'"),
    # a descriptor key nothing reads would build another code: without its
    # modulus, GF(2^8) falls back to the default 0x11B field
    "field-modulos": ({"code": {"field": {"p": 2, "m": 8,
                                          "modulos": [1, 0, 1, 1, 1, 0, 0, 0, 1]},
                                "construction": "lrcrs",
                                "p_poly": [0, 0, 0, 0, 0, 1], "l": [4, 4, 4]}},
                      "field: unknown field 'modulos'"),
    "rs-l": ({"code": {"field": {"p": 13}, "construction": "rs",
                       "points": "all", "k": 4, "l": [2, 2]}},
             "descriptor: unknown field 'l'"),
    "lrcrs-k": ({"code": {**EXAMPLE_DESC, "k": 6}},
                "descriptor: unknown field 'k'"),
    "generator-points": ({"code": {"field": {"p": 13}, "construction": "generator",
                                   "rows": [[1, 1, 1, 1], [0, 1, 2, 3]],
                                   "points": [0, 1, 2, 3]}},
                         "descriptor: unknown field 'points'"),
    "code-and-code-file": ({"code_file": "code.json"},
                           "config.code_file: unread when code is given"),
    "error-value-model": ({"error_value_model": "burst"},
                          "config.error_value_model: unsupported model 'burst'"),
}


@pytest.mark.parametrize("case", list(BAD_SIMULATE_CONFIGS))
def test_simulate_rejects_a_malformed_config_naming_the_field(
        case, tmp_path, capsys):
    overrides, message = BAD_SIMULATE_CONFIGS[case]
    config = {"code": EXAMPLE_DESC, "t": 1,
              "channel": {"kind": "bernoulli", "epsilon": 0.0},
              "trials": 20, "seed": 9}
    for key, value in (overrides or {}).items():
        if value is None:
            del config[key]
        else:
            config[key] = value
    cfg = write_json(tmp_path / "sim.json",
                     config if overrides is not None else [config])
    assert cli.main(["simulate", cfg]) == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")


def test_plan_and_simulate_agree_on_t2_fibre_plans(tmp_path, capsys):
    desc = {"field": {"p": 13}, "construction": "lrcrs",
            "p_poly": [0, 0, 0, 1], "l": [1]}
    code = write_json(tmp_path / "code.json", desc)
    out = tmp_path / "plan.json"
    assert cli.main(["plan", code, "--target", "0", "--t", "2",
                     "--out", str(out)]) == 0
    assert json.loads(out.read_text())["plan"]["helpers"] == [1, 3, 4, 6, 7]
    cfg = write_json(tmp_path / "sim.json",
                     {"code": desc, "t": 2, "trials": 300, "seed": 4,
                      "channel": {"kind": "exact", "errors": 2}})
    report = tmp_path / "report.json"
    assert cli.main(["simulate", cfg, "--out", str(report)]) == 0
    assert json.loads(report.read_text())["report"]["counts"]["detected"] == 300
    capsys.readouterr()


# ---------------------------------------------------------------------------
# paper-example
# ---------------------------------------------------------------------------

def test_paper_example_passes_with_eight_quantities(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert cli.main(["paper-example", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["pass"] is True
    assert len(doc["checks"]) == 8
    assert all(c["ok"] for c in doc["checks"])
    assert "PASS (8/8 quantities)" in capsys.readouterr().out


def test_paper_example_fails_under_a_wrong_field():
    checks = cli.worked_example_checks(field=Field(17))
    assert not all(c["ok"] for c in checks)


def test_paper_example_output_is_stable(capsys):
    assert cli.main(["paper-example"]) == 0
    first = capsys.readouterr().out
    assert cli.main(["paper-example"]) == 0
    assert capsys.readouterr().out == first


# ---------------------------------------------------------------------------
# report round trip
# ---------------------------------------------------------------------------

def test_report_round_trips_unchanged(tmp_path):
    desc = write_json(tmp_path / "code.json", EXAMPLE_DESC)
    out = tmp_path / "report.json"
    assert cli.main(["plan", desc, "--target", "0", "--out", str(out)]) == 0
    text = out.read_text()
    doc = json.loads(text)
    assert cli.emit_report(doc) == text


def test_unreadable_descriptor_is_a_clean_error(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert cli.main(["analyze", str(missing)]) == 1
    assert "error:" in capsys.readouterr().err


def test_parser_is_built_once_and_commands_are_looked_up_per_call(
        tmp_path, monkeypatch, capsys):
    import argparse
    builds = []
    original = argparse.ArgumentParser.add_subparsers

    def counted(self, *args, **kwargs):
        builds.append(self.prog)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_subparsers", counted)
    cli.build_parser.cache_clear()
    desc = write_json(tmp_path / "code.json", EXAMPLE_DESC)
    assert cli.main(["plan", desc, "--target", "0"]) == 0
    seen = []

    def fake_plan(args):
        seen.append(args.target)
        return {}, 0

    monkeypatch.setattr(cli, "cmd_plan", fake_plan)
    assert cli.main(["plan", desc, "--target", "3"]) == 0
    assert seen == [3]
    assert builds == ["loceret"]
    capsys.readouterr()
