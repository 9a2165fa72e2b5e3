"""Mutation check: each row breaks one copy of src/ and names the tests that
must catch it.

Run from anywhere, with numpy and pytest installed:

    python tests/mutants.py

For every row the script copies src/, tests/ and the committed
BENCH_certify_grid.json into a temporary directory, checks that the row's
old text occurs exactly once in its file, writes the new text in its place,
and runs the named tests of that copy on it (PYTHONPATH points at its src/).
A row is killed when pytest reports failing tests (exit status 1) and
survives when they all pass; any other status (a collection error, no test
selected) is an error.  Rows run two at a time (fewer on a machine with
one CPU), each in its own copy and its own pytest process, and print in
table order.  The script exits 0 only when every row with killed=True is
killed and every row with killed=False survives.  The one
row that must survive leaves its file unchanged, so a run that cannot tell
a broken copy from a working one fails.  The file is not named test_*.py,
so pytest does not collect it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED_TREES = ("src", "tests")
GRID_FILE = "BENCH_certify_grid.json"


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str                 # path relative to the repository root
    old: str                  # must occur exactly once
    new: str
    tests: tuple[str, ...]    # pytest arguments, relative to the repository root
    killed: bool = True


MIN_DISTANCE_TESTS = ("tests/test_codeops.py", "-k", "min_distance")
ENCODE_TESTS = ("tests/test_rscodes.py", "-k", "encode")
CORPUS_TEST = ("tests/test_rscodes.py::"
               "test_every_corpus_spec_spans_its_k_and_builds_its_code_once")
OFFSET_TEST = "tests/test_simengine.py::test_an_offset_range_matches_the_reference"
GALOIS_TESTS = ("tests/test_galois.py",)
ONE_RULE_TESTS = ("tests/test_localrepair.py", "-k",
                  "local_k_plus_t or spec_capacity")

ROWS = (
    # min_distance's level search counts only outside each information set
    Mutant("count all n columns and add w", "src/loceret/codeops.py",
           "outside = G[:, keep]",
           "outside = G",
           MIN_DISTANCE_TESTS),
    Mutant("omit w from the count", "src/loceret/codeops.py",
           "yield w + _least_outside(words, below, (multiples,))",
           "yield _least_outside(words, below, (multiples,))",
           MIN_DISTANCE_TESTS),
    Mutant("use set 0's columns for every set", "src/loceret/codeops.py",
           "_least_weights(field, gen, columns) for gen, columns",
           "_least_weights(field, gen, code.pivots) for gen, columns",
           MIN_DISTANCE_TESTS),
    # min_distance keeps no table of multiples for a weight-2 count
    Mutant("make the multiples before the weight-2 count", "src/loceret/codeops.py",
           "    yield 2 + _least_outside(words, below, _multiples(field, outside))\n"
           "    multiples = np.concatenate(tuple(_multiples(field, outside)), axis=2)\n",
           "    multiples = np.concatenate(tuple(_multiples(field, outside)), axis=2)\n"
           "    yield 2 + _least_outside(words, below, (multiples,))\n",
           ("tests/test_codeops.py", "-k", "peak_memory")),
    # min_distance refuses by the reach of its own plan, not by q^k
    Mutant("restore the q^k gate", "src/loceret/codeops.py",
           "    _within_cap(m, reach)\n",
           "    if field.q ** k > DEFAULT_ENUM_CAP:\n"
           "        raise TooLargeToEnumerateError(f\"q^k exceeds {DEFAULT_ENUM_CAP}\")\n",
           ("tests/test_codeops.py", "-k", "certify_labels or above_the_goppa_bound")),
    # the certified table of the paper's family, checked on its small fields
    Mutant("write the grid's d and r_t columns swapped", "tests/certify_grid.py",
           '"d": cert.distance, "d_kind": cert.distance_kind,\n'
           '        "goppa_lower_bound": spec.goppa_lower_bound,\n'
           '        "r_t": cert.locality.r_t,',
           '"d": cert.locality.r_t, "d_kind": cert.distance_kind,\n'
           '        "goppa_lower_bound": spec.goppa_lower_bound,\n'
           '        "r_t": cert.distance,',
           ("tests/test_codeops.py::"
            "test_the_committed_certify_grid_recomputes_on_its_small_fields",)),
    # characteristic-2 encode by packed rows
    Mutant("pack the encode rows big-endian", "src/loceret/galois.py",
           'int.from_bytes(block[i:i + n], "little")',
           'int.from_bytes(block[i:i + n], "big")',
           ENCODE_TESTS),
    Mutant("read encode row s*k + j", "src/loceret/galois.py",
           "        for s in message:\n"
           "            acc ^= encoding[row + s]\n"
           "            row += q\n",
           "        for j, s in enumerate(message):\n"
           "            acc ^= encoding[s * len(message) + j]\n",
           ENCODE_TESTS),
    Mutant("encode without _check_all", "src/loceret/rscodes.py",
           "field.encode_word(field._check_all(message),",
           "field.encode_word(message,",
           ("tests/test_rscodes.py::test_encode_rejects_a_non_canonical_symbol",)),
    # the simulator's trial engine
    Mutant("leave the clean slots of a hit Bernoulli trial unmasked", "src/loceret/storagesim.py",
           "        errors *= corrupted[:, live]",
           "        pass",
           ("tests/test_simengine.py", "-k", "loop_reference and bernoulli")),
    Mutant("swap the detected and naive-right bits of the outcome code", "src/loceret/storagesim.py",
           "np.bincount(out.hit * 4 + out.detected * 2 + (out.shift == 0),",
           "np.bincount(out.hit * 4 + out.detected + (out.shift == 0) * 2,",
           ("tests/test_simengine.py", "-k", "tally")),
    Mutant("swap missed_wrong and missed_right in the cell mapping", "src/loceret/storagesim.py",
           "missed_wrong, missed_right, caught_wrong, caught_right = bins[4:]",
           "missed_right, missed_wrong, caught_wrong, caught_right = bins[4:]",
           ("tests/test_simengine.py", "-k", "tally")),
    Mutant("key the seed without + G", "src/loceret/storagesim.py",
           "key = (z ^ (z >> 31)) + _GAMMA",
           "key = z ^ (z >> 31)",
           ("tests/test_simengine.py::test_array_draws_equal_the_scalar_draw",)),
    Mutant("pick exact slots mod r instead of r - j", "src/loceret/storagesim.py",
           "slots = (draws % (r - rows[:len(draws)])).view(np.int64)",
           "slots = (draws % r).view(np.int64)",
           ("tests/test_simengine.py", "-k", "loop_reference and exact")),
    # the simulator's one cache keeps a bundle per canonical descriptor text
    Mutant("build the shared bundle from the caller's dict", "src/loceret/storagesim.py",
           "descriptor.build_code(json.loads(text))",
           "descriptor.build_code(config.code)",
           ("tests/test_storagesim.py", "-k", "bundle or callers_descriptor")),
    # slices read the per-(code, t) tables at their own offset
    Mutant("read the round-robin tables from start, not start mod n", "src/loceret/storagesim.py",
           "at = start % arr.n",
           "at = start",
           (OFFSET_TEST,)),
    Mutant("offset a slice's trials by (start + 1) G", "src/loceret/storagesim.py",
           "key + start * _GAMMA",
           "key + (start + 1) * _GAMMA",
           (OFFSET_TEST,)),
    Mutant("cut slices by _CHUNK_TRIALS, not by the cached tables", "src/loceret/storagesim.py",
           "self.slice_trials = max(1, min(len(arr.ramp),",
           "self.slice_trials = max(1, min(_CHUNK_TRIALS,",
           ("tests/test_storagesim.py", "-k", "short_slices")),
    # configs, descriptors and trial ranges are checked where they enter
    Mutant("accept a code of any type", "src/loceret/storagesim.py",
           "if not isinstance(self.code, dict):",
           "if False:",
           ("tests/test_storagesim.py", "-k", "code_that_is_not")),
    Mutant("accept unknown config keys", "src/loceret/storagesim.py",
           'descriptor._refuse_unknown_keys(obj, _CONFIG_KEYS, "config")',
           "pass",
           ("tests/test_cli.py", "-k", "malformed_config")),
    Mutant("accept unknown policy keys", "src/loceret/storagesim.py",
           "descriptor._refuse_unknown_keys(policy, _POLICY_KEYS, where)",
           "pass",
           ("tests/test_storagesim.py", "-k", "every_entry_before")),
    Mutant("accept unknown channel keys", "src/loceret/storagesim.py",
           'descriptor._refuse_unknown_keys(obj, ("kind", key), where)',
           "pass",
           ("tests/test_cli.py", "-k", "malformed_config")),
    Mutant("accept unknown field fragment keys", "src/loceret/descriptor.py",
           '_refuse_unknown_keys(frag, ("p", "m", "modulus"), "field")',
           "pass",
           ("tests/test_cli.py", "-k", "malformed_config")),
    Mutant("accept unknown descriptor keys", "src/loceret/descriptor.py",
           '_refuse_unknown_keys(desc, ("field", "construction", *keys), "descriptor")',
           "pass",
           ("tests/test_cli.py", "-k", "malformed_config")),
    Mutant("accept a channel of any type", "src/loceret/storagesim.py",
           "if not isinstance(self.channel, (Bernoulli, ExactErrors)):",
           "if False:",
           ("tests/test_storagesim.py", "-k", "channel_of_another_type")),
    Mutant("keep an integer epsilon as it was given", "src/loceret/storagesim.py",
           'object.__setattr__(self, "epsilon", float(eps))',
           'object.__setattr__(self, "epsilon", eps)',
           ("tests/test_storagesim.py", "-k", "integer_epsilon")),
    Mutant("check trial ranges against trials only", "src/loceret/storagesim.py",
           "if not low <= _checked_int(name, value) <= config.trials:",
           "if not _checked_int(name, value) <= config.trials:",
           ("tests/test_storagesim.py", "-k", "range_outside")),
    # the one plan rule of RS and piecewise-RS codes
    Mutant("read local_k + t + 1 fibre mates", "src/loceret/localrepair.py",
           "need = spec.local_k + t\n",
           "need = spec.local_k + t + 1\n",
           ONE_RULE_TESTS),
    Mutant("t_cap without the - 1", "src/loceret/rscodes.py",
           "return self.fibre_size - self.local_k - 1",
           "return self.fibre_size - self.local_k",
           ONE_RULE_TESTS),
    Mutant("drop the fibre check on explicit helpers", "src/loceret/localrepair.py",
           "if len(helpers) != need or not all(c in fibre for c in helpers):",
           "if len(helpers) != need:",
           ("tests/test_localrepair.py", "-k", "explicit_helpers_on_a_fibre_spec")),
    # evaluation specs: k is fixed by construction, spec.code is built on
    # first use and kept out of pickles, interpolate checks its rank
    Mutant("rs_make builds one monomial row too few", "src/loceret/rscodes.py",
           "np.array(pts, dtype=np.int64), k - 1)]",
           "np.array(pts, dtype=np.int64), k - 2)]",
           (CORPUS_TEST,)),
    Mutant("spec.code without n", "src/loceret/rscodes.py",
           "code_from_rows(self.field, self.eval_rows, self.n)",
           "code_from_rows(self.field, self.eval_rows)",
           (CORPUS_TEST,)),
    Mutant("__getstate__ keeps the code", "src/loceret/rscodes.py",
           'if key not in ("generator", "encoding", "code")}',
           'if key not in ("generator", "encoding")}',
           ("tests/test_rscodes.py", "-k", "pickle")),
    Mutant("interpolate without its rank check", "src/loceret/rscodes.py",
           "if pivots != tuple(range(spec.k)):",
           "if False:",
           ("tests/test_rscodes.py", "-k", "dependent_positions")),
    # one witness scan per (code, t), kept on the LinearCode and read by
    # plan_linear; only certify passes a floor, d_{t+1}(dual) - 1, and a distance
    Mutant("certify's floor one column too high", "src/loceret/codeops.py",
           "max(t + 1, weight - 1)",
           "max(t + 1, weight)",
           ("tests/test_codeops.py", "-k", "certify")),
    Mutant("key the witness memo without t", "src/loceret/codeops.py",
           "    found = code._witnesses.get(t)\n"
           "    if found is None:\n"
           "        found = code._witnesses[t] = _shared_scan(code, t, floor, d)\n",
           "    found = code._witnesses.get(None)\n"
           "    if found is None:\n"
           "        found = code._witnesses[None] = _shared_scan(code, t, floor, d)\n",
           ("tests/test_codeops.py", "-k", "witness_memo_keeps")),
    # certify's scan takes every support of n - d + t + 2 or more columns
    # as detecting (the puncturing rule); one column earlier is wrong
    Mutant("the puncturing rule one column early", "src/loceret/codeops.py",
           "sure = n + 1 if d is None else n - d + t + 2",
           "sure = n + 1 if d is None else n - d + t + 1",
           ("tests/test_codeops.py", "-k", "puncturing_rule")),
    Mutant("plan_linear reads the next coordinate's witness", "src/loceret/localrepair.py",
           "t_locality(code, t).per_coord[target].witness",
           "t_locality(code, t).per_coord[(target + 1) % code.n].witness",
           ("tests/test_localrepair.py", "-k",
            "locality_witnesses_on_the_lemma_corpus")),
    # plan_linear's rows are every dual word on the plan's coordinates
    Mutant("_dual_words keeps only its first row", "src/loceret/codeops.py",
           "return rref(field, _kernel(field, red, pivots, len(coords)))[0]",
           "return rref(field, _kernel(field, red, pivots, len(coords)))[0][:1]",
           ("tests/test_localrepair.py", "-k", "zero_columns")),
    # one kernel builder per field kind: GF(p) reduces mod p, odd-p
    # extension fields add by Zech's logarithm read at offset 2n (n = q - 1)
    # and shift logs by log(-1) = n/2
    Mutant("read Zech's logarithm at offset n in _add", "src/loceret/galois.py",
           "zech[log[b] - log_a + two_n]",
           "zech[log[b] - log_a + n]",
           GALOIS_TESTS),
    Mutant("read Zech's logarithm at offset n in add_array", "src/loceret/galois.py",
           "zech_arr[log_arr[b] - log_a + two_n]",
           "zech_arr[log_arr[b] - log_a + n]",
           GALOIS_TESTS),
    Mutant("GF(p) add_array reduces above p, not from p", "src/loceret/galois.py",
           "np.multiply(total >= p, p, dtype=total.dtype)",
           "np.multiply(total > p, p, dtype=total.dtype)",
           GALOIS_TESTS),
    Mutant("GF(p) sum_array without the * p", "src/loceret/galois.py",
           "return total - total // p * p",
           "return total - total // p",
           GALOIS_TESTS),
    Mutant("odd-p log(-1) set to 0", "src/loceret/galois.py",
           "log_minus_one = n // 2",
           "log_minus_one = 0",
           GALOIS_TESTS),
    Mutant("odd-p sum_array folds from ones", "src/loceret/galois.py",
           "np.zeros(a.shape[1:], dtype=np.int64)",
           "np.ones(a.shape[1:], dtype=np.int64)",
           GALOIS_TESTS),
    # the read kernels: a row of GF(2^m) past the product table, and the
    # product table's fused first pass and its loop over check rows 2..t
    Mutant("GF(2^m) read row assigns in place of XOR-accumulating", "src/loceret/galois.py",
           "acc ^= exp[log[x] + log[y]]",
           "acc = exp[log[x] + log[y]]",
           ("tests/test_localrepair.py", "-k", "dot or reads")),
    Mutant("table read kernel without its loop over check rows 2..t", "src/loceret/galois.py",
           "                for row in rest:\n"
           "                    for times_h, v in zip(row, values):\n"
           "                        check ^= times_h[v]\n"
           "                    if check:\n"
           "                        return None\n",
           "",
           ("tests/test_galois.py", "-k", "read_kernel")),
    Mutant("table read kernel checks a t = 0 plan by its recovery row", "src/loceret/galois.py",
           "first = rows[0] if rows else (products[0],) * len(recovery)",
           "first = rows[0] if rows else recovery",
           ("tests/test_localrepair.py", "-k", "reads_match")),
    # the plan's read: its count and symbol checks before the kernel, and the
    # shared outcomes it returns
    Mutant("plan read without its helper count check", "src/loceret/localrepair.py",
           "        if len(values) != count:\n"
           "            raise WrongLengthError(\n"
           "                f\"expected {count} helper symbols, got {len(values)}\")\n",
           "",
           ("tests/test_localrepair.py", "-k", "wrong_helper_count")),
    Mutant("plan read without its symbol check", "src/loceret/localrepair.py",
           "value = kernel(check_all(values))",
           "value = kernel(values)",
           ("tests/test_localrepair.py", "-k", "reads_reject_non_canonical")),
    Mutant("shared outcome table off by one", "src/loceret/localrepair.py",
           "_OUTCOMES = tuple(RepairOutcome(v) for v in range(256))",
           "_OUTCOMES = tuple(RepairOutcome(v + 1) for v in range(256))",
           ("tests/test_localrepair.py", "-k", "reads_match")),
    # mult_count tallies a subtraction as an addition
    Mutant("CountingField._sub without its count", "src/loceret/galois.py",
           "    def _sub(self, a, b):\n"
           "        self.add_count += 1\n",
           "    def _sub(self, a, b):\n",
           ("tests/test_localrepair.py", "-k", "plan_build_tallies_are_pinned")),
    # the control: an identity edit must leave every named test passing
    Mutant("identity edit (must survive)", "src/loceret/codeops.py",
           "outside = G[:, keep]",
           "outside = G[:, keep]",
           MIN_DISTANCE_TESTS, killed=False),
)


def run(row: Mutant, scratch: Path) -> str:
    """'killed', 'survived', or an error message."""
    for tree in COPIED_TREES:
        shutil.copytree(ROOT / tree, scratch / tree, ignore=shutil.ignore_patterns(
            "__pycache__", "*.egg-info"))
    shutil.copy(ROOT / GRID_FILE, scratch / GRID_FILE)
    path = scratch / row.file
    text = path.read_text(encoding="utf-8")
    if text.count(row.old) != 1:
        return f"old text occurs {text.count(row.old)} times in {row.file}"
    path.write_text(text.replace(row.old, row.new), encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(scratch / "src"),
           "PYTHONDONTWRITEBYTECODE": "1"}
    status = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         *row.tests], cwd=scratch, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL).returncode
    return {0: "survived", 1: "killed"}.get(status, f"pytest exit status {status}")


def timed_run(row: Mutant) -> tuple[str, float]:
    """run's verdict on a fresh scratch directory, and its wall time."""
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as scratch:
        result = run(row, Path(scratch))
    return result, time.perf_counter() - start


def main() -> int:
    failures = 0
    with ThreadPoolExecutor(min(2, os.cpu_count() or 1)) as pool:
        for row, (result, seconds) in zip(ROWS, pool.map(timed_run, ROWS)):
            expected = "killed" if row.killed else "survived"
            ok = result == expected
            failures += not ok
            print(f"{'ok  ' if ok else 'FAIL'} {row.name}: {result} "
                  f"(expected {expected}, {seconds:.1f} s)", flush=True)
    print(f"{len(ROWS) - failures} of {len(ROWS)} rows as expected")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
