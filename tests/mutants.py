"""Mutation check: each row breaks one copy of src/ and names the tests that
must catch it.

Run from anywhere, with numpy and pytest installed:

    python tests/mutants.py

For every row the script copies src/ into a temporary directory, checks that
the row's old text occurs exactly once in its file, writes the new text in
its place, and runs the named tests on that copy (PYTHONPATH points at it).
A row is killed when pytest reports failing tests (exit status 1) and
survives when they all pass; any other status (a collection error, no test
selected) is an error.  The script exits 0 only when every row with
killed=True is killed and every row with killed=False survives.  The one
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
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str                 # path under src/loceret
    old: str                  # must occur exactly once
    new: str
    tests: tuple[str, ...]    # pytest arguments, relative to the repository root
    killed: bool = True


MIN_DISTANCE_TESTS = ("tests/test_codeops.py", "-k", "min_distance")
ENCODE_TESTS = ("tests/test_rscodes.py", "-k", "encode")
CORPUS_TEST = ("tests/test_rscodes.py::"
               "test_every_corpus_spec_spans_its_k_and_builds_its_code_once")
OFFSET_TEST = "tests/test_simengine.py::test_an_offset_range_matches_the_reference"
ONE_RULE_TESTS = ("tests/test_localrepair.py", "-k",
                  "local_k_plus_t or spec_capacity")

ROWS = (
    # min_distance's level search counts only outside each information set
    Mutant("count all n columns and add w", "codeops.py",
           "outside = G[:, keep]",
           "outside = G",
           MIN_DISTANCE_TESTS),
    Mutant("omit w from the count", "codeops.py",
           "yield w + _least_outside(words, below, (multiples,))",
           "yield _least_outside(words, below, (multiples,))",
           MIN_DISTANCE_TESTS),
    Mutant("use set 0's columns for every set", "codeops.py",
           "_least_weights(field, gen, columns) for gen, columns",
           "_least_weights(field, gen, code.pivots) for gen, columns",
           MIN_DISTANCE_TESTS),
    # min_distance keeps no table of multiples for a weight-2 count
    Mutant("make the multiples before the weight-2 count", "codeops.py",
           "    yield 2 + _least_outside(words, below, _multiples(field, outside))\n"
           "    multiples = np.concatenate(tuple(_multiples(field, outside)), axis=2)\n",
           "    multiples = np.concatenate(tuple(_multiples(field, outside)), axis=2)\n"
           "    yield 2 + _least_outside(words, below, (multiples,))\n",
           ("tests/test_codeops.py", "-k", "peak_memory")),
    # shared_bundle's memo of bundles by descriptor digest
    Mutant("build the shared bundle from the caller's dict", "descriptor.py",
           "build_code(json.loads(text))",
           "build_code(desc)",
           ("tests/test_cli.py", "-k", "bundle")),
    # characteristic-2 encode by packed rows
    Mutant("pack the encode rows big-endian", "galois.py",
           'int.from_bytes(block[i:i + n], "little")',
           'int.from_bytes(block[i:i + n], "big")',
           ENCODE_TESTS),
    Mutant("read encode row s*k + j", "galois.py",
           "        for s in message:\n"
           "            acc ^= encoding[row + s]\n"
           "            row += q\n",
           "        for j, s in enumerate(message):\n"
           "            acc ^= encoding[s * len(message) + j]\n",
           ENCODE_TESTS),
    Mutant("encode without _check_all", "rscodes.py",
           "field.encode_word(field._check_all(message),",
           "field.encode_word(message,",
           ("tests/test_rscodes.py::test_encode_rejects_a_non_canonical_symbol",)),
    # the simulator's trial engine
    Mutant("leave the clean slots of a hit Bernoulli trial unmasked", "storagesim.py",
           "        errors *= corrupted[:, live]",
           "        pass",
           ("tests/test_simengine.py", "-k", "loop_reference and bernoulli")),
    Mutant("swap the detected and naive-right bits of the outcome code", "storagesim.py",
           "code = out.hit * 4 + out.detected * 2 + (out.shift == 0)",
           "code = out.hit * 4 + out.detected + (out.shift == 0) * 2",
           ("tests/test_simengine.py", "-k", "tally")),
    Mutant("key the seed without + G", "storagesim.py",
           "key = (z ^ (z >> 31)) + _GAMMA",
           "key = z ^ (z >> 31)",
           ("tests/test_simengine.py::test_array_draws_equal_the_scalar_draw",)),
    Mutant("pick exact slots mod r instead of r - j", "storagesim.py",
           "slots = (draws % (r - rows[:len(draws)])).view(np.int64)",
           "slots = (draws % r).view(np.int64)",
           ("tests/test_simengine.py", "-k", "loop_reference and exact")),
    # slices read the per-(code, t) tables at their own offset
    Mutant("read the round-robin tables from start, not start mod n", "storagesim.py",
           "at = start % arr.n",
           "at = start",
           (OFFSET_TEST,)),
    Mutant("offset a slice's trials by (start + 1) G", "storagesim.py",
           "context.key + start * _GAMMA",
           "context.key + (start + 1) * _GAMMA",
           (OFFSET_TEST,)),
    # the one plan rule of RS and piecewise-RS codes
    Mutant("read local_k + t + 1 fibre mates", "localrepair.py",
           "need = spec.local_k + t\n",
           "need = spec.local_k + t + 1\n",
           ONE_RULE_TESTS),
    Mutant("t_cap without the - 1", "rscodes.py",
           "return self.fibre_size - self.local_k - 1",
           "return self.fibre_size - self.local_k",
           ONE_RULE_TESTS),
    Mutant("drop the fibre check on explicit helpers", "localrepair.py",
           "if len(helpers) != need or not all(c in fibre for c in helpers):",
           "if len(helpers) != need:",
           ("tests/test_localrepair.py", "-k", "explicit_helpers_on_a_fibre_spec")),
    # evaluation specs: k is fixed by construction, spec.code is built on
    # first use and kept out of pickles, interpolate checks its rank
    Mutant("rs_make builds one monomial row too few", "rscodes.py",
           "np.array(pts, dtype=np.int64), k - 1)]",
           "np.array(pts, dtype=np.int64), k - 2)]",
           (CORPUS_TEST,)),
    Mutant("spec.code without n", "rscodes.py",
           "code_from_rows(self.field, self.eval_rows, self.n)",
           "code_from_rows(self.field, self.eval_rows)",
           (CORPUS_TEST,)),
    Mutant("__getstate__ keeps the code", "rscodes.py",
           'if key not in ("generator", "encoding", "code")}',
           'if key not in ("generator", "encoding")}',
           ("tests/test_rscodes.py", "-k", "pickle")),
    Mutant("interpolate without its rank check", "rscodes.py",
           "if pivots != tuple(range(spec.k)):",
           "if False:",
           ("tests/test_rscodes.py", "-k", "dependent_positions")),
    # the control: an identity edit must leave every named test passing
    Mutant("identity edit (must survive)", "codeops.py",
           "outside = G[:, keep]",
           "outside = G[:, keep]",
           MIN_DISTANCE_TESTS, killed=False),
)


def run(row: Mutant, scratch: Path) -> str:
    """'killed', 'survived', or an error message."""
    src = scratch / "src"
    shutil.copytree(ROOT / "src", src,
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    path = src / "loceret" / row.file
    text = path.read_text(encoding="utf-8")
    if text.count(row.old) != 1:
        return f"old text occurs {text.count(row.old)} times in {row.file}"
    path.write_text(text.replace(row.old, row.new), encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    status = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         *row.tests], cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL).returncode
    return {0: "survived", 1: "killed"}.get(status, f"pytest exit status {status}")


def main() -> int:
    failures = 0
    for row in ROWS:
        start = time.perf_counter()
        with tempfile.TemporaryDirectory() as scratch:
            result = run(row, Path(scratch))
        expected = "killed" if row.killed else "survived"
        ok = result == expected
        failures += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {row.name}: {result} "
              f"(expected {expected}, {time.perf_counter() - start:.1f} s)",
              flush=True)
    print(f"{len(ROWS) - failures} of {len(ROWS)} rows as expected")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
