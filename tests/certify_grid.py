"""Certify every small piecewise-RS code of the paper's family and write the
table to BENCH_certify_grid.json at the repository root.

Run from the repository root, with numpy installed:

    PYTHONPATH=src python tests/certify_grid.py

The grid: every curve y = x^(r+1) with (r + 1) | (q - 1) and r + 1 from 3 to
6, over GF(7), GF(8), GF(9), GF(11), GF(13), GF(16), GF(17) and GF(19); every
exponent vector l with entries from 0 to 3 that builds a code; and of those
the codes with n <= 20 and k >= 2.  Each code is certified (codeops.certify,
exhaustive, with the spec) at t = 0, 1 and 2, one row per certificate, and
the totals come last.  Every field of a row but `seconds` (process time) is
deterministic; tests/test_codeops.py recomputes the rows with q <= 13 and
t <= 1 and compares them with the committed file.  The file is not named
test_*.py, so pytest does not collect it.
"""

from __future__ import annotations

import itertools
import json
import sys
import time
from pathlib import Path

from loceret import codeops
from loceret.descriptor import DescriptorError, build_code

OUT = Path(__file__).resolve().parent.parent / "BENCH_certify_grid.json"
FIELDS = ((7, 1), (2, 3), (3, 2), (11, 1), (13, 1), (2, 4), (17, 1), (19, 1))
DEGREES = range(3, 7)          # r + 1
EXPONENTS = range(4)           # entries of l
MAX_N, MIN_K = 20, 2
TS = (0, 1, 2)


def grid() -> list[dict]:
    """The descriptors of the grid, by field, then r + 1, then l."""
    out = []
    for p, m in FIELDS:
        q = p ** m
        for degree in DEGREES:
            if (q - 1) % degree:
                continue
            for l in itertools.product(EXPONENTS, repeat=degree - 2):
                desc = {"field": {"p": p, "m": m}, "construction": "lrcrs",
                        "p_poly": [0] * degree + [1], "l": list(l)}
                try:
                    spec = build_code(desc).spec
                except DescriptorError as exc:
                    if "max evaluated degree" not in str(exc):
                        raise
                    continue
                if spec.n <= MAX_N and spec.k >= MIN_K:
                    out.append(desc)
    return out


def row(desc: dict, t: int) -> dict:
    """One certificate of the grid as a table row."""
    bundle = build_code(desc)
    start = time.process_time()
    cert = codeops.certify(bundle.code, t, bundle.spec)
    seconds = time.process_time() - start
    spec = bundle.spec
    return {
        "digest": bundle.digest,
        "q": bundle.field.q, "r_plus_1": spec.r + 1, "l": list(spec.l),
        "n": spec.n, "k": spec.k, "t": t,
        "d": cert.distance, "d_kind": cert.distance_kind,
        "goppa_lower_bound": spec.goppa_lower_bound,
        "r_t": cert.locality.r_t, "r_t_mode": cert.locality.mode,
        "t_optimal": cert.t_optimal,
        "bounds": (None if cert.bounds is None else
                   {name: status.to_dict()
                    for name, status in cert.bounds.statuses.items()}),
        "seconds": round(seconds, 4),
    }


def totals(rows: list[dict]) -> dict:
    codes = {r["digest"]: r for r in rows}.values()
    return {
        "codes": len(codes),
        "certificates": len(rows),
        "exact_d_codes": sum(r["d_kind"] == "exact" for r in codes),
        "exact_d_above_goppa_codes": sum(
            r["d_kind"] == "exact" and r["d"] > r["goppa_lower_bound"]
            for r in codes),
        "t_optimal_decided": sum(r["t_optimal"] is not None for r in rows),
        "t_optimal_true": sum(r["t_optimal"] is True for r in rows),
        "seconds_by_t": {str(t): round(sum(r["seconds"] for r in rows
                                           if r["t"] == t), 2) for t in TS},
        "seconds": round(sum(r["seconds"] for r in rows), 2),
    }


def main() -> int:
    rows = []
    for desc in grid():
        for t in TS:
            rows.append(row(desc, t))
            r = rows[-1]
            print(f"GF({r['q']}) y = x^{r['r_plus_1']} l = {r['l']} t = {t}: "
                  f"d = {r['d']} ({r['d_kind']}), r_t = {r['r_t']}, "
                  f"t_optimal = {r['t_optimal']}, {r['seconds']:.3f} s",
                  flush=True)
    doc = {"rows": rows, "totals": totals(rows)}
    OUT.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(doc["totals"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
