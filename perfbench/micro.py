"""Layer microbenchmarks: one library call timed on fixed-shape, seeded
inputs, independent of the workload being run.

They are reported as per-layer metrics of the traced run only, never gated:
each gives a later change to one layer a number that moves without the noise
of a whole workload.  Every figure is the median of REPEATS timed batches.
"""

from __future__ import annotations

import random
import statistics

from loceret import codeops, localrepair, rscodes, storagesim
from loceret.galois import Field

REPEATS = 5

def _per_call_s(now, call, args_list) -> float:
    """Median over REPEATS of the mean time of one call."""
    times = []
    for _ in range(REPEATS):
        t0 = now()
        for args in args_list:
            call(*args)
        times.append((now() - t0) / len(args_list))
    return statistics.median(times)


def _matrix(rng, field, rows, cols):
    return [[rng.randrange(field.q) for _ in range(cols)] for _ in range(rows)]


def run(seed: int, now) -> dict:
    """Metric name -> value, units as in BENCHMARK.json; now() is the clock."""
    rng = random.Random(seed)
    out = {}

    def us(call, args_list):
        return _per_call_s(now, call, args_list) * 1e6

    for label, field in (("gf13", Field(13)), ("gf256", Field(2, 8)),
                         ("gf243", Field(3, 5))):
        pairs = [(rng.randrange(field.q), rng.randrange(field.q))
                 for _ in range(20000)]
        out[f"galois.mul_{label}_ns"] = _per_call_s(now, field.mul, pairs) * 1e9
        out[f"galois.add_{label}_ns"] = _per_call_s(now, field.add, pairs) * 1e9

    gf13, gf256 = Field(13), Field(2, 8)
    small = [(gf13, _matrix(rng, gf13, 6, 12)) for _ in range(50)]
    large = [(gf256, _matrix(rng, gf256, 16, 32)) for _ in range(4)]
    out["codeops.rref_6x12_us"] = us(codeops.rref, small)
    out["codeops.rref_16x32_us"] = us(codeops.rref, large)

    fibre = rscodes.lrcrs_make(gf13, [0, 0, 0, 0, 1], [2, 2])
    rs256 = rscodes.rs_make(gf256, list(range(256)), 16)
    rs14 = rscodes.rs_make(Field(17), rng.sample(range(17), 14), 6)
    out["localrepair.plan_lrcrs_us"] = us(
        localrepair.plan_lrcrs, [(fibre, c) for c in range(12)])
    out["localrepair.plan_rs_us"] = us(
        localrepair.plan_rs, [(rs256, rng.randrange(256), 1) for _ in range(16)])
    out["localrepair.plan_linear_us"] = us(
        localrepair.plan_linear, [(fibre.code, c, 1) for c in range(12)])
    out["codeops.is_edr_set_us"] = us(
        codeops.is_edr_set, [(rs14.code, 0, range(1, 8), 1)] * 20)

    # one repair on the paper's plan: clean and one-corrupted helper vectors
    plan = localrepair.plan_lrcrs(fibre, 0)
    words = [rscodes.encode(fibre, [rng.randrange(13) for _ in range(6)]).symbols
             for _ in range(100)]
    clean = [(plan, [w[c] for c in plan.helpers]) for w in words]
    mixed = [(plan, vals[:1] + [(vals[1] + 1) % 13] + vals[2:] if i % 2 else vals)
             for i, (_, vals) in enumerate(clean)]
    out["localrepair.repair_us"] = us(localrepair.repair, mixed)
    out["localrepair.detect_us"] = us(localrepair.detect, clean)
    out["localrepair.recover_us"] = us(localrepair.recover, clean)

    # batch encode and byte ingestion on the store workload's [255,15] code
    store = rscodes.lrcrs_make(gf256, [0, 0, 0, 0, 0, 1], [4, 4, 4])
    out["rscodes.encode_us"] = us(
        rscodes.encode, [(store, [rng.randrange(256) for _ in range(15)])
                         for _ in range(8)])
    data = rng.randbytes(15 * 512 - 1)
    msgs = storagesim.ingest(data, gf256, 15)
    out["storagesim.ingest_MBps"] = len(data) / us(
        storagesim.ingest, [(data, gf256, 15)])
    out["storagesim.emit_MBps"] = len(data) / us(storagesim.emit, [(msgs, gf256)])
    return out
