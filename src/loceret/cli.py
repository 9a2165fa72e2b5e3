"""Command-line surface: construct codes, analyze locality, export repair
plans, repair words, run fault-injection campaigns, and self-verify the
built-in worked example over GF(13).

Human-readable summaries go to stdout; machine reports (JSON, stable key
order) go to the path given by --out.  Exit code 0 means no error and no
bound violation.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import codeops, localrepair, rscodes, storagesim
from .descriptor import DescriptorError, build_code, load_descriptor
from .galois import Field

SCHEMA_VERSION = 1


class MissingErasureError(ValueError):
    """Word file must erase exactly the target coordinate."""


class MultipleErasuresError(ValueError):
    """Word file contains more than one erasure."""


def emit_report(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _base_report(command: str, digest: str | None = None) -> dict:
    doc = {"schema_version": SCHEMA_VERSION, "command": command}
    if digest is not None:
        doc["descriptor_digest"] = digest
    return doc


def _plan_record(plan) -> dict:
    return {"target": plan.target,
            "helpers": list(plan.helpers),
            "coordinates": list(plan.barred),
            "recovery_word": list(plan.weights),
            "detection_rows": [list(row) for row in plan.check_rows],
            "t": plan.t}


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def cmd_analyze(args) -> tuple[dict, int]:
    if args.t < 0:
        raise ValueError(f"--t must be nonnegative, got {args.t}")
    desc = load_descriptor(args.descriptor)
    bundle = build_code(desc)
    code = bundle.code
    doc = _base_report("analyze", bundle.digest)
    doc["code"] = {"construction": bundle.kind, "n": code.n, "k": code.k,
                   "q": bundle.field.q}
    cert = codeops.certify(code, args.t, bundle.spec, greedy=args.greedy)
    doc.update(cert.to_dict())
    if cert.distance is None:
        distance = "no distance known"
    else:
        relation = "=" if cert.distance_kind == "exact" else ">="
        distance = f"d {relation} {cert.distance}"
    print(f"[{code.n},{code.k}] code over GF({bundle.field.q}), "
          f"{distance} ({cert.distance_kind})")
    report = cert.locality
    if report.r_t is None:
        print(f"t={args.t}: not locally recoverable with detection "
              f"(coordinates {list(report.not_t_lredc)})")
    else:
        bound_word = "exact" if report.mode == "exhaustive" else "upper bound"
        print(f"t={args.t}: locality {report.r_t} ({bound_word})"
              + (", t-optimal" if cert.t_optimal else ""))
    if cert.violation:
        print("BOUND VIOLATION detected; see report", file=sys.stderr)
    return doc, (1 if cert.violation else 0)


# ---------------------------------------------------------------------------
# plan
# ---------------------------------------------------------------------------

def cmd_plan(args) -> tuple[dict, int]:
    desc = load_descriptor(args.descriptor)
    bundle = build_code(desc)
    helpers = None
    if args.helpers:
        try:
            helpers = [int(tok) for tok in args.helpers.split(",") if tok.strip()]
        except ValueError:
            raise ValueError("--helpers: expected comma-separated coordinates, "
                             f"got {args.helpers!r}") from None
    plan = localrepair.plan_for(bundle, args.target, args.t, helpers=helpers)
    doc = _base_report("plan", bundle.digest)
    doc["plan"] = _plan_record(plan)
    print(f"target {plan.target}: helpers {list(plan.helpers)}, "
          f"recovery word {list(plan.weights)}, "
          f"{len(plan.check_rows)} detection row(s)")
    return doc, 0


# ---------------------------------------------------------------------------
# repair
# ---------------------------------------------------------------------------

def _load_word(field, path, n: int):
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                word = rscodes.parse_codeword_line(field, line)
                break
        else:
            raise ValueError(f"{path}: no codeword line found")
    if len(word.symbols) != n:
        raise ValueError(f"{path}: expected {n} symbols, got {len(word.symbols)}")
    return word


def cmd_repair(args) -> tuple[dict, int]:
    desc = load_descriptor(args.descriptor)
    bundle = build_code(desc)
    word = _load_word(bundle.field, args.word, (bundle.spec or bundle.code).n)
    if len(word.erased) > 1:
        raise MultipleErasuresError(
            f"word erases {sorted(word.erased)}; repair handles exactly one")
    if word.erased != {args.target}:
        raise MissingErasureError(
            f"word must erase exactly the target coordinate {args.target}")
    plan = localrepair.plan_for(bundle, args.target, args.t)
    values = [word.symbols[c] for c in plan.helpers]
    outcome = localrepair.repair(plan, values)
    doc = _base_report("repair", bundle.digest)
    doc["target"] = args.target
    doc["plan"] = _plan_record(plan)
    if outcome.detected:
        doc["outcome"] = {"status": "error-detected"}
        print(f"target {args.target}: helper corruption detected, no value returned")
    else:
        doc["outcome"] = {"status": "recovered", "value": outcome.value}
        print(f"target {args.target}: recovered value {outcome.value}")
    return doc, 0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def cmd_simulate(args) -> tuple[dict, int]:
    with open(args.config, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError("config: expected a JSON object")
    if "code_file" in raw:
        if "code" in raw:
            raise ValueError("config.code_file: unread when code is given; "
                             "give one of them")
        if not isinstance(raw["code_file"], str):
            raise ValueError("config.code_file: expected a file name")
        raw["code"] = load_descriptor(raw["code_file"])
    if args.seed is not None:
        raw["seed"] = args.seed
    config = storagesim.config_from_dict(raw)
    policies = raw.get("policies")
    sweep = raw.get("sweep")
    rows = storagesim.compare_policies(config, policies, sweep)
    doc = _base_report("simulate")
    if policies or sweep:
        doc["runs"] = [{"policy": row["policy"], "channel": row["channel"],
                        "report": row["report"].to_dict()} for row in rows]
        for row in rows:
            rep = row["report"]
            print(f"{row['policy']} @ {row['channel']}: "
                  f"{rep.counts['clean_correct']} clean, "
                  f"{rep.counts['naive_wrong']} naive-wrong, "
                  f"{rep.counts['detected']} detected, "
                  f"{rep.counts['missed_wrong']} missed-wrong")
    else:
        report = rows[0]["report"]
        doc["report"] = report.to_dict()
        print(f"{report.trials} trials, seed {report.seed}: "
              f"{report.counts['clean_correct']} clean, "
              f"{report.counts['naive_wrong']} naive-wrong, "
              f"{report.counts['detected']} detected, "
              f"{report.counts['missed_wrong']} missed-wrong")
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(storagesim.sweep_csv(rows))
    return doc, 0


# ---------------------------------------------------------------------------
# paper-example: self-verifying reproduction of the worked example
# ---------------------------------------------------------------------------

EXAMPLE_FIBRES = ((1, (1, 5, 8, 12)), (3, (2, 3, 10, 11)), (9, (4, 6, 7, 9)))
EXAMPLE_DETECTION_ROW = (8, 12, 6)
EXAMPLE_RECOVERY_WORD = (3, 2, 11, 10)


def worked_example_checks(field: Field | None = None) -> list[dict]:
    """Construct the GF(13), y = x^4 code and compare eight quantities against
    their hard-coded expected values.  The optional field override exists so
    the negative control (a deliberately wrong field) can be exercised."""
    if field is None:
        field = Field(13)
    # (name, expected value) of the eight quantities, in report order
    expected = (("fibres", [[b, list(m)] for b, m in EXAMPLE_FIBRES]),
                ("n", 12), ("k", 6),
                ("detection_row", list(EXAMPLE_DETECTION_ROW)),
                ("recovery_word", list(EXAMPLE_RECOVERY_WORD)),
                ("detect_clean", "clean"), ("recovered_value", 2),
                ("detect_corrupted", "corrupted"))
    try:
        spec = rscodes.lrcrs_make(field, [0, 0, 0, 0, 1], [2, 2])
    except ValueError as exc:
        return [{"name": name, "expected": want,
                 "got": f"construction failed: {exc}", "ok": False}
                for name, want in expected]

    plan = localrepair.plan_lrcrs(spec, 0)
    clean = (6, 9, 0)
    corrupted = (7, 9, 0)
    got = ([[b, list(m)] for b, m in spec.fibres], spec.n, spec.k,
           list(plan.check_rows[0]) if plan.check_rows else None,
           list(plan.weights),
           "corrupted" if localrepair.detect(plan, clean) else "clean",
           localrepair.recover(plan, clean),
           "corrupted" if localrepair.detect(plan, corrupted) else "clean")
    return [{"name": name, "expected": want, "got": value, "ok": want == value}
            for (name, want), value in zip(expected, got)]


def cmd_paper_example(args) -> tuple[dict, int]:
    checks = worked_example_checks()
    doc = _base_report("paper-example")
    doc["checks"] = checks
    doc["pass"] = all(c["ok"] for c in checks)
    for c in checks:
        status = "ok" if c["ok"] else f"MISMATCH (expected {c['expected']}, got {c['got']})"
        print(f"  {c['name']}: {status}")
    print(f"paper-example: {'PASS' if doc['pass'] else 'FAIL'} "
          f"({sum(c['ok'] for c in checks)}/{len(checks)} quantities)")
    return doc, (0 if doc["pass"] else 1)


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """Built once per process; main looks cmd_* up at each call."""
    parser = argparse.ArgumentParser(
        prog="loceret",
        description="Locally recoverable codes with helper-error detection")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="distance, locality and bound report")
    p.add_argument("descriptor", help="code descriptor JSON file")
    p.add_argument("--t", type=int, default=0, help="detection capacity")
    p.add_argument("--greedy", action="store_true",
                   help="upper-bound search only (non-exact, labelled)")
    p.add_argument("--out", help="write the machine report here")

    p = sub.add_parser("plan", help="export a recovery plan for one coordinate")
    p.add_argument("descriptor")
    p.add_argument("--target", type=int, required=True)
    p.add_argument("--t", type=int, default=1)
    p.add_argument("--helpers", help="comma-separated helper coordinates")
    p.add_argument("--out")

    p = sub.add_parser("repair", help="repair one erased coordinate of a word")
    p.add_argument("descriptor")
    p.add_argument("--word", required=True, help="codeword file with ? at the target")
    p.add_argument("--target", type=int, required=True)
    p.add_argument("--t", type=int, default=1)
    p.add_argument("--out")

    p = sub.add_parser("simulate", help="run a fault-injection campaign")
    p.add_argument("config", help="cluster config JSON file")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--csv", help="write the sweep table here")
    p.add_argument("--workers", type=int, default=1,
                   help="accepted for compatibility; the report and the "
                        "speed do not depend on it")
    p.add_argument("--out")

    p = sub.add_parser("paper-example",
                       help="verify the built-in worked example over GF(13)")
    p.add_argument("--out")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        doc, status = handler(args)
    except (DescriptorError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(emit_report(doc))
    return status


if __name__ == "__main__":
    sys.exit(main())
