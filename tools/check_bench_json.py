#!/usr/bin/env python3
"""Validates a bench JSON artifact (bench_throughput --topk,
bench_serving).

CI runs this against the committed BENCH_topk.json / BENCH_serving.json
(and against freshly generated files on the bench job) so each schema
stays a contract: downstream tooling may parse these fields by name,
and a silent rename or type change would break it long after the
commit that caused it. The per-run field set is keyed by the top-level
"suite" field; every suite shares the same envelope. Stdlib only.

Usage: check_bench_json.py <path> [<path>...]
Exit 0 when every file validates; 1 with per-field diagnostics.
"""

import json
import sys

SCHEMA_VERSION = 1


def positive(v):
    return None if v > 0 else "must be > 0"


def non_negative(v):
    return None if v >= 0 else "must be >= 0"


def rate(v):
    return None if 0 <= v <= 1 else "must be in [0, 1]"


# (field, type, validator or None) per run entry, keyed by suite.
# Validators get the parsed value and return an error string or None.
SUITE_RUN_FIELDS = {
    "topk": [
        ("scorer", str, lambda v: None if v else "must be non-empty"),
        ("num_entities", int, positive),
        ("k", int, positive),
        ("sweep_scan_mscores_per_sec", (int, float), positive),
        ("topk_mscores_per_sec", (int, float), positive),
        ("topk_batch_mscores_per_sec", (int, float), positive),
        ("speedup", (int, float), positive),
        ("batch_speedup", (int, float), positive),
        ("topk_queries_per_sec", (int, float), positive),
        ("topk_batch_queries_per_sec", (int, float), positive),
    ],
    "serving": [
        # Load-generation mode: "closed" (each connection waits for its
        # answer) or "open" (Poisson arrivals at offered_qps).
        ("mode", str,
         lambda v: None if v in ("closed", "open") else
         "must be 'closed' or 'open'"),
        ("connections", int, positive),
        # Batching knob as a string, not a bool: the schema has no
        # boolean fields (bool is rejected for every type).
        ("batching", str,
         lambda v: None if v in ("on", "off") else "must be 'on' or 'off'"),
        ("max_batch", int, positive),
        ("workers", int, positive),
        ("requests", int, positive),
        ("qps", (int, float), positive),
        # Offered load; equals the measured qps target for closed loops
        # (no pacing), the Poisson rate for open loops.
        ("offered_qps", (int, float), positive),
        ("p50_us", (int, float), positive),
        ("p99_us", (int, float), positive),
        ("p999_us", (int, float), positive),
        # Realized top-K batch sizes: mean plus the engine's 8-bucket
        # histogram (1, 2, 3-4, 5-8, 9-16, 17-32, 33-64, 65+).
        ("mean_batch", (int, float), positive),
        ("batch_size_hist", list,
         lambda v: None if len(v) == 8 and all(
             isinstance(x, int) and not isinstance(x, bool) and x >= 0
             for x in v) else "must be 8 non-negative ints"),
        # Robustness fields (bench_serving --inject), present on EVERY
        # run so the injected and clean regimes share one schema:
        # "injected" marks the regime, deadline_us the per-request budget
        # (0 when none), and the rates the fraction of requests shed by
        # the engine (kDeadlineExceeded, never executed) vs answered OK
        # but past budget.
        ("injected", str,
         lambda v: None if v in ("on", "off") else "must be 'on' or 'off'"),
        ("deadline_us", int, non_negative),
        ("deadline_miss_rate", (int, float), rate),
        ("shed_rate", (int, float), rate),
    ],
}

TOP_FIELDS = [
    ("schema_version", int,
     lambda v: None if v == SCHEMA_VERSION else
     "expected schema_version %d, got %r" % (SCHEMA_VERSION, v)),
    ("suite", str,
     lambda v: None if v in SUITE_RUN_FIELDS else
     "unknown suite %r (known: %s)" % (v, ", ".join(sorted(SUITE_RUN_FIELDS)))),
    ("simd_path", str,
     lambda v: None if v in ("scalar", "avx2", "neon") else
     "unknown simd_path %r" % v),
    ("threads", int, lambda v: None if v >= 1 else "must be >= 1"),
    ("dim", int, positive),
    ("runs", list, lambda v: None if v else "must be non-empty"),
]


def check_fields(obj, fields, where, errors):
    for name, types, validate in fields:
        if name not in obj:
            errors.append("%s: missing field %r" % (where, name))
            continue
        value = obj[name]
        # bool is an int subclass; never a valid numeric field here.
        if isinstance(value, bool) or not isinstance(value, types):
            errors.append("%s: field %r has type %s" %
                          (where, name, type(value).__name__))
            continue
        if validate is not None:
            err = validate(value)
            if err:
                errors.append("%s: field %r %s" % (where, name, err))
    for name in obj:
        if name not in [f[0] for f in fields]:
            errors.append("%s: unknown field %r (schema_version %d has a "
                          "closed field set)" % (where, name, SCHEMA_VERSION))


def check_serving_invariants(doc, path, errors):
    """Percentiles must be monotone within each serving run."""
    for i, run in enumerate(doc.get("runs") or []):
        if not isinstance(run, dict):
            continue
        where = "%s: runs[%d]" % (path, i)
        p50 = run.get("p50_us")
        p99 = run.get("p99_us")
        p999 = run.get("p999_us")
        nums = (int, float)
        if isinstance(p50, nums) and isinstance(p99, nums) and p50 > p99:
            errors.append("%s: p50_us %r exceeds p99_us %r" %
                          (where, p50, p99))
        if isinstance(p99, nums) and isinstance(p999, nums) and p99 > p999:
            errors.append("%s: p99_us %r exceeds p999_us %r" %
                          (where, p99, p999))


def check_file(path):
    errors = []
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        return ["%s: %s" % (path, e)]
    if not isinstance(doc, dict):
        return ["%s: top-level value is not an object" % path]
    check_fields(doc, TOP_FIELDS, path, errors)
    run_fields = SUITE_RUN_FIELDS.get(doc.get("suite"))
    for i, run in enumerate(doc.get("runs") or []):
        where = "%s: runs[%d]" % (path, i)
        if not isinstance(run, dict):
            errors.append("%s: not an object" % where)
            continue
        if run_fields is not None:
            check_fields(run, run_fields, where, errors)
    if doc.get("suite") == "serving":
        check_serving_invariants(doc, path, errors)
    return errors


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 1
    failed = False
    for path in argv[1:]:
        errors = check_file(path)
        if errors:
            failed = True
            for e in errors:
                print("FAIL %s" % e, file=sys.stderr)
        else:
            print("OK   %s" % path)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
