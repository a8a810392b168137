#!/usr/bin/env python3
"""CI glue for the occ-bench-v1 reports (see README "Benchmarking").

Subcommands:
  merge OUT IN...          Merge driver reports into one report; metric
                           and meta keys are namespaced by driver name
                           ("engines.fsim_tf.gate_evals", ...).
  compare BASELINE CURRENT Compare a merged report against the committed
                           baseline. All metrics are lower-is-better.
                           Deterministic work metrics (everything except
                           wall clock) fail on a regression beyond
                           --max-regress (default 25%). Wall-clock
                           metrics (*.wall_ms / *.wall_s) are
                           record-only by default -- the committed
                           baseline was produced on a different machine
                           and shared CI runners jitter far more than
                           real regressions of the deterministic
                           counters do. Pass --max-wall-regress R to
                           gate them anyway (fail beyond R x baseline).
  check-ratio REPORT A B --min-ratio R
                           Assert metric A >= R * metric B (used to pin
                           the fsim_batch window speedup).

Exit code 0 = OK, 1 = regression/assertion failure, 2 = usage error.
"""

import argparse
import json
import sys


def load(path):
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") != "occ-bench-v1":
        sys.exit(f"{path}: not an occ-bench-v1 report")
    return doc


def cmd_merge(args):
    merged = {
        "schema": "occ-bench-v1",
        "driver": "merged",
        "meta": {},
        "metrics": {},
    }
    for path in args.inputs:
        doc = load(path)
        prefix = doc.get("driver", "unknown").removeprefix("bench_")
        for section in ("meta", "metrics"):
            for key, value in doc.get(section, {}).items():
                namespaced = f"{prefix}.{key}"
                if namespaced in merged[section]:
                    sys.exit(f"{path}: duplicate {section} key "
                             f"{namespaced} (two inputs share driver "
                             f"'{doc.get('driver')}'?)")
                merged[section][namespaced] = value
    with open(args.out, "w") as f:
        json.dump(merged, f, indent=2)
        f.write("\n")
    print(f"merged {len(args.inputs)} report(s) into {args.out}")
    return 0


def is_wall_metric(key):
    # Suffix match without requiring a "." separator so compound names
    # like cache.cold_wall_ms gate as walls, not as work counters.
    return key.endswith("wall_ms") or key.endswith("wall_s")


def cmd_compare(args):
    """Per-metric improvement/regression table (ratio vs baseline).

    Every metric is printed with its current/baseline ratio and a
    status, so the CI job log shows the perf trajectory of the change,
    not just the pass/fail verdict:
      improved    ratio <= 1 - noise floor (5%)
      ok          within the noise floor
      regressed   beyond the noise floor but inside the gate
      REGRESSION  beyond the gate (fails the job)
      record-only wall metric while wall gating is off
      new         metric absent from the committed baseline
      missing     baseline metric absent from the current report
                  (fails only if the metric would have been gated --
                  a renamed record-only wall must not break CI)
    """
    base = load(args.baseline)["metrics"]
    cur = load(args.current)["metrics"]
    noise = 0.05
    failures = []
    improved = regressed = stable = new = missing = 0
    print(f"{'metric':<48} {'baseline':>14} {'current':>14} "
          f"{'ratio':>7}  status")
    for key in sorted(set(base) | set(cur)):
        if key not in base:
            print(f"{key:<48} {'-':>14} {float(cur[key]):>14.6g} "
                  f"{'-':>7}  new")
            new += 1
            continue
        if key not in cur:
            b = float(base[key])
            if is_wall_metric(key):
                baseline_ms = b * 1e3 if key.endswith("wall_s") else b
                gated = bool(args.max_wall_regress) and \
                    baseline_ms >= args.wall_floor_ms
            else:
                gated = True
            status = "<< MISSING (gated)" if gated else "missing"
            print(f"{key:<48} {b:>14.6g} {'-':>14} {'-':>7}  {status}")
            missing += 1
            if gated:
                failures.append(
                    f"{key}: gated metric present in baseline but "
                    f"missing from the current report")
            continue
        b, c = float(base[key]), float(cur[key])
        ratio = c / b if b > 0 else (1.0 if c == 0 else float("inf"))
        wall = is_wall_metric(key)
        if wall:
            # Millisecond-scale walls jitter more than 1.5x across CI
            # runner generations even as repeat medians; only walls
            # above the floor are trustworthy enough to gate.
            baseline_ms = b * 1e3 if key.endswith("wall_s") else b
            gateable = baseline_ms >= args.wall_floor_ms
            limit = args.max_wall_regress if (
                args.max_wall_regress and gateable) else float("inf")
        else:
            limit = 1.0 + args.max_regress
        if ratio > limit:
            status = "<< REGRESSION"
            failures.append(
                f"{key}: {b:g} -> {c:g} ({ratio:.2f}x > {limit:.2f}x limit)")
        elif ratio <= 1.0 - noise:
            status = "improved"
            improved += 1
        elif ratio >= 1.0 + noise:
            status = "regressed" if limit != float("inf") \
                else "regressed (record-only)"
            regressed += 1
        else:
            status = "ok"
            stable += 1
        print(f"{key:<48} {b:>14.6g} {c:>14.6g} {ratio:>6.2f}x  {status}")
    print(f"\nsummary: {improved} improved, {regressed} regressed, "
          f"{stable} within {noise:.0%} noise, {new} new, "
          f"{missing} missing (lower is better for every metric)")
    if failures:
        print("\nFAIL: regressions vs", args.baseline, file=sys.stderr)
        for f in failures:
            print(" ", f, file=sys.stderr)
        return 1
    print("OK: no regressions beyond thresholds")
    return 0


def cmd_check_ratio(args):
    metrics = load(args.report)["metrics"]
    for key in (args.numerator, args.denominator):
        if key not in metrics:
            sys.exit(f"{args.report}: missing metric {key}")
    num = float(metrics[args.numerator])
    den = float(metrics[args.denominator])
    ratio = num / den if den > 0 else float("inf")
    ok = ratio >= args.min_ratio
    print(f"{args.numerator} / {args.denominator} = {ratio:.2f}x "
          f"(required >= {args.min_ratio}x): {'OK' if ok else 'FAIL'}")
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__)
    sub = p.add_subparsers(dest="cmd", required=True)

    m = sub.add_parser("merge")
    m.add_argument("out")
    m.add_argument("inputs", nargs="+")
    m.set_defaults(fn=cmd_merge)

    c = sub.add_parser("compare")
    c.add_argument("baseline")
    c.add_argument("current")
    c.add_argument("--max-regress", type=float, default=0.25,
                   help="allowed fractional regression for work metrics")
    c.add_argument("--max-wall-regress", type=float, default=None,
                   help="gate wall-clock metrics at this ratio "
                        "(default: record-only)")
    c.add_argument("--wall-floor-ms", type=float, default=20.0,
                   help="wall metrics whose baseline is below this stay "
                        "record-only even when --max-wall-regress is set "
                        "(sub-floor timings jitter beyond any honest gate)")
    c.set_defaults(fn=cmd_compare)

    r = sub.add_parser("check-ratio")
    r.add_argument("report")
    r.add_argument("numerator")
    r.add_argument("denominator")
    r.add_argument("--min-ratio", type=float, required=True)
    r.set_defaults(fn=cmd_check_ratio)

    args = p.parse_args()
    sys.exit(args.fn(args))


if __name__ == "__main__":
    main()
