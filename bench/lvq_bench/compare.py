#!/usr/bin/env python3
"""Compare two sets of lvq_bench runs, one row per workload x end-to-end metric.

    python3 bench/lvq_bench/compare.py BASE_DIR CHANGE_DIR
    python3 bench/lvq_bench/compare.py --repeat-check SET1_DIR SET2_DIR

Each directory holds run JSONs as lvq_bench writes them with --out (run.py
keeps them under .bench_build/lvq_bench/runs/). Runs pair up by seed. Bounds
and directions come from BENCHMARK.json.

Default mode gives each row a verdict, following the choosing-metrics rules:
  better         the change wins >= 9/10 of the seed pairs (ties count for
                 neither) and the medians differ by more than the base's
                 quartile spread
  worse          the change's median is worse by more than the bound
  unresolved     the base's quartile spread is wider than the bound, and not
                 every change run reads better (or worse) than every base run
  within bound   otherwise
Each workload also gets a fail_ratio row (failed / attempted nominal
requests over all its runs, from each run's `failed` and `attempted`). Its
bound is 0, absolute: the change is worse if it fails a larger share of
requests than the base. Failed requests are left out of the latency and
reply metrics, so this row keeps shed load from reading as a speed-up.
Exit status is 1 when any row is worse.

--repeat-check is for two sets of the same code: every row's two medians
must agree within the bound and each set's quartile spread must stay within
it (setup_s is exempt from the spread rule), and both sets must fail the
same share of requests; at least three runs per set. Exit status is 1 when
any row fails.

Refuses (exit 2) to compare runs whose parameters differ apart from the seed.
"""
import argparse
import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def load_runs(directory):
    """workload -> {seed: run} for every lvq_bench run JSON in `directory`."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        try:
            with open(path) as f:
                run = json.load(f)
        except (OSError, ValueError):
            continue
        if not isinstance(run, dict) or run.get("bench") != "lvq_bench":
            continue
        runs.setdefault(run["workload"], {})[run["params"]["seed"]] = run
    return runs


def check_params(sets):
    """Exits 2 unless all runs of a workload share every parameter but the seed."""
    for workload in sorted(set().union(*sets)):
        seen = {}
        for runs in sets:
            for seed, run in runs.get(workload, {}).items():
                params = {k: v for k, v in run["params"].items() if k != "seed"}
                key = json.dumps(params, sort_keys=True)
                seen.setdefault(key, []).append(seed)
        if len(seen) > 1:
            print("refusing: %s runs differ in parameters:" % workload, file=sys.stderr)
            for key, seeds in seen.items():
                print("  seeds %s: %s" % (sorted(seeds), key), file=sys.stderr)
            sys.exit(2)
        envs = {json.dumps(run.get("env"), sort_keys=True)
                for runs in sets for run in runs.get(workload, {}).values()}
        if len(envs) > 1:
            print("warning: %s runs come from different environments" % workload,
                  file=sys.stderr)


def stats(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def values_of(runs, name):
    return {seed: run["metrics"][name]["value"] for seed, run in runs.items()
            if name in run["metrics"] and run["metrics"][name]["value"] is not None}


def fail_ratio(runs):
    attempted = sum(run["attempted"] for run in runs.values())
    return sum(run["failed"] for run in runs.values()) / attempted if attempted else 1.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("change")
    ap.add_argument("--repeat-check", action="store_true",
                    help="both directories hold runs of the same code")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]
    a_runs, b_runs = load_runs(args.base), load_runs(args.change)
    check_params([a_runs, b_runs])

    header = "%-21s %-22s %11s %23s %11s %23s %6s %7s %6s  %s" % (
        "workload", "metric", "A median", "A q1..q3", "B median", "B q1..q3",
        "B wins", "spread", "bound", "verdict")
    print(header)
    print("-" * len(header))
    failed = False
    for workload in sorted(set(a_runs) | set(b_runs)):
        a_all, b_all = a_runs.get(workload, {}), b_runs.get(workload, {})
        if args.repeat_check and (len(a_all) < 3 or len(b_all) < 3):
            print("%-21s needs >= 3 runs per set (have %d and %d)"
                  % (workload, len(a_all), len(b_all)))
            failed = True
            continue
        if not a_all or not b_all:
            print("%-21s missing from one side" % workload)
            failed = True
            continue
        for m in metrics:
            name, bound = m["name"], m["bound"]
            sign = 1 if m["better"] == "higher" else -1
            a, b = values_of(a_all, name), values_of(b_all, name)
            if not a or not b:
                print("%-21s %-22s missing" % (workload, name))
                failed = True
                continue
            aq1, amed, aq3 = stats(list(a.values()))
            bq1, bmed, bq3 = stats(list(b.values()))
            pairs = [(a[s], b[s]) for s in a if s in b]
            wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
            a_spread = (aq3 - aq1) / abs(amed) if amed else 0.0
            b_spread = (bq3 - bq1) / abs(bmed) if bmed else 0.0
            change = sign * (bmed - amed) / abs(amed) if amed else 0.0
            if args.repeat_check:
                spread = max(a_spread, b_spread)
                ok = abs(bmed - amed) <= bound * abs(amed) and (
                    name == "setup_s" or spread <= bound)
                verdict = "agree" if ok else "DISAGREE"
                failed |= not ok
            else:
                spread = a_spread
                all_better = all(sign * (y - x) > 0 for x in a.values() for y in b.values())
                all_worse = all(sign * (y - x) < 0 for x in a.values() for y in b.values())
                if pairs and wins >= 0.9 * len(pairs) and change > 0 \
                        and abs(bmed - amed) > aq3 - aq1:
                    verdict = "better"
                elif spread > bound and not (all_better or all_worse):
                    verdict = "unresolved"
                elif change < -bound:
                    verdict = "worse"
                else:
                    verdict = "within bound"
                failed |= verdict == "worse"
            print("%-21s %-22s %11.4g %11.4g..%-10.4g %11.4g %11.4g..%-10.4g %3d/%-2d %6.1f%% %5.0f%%  %s" % (
                workload, name, amed, aq1, aq3, bmed, bq1, bq3, wins, len(pairs),
                100 * spread, 100 * bound, verdict))
        fa, fb = fail_ratio(a_all), fail_ratio(b_all)
        if args.repeat_check:
            verdict = "agree" if fa == fb else "DISAGREE"
        else:
            verdict = "worse" if fb > fa else "better" if fb < fa else "within bound"
        failed |= verdict in ("worse", "DISAGREE")
        print("%-21s %-22s %11.4g %23s %11.4g %23s %6s %7s %6s  %s" % (
            workload, "fail_ratio", fa, "", fb, "", "", "", "0 abs", verdict))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
