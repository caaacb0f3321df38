#!/usr/bin/env python3
"""Builds and runs the sppnet performance benchmark (bench/perf).

Run from the repository root. The first call configures and builds
build-perf/sppnet_perf from the repository sources; later calls only
re-check the build. The binary runs inside build-perf/, so a traced run
leaves its span file there.

One workload, one process; the last stdout line is the JSON result
({"correct", "attempted", "failed", "metrics"}) holding the end-to-end
metrics of BENCHMARK.json, or its per-layer metrics with --trace 1.
Each workload's work is fixed, sized to BENCHMARK.json's run_seconds;
--seconds is accepted for the benchmark's command line and changes
nothing:

  python3 bench/perf/run.py --workload flood_1e5 --seed 7 --seconds 14 --trace 0

Every workload, K repeats in alternating order, per-seed digest and check
agreement, medians and quartiles; --trace 1 adds a traced run beside each
untraced one and reports the tracing overhead; --sets 2 repeats the whole
measurement and compares the medians of the sets:

  python3 bench/perf/run.py --repeat 5 --seeds 7,8 [--sets 2] [--trace 1]

Two sppnet_perf binaries (parent A, change B), 10 alternating pairs per
workload, judged by the 9-of-10-wins and quartile-spread rule for a gain
and by each metric's bound for a regression:

  python3 bench/perf/run.py --compare A B [--seeds 7,8,9]
"""

import argparse
import fcntl
import json
import math
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
PERF_DIR = ROOT / "bench" / "perf"
BUILD_DIR = ROOT / "build-perf"
BINARY = BUILD_DIR / "sppnet_perf"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 170
COMPARE_PAIRS = 10

# End-to-end metrics that only some workloads have. BENCHMARK.json lists
# the ones every workload reports; these keep their bounds here so that
# --repeat and --compare judge them the same way.
WORKLOAD_E2E = [
    {"name": "sources_per_s", "unit": "1/s", "better": "higher",
     "bound": 0.25, "workloads": ["eval_1e5"]},
    {"name": "window_p50_ms", "unit": "ms", "better": "lower",
     "bound": 0.25, "workloads": ["serve_1e4"]},
    {"name": "checkpoint_ms", "unit": "ms", "better": "lower",
     "bound": 0.25, "workloads": ["serve_1e4"]},
    {"name": "query_fail_frac", "unit": "1", "better": "lower",
     "bound": 0.10, "workloads": ["serve_1e4"]},
]


def e2e_specs(workload):
    specs = list(SPEC["end_to_end"])
    specs += [m for m in WORKLOAD_E2E if workload in m["workloads"]]
    return specs


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


# --- Child processes ---------------------------------------------------

CHILD = None


def kill_child():
    """Kills the running child's whole process group and reaps it."""
    if CHILD is not None and CHILD.poll() is None:
        os.killpg(CHILD.pid, signal.SIGKILL)
        CHILD.wait()


def on_signal(signum, _frame):
    kill_child()
    sys.exit(128 + signum)


def run_child(cmd, timeout, capture):
    """Runs cmd inside the build directory in its own process group.
    Returns (exit code, stdout, stderr), or None after killing it on
    timeout. Uncaptured output goes to our stderr."""
    global CHILD
    out = subprocess.PIPE if capture else sys.stderr
    BUILD_DIR.mkdir(exist_ok=True)
    CHILD = subprocess.Popen(cmd, cwd=BUILD_DIR, stdout=out, stderr=out,
                             text=True, start_new_session=True)
    try:
        stdout, stderr = CHILD.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        kill_child()
        return None
    finally:
        code = CHILD.returncode
        CHILD = None
    return code, stdout or "", stderr or ""


# --- Build -------------------------------------------------------------

def cache_source_dir():
    cache = BUILD_DIR / "CMakeCache.txt"
    if not cache.is_file():
        return None
    for line in cache.read_text(errors="replace").splitlines():
        if line.startswith("CMAKE_HOME_DIRECTORY:"):
            return line.split("=", 1)[1]
    return None


def build():
    """Configures (once) and builds sppnet_perf; its output goes to stderr."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no sppnet sources under {ROOT}: run from a full checkout")
    BUILD_DIR.mkdir(exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(BUILD_DIR / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if cache_source_dir() != str(PERF_DIR):
            steps.append(["cmake", "-S", str(PERF_DIR), "-B", str(BUILD_DIR),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs,
                      "--target", "sppnet_perf"])
        for step in steps:
            done = run_child(step, BUILD_TIMEOUT_S, capture=False)
            if done is None:
                fail("build timed out")
            if done[0] != 0:
                fail(f"build step failed: {' '.join(step)}")


# --- Running the binary ------------------------------------------------

def run_binary(binary, workload, seed, trace, echo=False):
    """Runs one workload; returns its JSON result line, parsed."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed)]
    if trace:
        cmd.append("--trace")
    done = run_child(cmd, RUN_TIMEOUT_S, capture=True)
    if done is None:
        fail(f"{workload} seed {seed} exceeded {RUN_TIMEOUT_S} s")
    code, stdout, stderr = done
    lines = stdout.rstrip("\n").split("\n")
    if echo:
        for line in lines[:-1]:
            print(line)
    sys.stderr.write(stderr)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"{workload} seed {seed} printed no result (exit code {code})")
    result["exit_code"] = code
    return result


def run_contract(args):
    build()
    trace = args.trace == 1
    native = run_binary(BINARY, args.workload, args.seed, trace, echo=True)
    correct = native["exit_code"] == 0 and all(native["checks"].values())
    specs = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    metrics = {}
    for spec in specs:
        value = native["metrics"].get(spec["name"])
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"{args.workload} did not report {spec['name']}")
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
    attempted = native["ops_total"]
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": native["ops_failed"], "metrics": metrics}))
    return 0 if correct else 1


# --- Statistics --------------------------------------------------------

def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def g3(x):
    return f"{x:.3g}"


def worse_by(a, b, better):
    """How much worse b is than a, as a share of a (negative: better)."""
    if a == 0:
        return 0.0
    return (b - a) / abs(a) if better == "lower" else (a - b) / abs(a)


# --- --repeat: medians, quartiles and agreement across repeats --------

def measure_set(args, workloads, seeds):
    """Runs every (workload, seed) args.repeat times in alternating
    workload order; returns {workload: [result, ...]}."""
    runs = {w: [] for w in workloads}
    for r in range(args.repeat):
        order = workloads if r % 2 == 0 else list(reversed(workloads))
        for workload in order:
            for seed in seeds:
                modes = [False, True] if args.trace == 1 else [False]
                for trace in modes:
                    result = run_binary(BINARY, workload, seed, trace)
                    mode = " traced" if trace else ""
                    print(f"  {workload} seed {seed}{mode}: run_s "
                          f"{g3(result['metrics']['run_s'])}", file=sys.stderr)
                    runs[workload].append(result)
    return runs


def report_set(runs):
    """Prints the per-workload tables; returns (problems, medians)."""
    problems = []
    medians = {}
    for workload, results in runs.items():
        plain = [r for r in results if not r["trace"]]
        traced = [r for r in results if r["trace"]]
        first = results[0]
        print(f"\n{workload}  (hardware_threads {first['hardware_threads']}, "
              f"{len(plain)} untraced + {len(traced)} traced runs)")
        print(f"  {'metric':<32} {'unit':>6} {'n':>3} {'q1':>9} {'median':>9}"
              f" {'q3':>9} {'spread':>7} {'bound':>6}")
        bounds = {m["name"]: m for m in e2e_specs(workload)}
        names = list(dict.fromkeys(
            n for r in plain + traced for n in r["metrics"]))
        for name in names:
            source = plain if name in plain[0]["metrics"] else traced
            values = [r["metrics"][name] for r in source
                      if name in r["metrics"]]
            unit = source[0]["units"][name]
            q1, med, q3 = quartiles(values)
            s = spread(values)
            medians[(workload, name)] = (med, values)
            bound = bounds.get(name, {}).get("bound")
            flag = ""
            if bound is not None and s > bound:
                flag = "  SPREAD > BOUND"
                problems.append(f"{workload} {name}: spread {s:.1%} > "
                                f"bound {bound:.0%}")
            print(f"  {name:<32} {unit:>6} {len(values):>3} {g3(q1):>9} "
                  f"{g3(med):>9} {g3(q3):>9} {s:>7.1%} "
                  f"{'' if bound is None else f'{bound:.0%}':>6}{flag}")
        if traced:
            overhead = (
                statistics.median(r["metrics"]["run_s"] for r in traced)
                - statistics.median(r["metrics"]["run_s"] for r in plain))
            print(f"  tracing overhead (traced - untraced median run_s): "
                  f"{g3(overhead)} s")
        # Per seed: digests, checks and count metrics must repeat exactly,
        # and a traced run must land on the untraced digest.
        for seed in sorted({r["seed"] for r in results}):
            same_seed = [r for r in results if r["seed"] == seed]
            digests = {r["digest"] for r in same_seed}
            if len(digests) != 1:
                problems.append(f"{workload} seed {seed}: digests differ "
                                f"{sorted(digests)}")
            for r in same_seed:
                if r["exit_code"] != 0 or not all(r["checks"].values()):
                    problems.append(f"{workload} seed {seed}: failed checks "
                                    f"{r['checks']}")
            for mode in (plain, traced):
                counts = {}
                for r in mode:
                    if r["seed"] != seed:
                        continue
                    for name, value in r["metrics"].items():
                        if r["units"][name] == "count":
                            counts.setdefault(name, set()).add(value)
                for name, values in counts.items():
                    if len(values) != 1:
                        problems.append(f"{workload} seed {seed}: count "
                                        f"{name} differs {sorted(values)}")
            print(f"  seed {seed}: digest {' '.join(sorted(digests))}")
    return problems, medians


def run_repeat(args):
    build()
    seeds = [int(s) for s in args.seeds.split(",")]
    problems = []
    set_medians = []
    for k in range(args.sets):
        print(f"\n=== set {k + 1} of {args.sets}: {args.repeat} repeats x "
              f"seeds {seeds} ===")
        runs = measure_set(args, WORKLOADS, seeds)
        set_problems, medians = report_set(runs)
        problems += set_problems
        set_medians.append(medians)
    if args.sets > 1:
        print("\nmedian drift between sets (e2e metrics):")
        for workload in WORKLOADS:
            for spec in e2e_specs(workload):
                key = (workload, spec["name"])
                if key not in set_medians[0]:
                    continue
                a = set_medians[0][key][0]
                for later in set_medians[1:]:
                    b = later[key][0]
                    drift = worse_by(a, b, spec["better"])
                    flag = ""
                    if abs(drift) > spec["bound"]:
                        flag = "  DRIFT > BOUND"
                        problems.append(f"{workload} {spec['name']}: sets "
                                        f"differ by {drift:+.1%}")
                    print(f"  {workload:<12} {spec['name']:<16} {g3(a):>9} "
                          f"-> {g3(b):>9} {drift:+7.1%} "
                          f"(bound {spec['bound']:.0%}){flag}")
    print("\n" + ("\n".join(f"PROBLEM {p}" for p in problems)
                  if problems else "all digests, counts and checks agree; "
                  "every spread within its bound"))
    return 1 if problems else 0


# --- --compare: parent A vs change B ----------------------------------

def verdict(a_vals, b_vals, better, bound):
    """choosing-metrics section 8: a gain needs >= 9/10 pair wins and a
    median difference beyond A's quartile spread; a regression is a
    median worse than A's by more than the bound, unresolved when A's own
    spread exceeds the bound unless every B run beats every A run."""
    wins = sum(1 for a, b in zip(a_vals, b_vals)
               if (b < a if better == "lower" else b > a))
    pairs = len(a_vals)
    med_a = statistics.median(a_vals)
    med_b = statistics.median(b_vals)
    q1, _, q3 = quartiles(a_vals)
    if wins >= 0.9 * pairs and abs(med_b - med_a) > q3 - q1:
        return "gain", wins
    b_all_better = (max(b_vals) < min(a_vals) if better == "lower"
                    else min(b_vals) > max(a_vals))
    if spread(a_vals) > bound and not b_all_better:
        return "unresolved", wins
    if worse_by(med_a, med_b, better) > bound:
        return "REGRESSION", wins
    return "no regression", wins


def run_compare(args):
    binaries = [Path(p).resolve() for p in args.compare]
    for b in binaries:
        if not b.is_file():
            fail(f"no binary {b}")
    seeds = [int(s) for s in args.seeds.split(",")]
    status = 0
    for workload in WORKLOADS:
        results = ([], [])
        for i in range(COMPARE_PAIRS):
            seed = seeds[i % len(seeds)]
            order = (0, 1) if i % 2 == 0 else (1, 0)
            for side in order:
                results[side].append(run_binary(binaries[side], workload, seed,
                                                False))
            print(f"  {workload} pair {i + 1}/{COMPARE_PAIRS} seed {seed}",
                  file=sys.stderr)
        print(f"\n{workload}: {COMPARE_PAIRS} pairs, A = {binaries[0]}, "
              f"B = {binaries[1]}")
        print(f"  {'metric':<16} {'unit':>5} {'A median':>9} {'A q1-q3':>19} "
              f"{'B median':>9} {'B q1-q3':>19} {'wins':>5}  verdict")
        for spec in e2e_specs(workload):
            a_vals = [r["metrics"][spec["name"]] for r in results[0]]
            b_vals = [r["metrics"][spec["name"]] for r in results[1]]
            v, wins = verdict(a_vals, b_vals, spec["better"], spec["bound"])
            if v == "REGRESSION":
                status = 1
            qa = quartiles(a_vals)
            qb = quartiles(b_vals)
            print(f"  {spec['name']:<16} {spec['unit']:>5} {g3(qa[1]):>9} "
                  f"{g3(qa[0]) + '-' + g3(qa[2]):>19} {g3(qb[1]):>9} "
                  f"{g3(qb[0]) + '-' + g3(qb[2]):>19} "
                  f"{wins:>2}/{COMPARE_PAIRS}  {v}")
        for side, name in ((0, "A"), (1, "B")):
            for r in results[side]:
                if r["exit_code"] != 0 or not all(r["checks"].values()):
                    print(f"  {name} seed {r['seed']}: FAILED checks "
                          f"{r['checks']}")
                    status = 1
        same = all(a["digest"] == b["digest"]
                   for a, b in zip(results[0], results[1]))
        print(f"  digests {'identical' if same else 'DIFFER'} between A and B")
    return status


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"],
                        help="accepted and ignored: the work is fixed")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--repeat", type=int, help="repeats per workload")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--seeds", default="7,8")
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    if args.compare:
        return run_compare(args)
    if args.repeat:
        return run_repeat(args)
    if args.workload:
        return run_contract(args)
    parser.error("give --workload, --repeat or --compare")
    return 2


if __name__ == "__main__":
    sys.exit(main())
