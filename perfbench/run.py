"""Benchmark of the hankelpert CLI: end-to-end costs, per-layer costs, and correctness.

    python3 perfbench/run.py --workload bare-exact --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --pool [DIR]
    python3 perfbench/run.py --compare DIR_A DIR_B

A run builds the seeded invocation list of one workload (workloads.py) and
runs it as a closed loop with one client: each invocation is a fresh Python
process started after the previous one exits, as users run the CLI. Every
reported ln D_n is checked against a reference (oracle.py, refs.json) and
every route difference against n * 10^(16 - digits). Failed checks are
counted and listed; the run continues.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the list
with every public layer function wrapped (layers.py), plus an untraced copy
of every second invocation for the tracing overhead, plus the stage scaling
probe, and prints the per-layer metrics. The last line of stdout is the
JSON result; the lines before it are the same numbers for people, with the
failing inputs. Each run also writes results/<workload>-seed<n>-trace<t>.json
(and, traced, the spans), which --pool and --compare read.
"""
from __future__ import annotations

import argparse
import glob
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction

import mpmath
from mpmath import mpf

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
sys.path.insert(0, HERE)

import layers  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402

# (name, unit, better, bound): the metrics of BENCHMARK.json's end_to_end
END_TO_END = (
    ("wall_s", "s", "lower", 0.25),
    ("op_p50_s", "s", "lower", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("ref_digits_min", "digits", "higher", 0.1),
    ("route_digits_min", "digits", "higher", 0.1),
)
# A run stops starting invocations after this many seconds, so it ends
# within three minutes even on a much slower program.
RUN_BUDGET_S = 165.0
GUARD_DIGITS = 8   # the 8-guard-digit contract of the package's precision.py
# Speed calibration. Where other tenants share the cores, a core's speed
# drifts; on a 2-vCPU Xeon virtual machine a fixed loop ran up to 1.7x slower
# for seconds to minutes at a time, which moved whole-run medians by 20-30%.
# A fixed mpmath loop that does not touch the program runs before every
# invocation, and the end-to-end times are multiplied by REFERENCE_CAL_S /
# (the run's mean loop time): seconds at a fixed reference speed. On a fixed
# invocation there this cut the spread of 45-second means from about 22% to
# about 3%. Raw times stay in the results.
CAL_STEPS = 50000
REFERENCE_CAL_S = 0.25
TAIL_BEYOND = 10   # op_tail_s: highest percentile with this many samples above it


def spawn(mode: str, payload, timeout: float) -> dict:
    """Run child.py once; add its wall time, CPU time and peak RSS to its result."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"), SRC, mode, json.dumps(payload)]
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, cwd=ROOT)
    timer = threading.Timer(max(timeout, 1.0), proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
    finally:
        timer.cancel()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    wall = time.perf_counter() - started
    text = out.decode(errors="replace").strip()
    try:
        result = json.loads(text.splitlines()[-1])
    except (IndexError, ValueError):
        result = {"crash": f"child exited {proc.returncode}: {text[-1500:]}"}
    if isinstance(result, dict):
        result.update(wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime,
                      rss_mb=usage.ru_maxrss / 1024.0)
    return result


def calibrate() -> float:
    """Seconds for CAL_STEPS multiply-adds at 100 digits, in this process."""
    with mpmath.workdps(100):
        x, y, total = mpf(1) / 3, mpf(2) / 7, mpf(0)
        started = time.perf_counter()
        for _ in range(CAL_STEPS):
            total += x * y
            x += y
        return time.perf_counter() - started


def _digits(diff, ref) -> float:
    """Decimal digits to which a value ``diff`` away from ``ref`` matches it."""
    if diff == 0:
        return math.inf
    return float(-mpmath.log10(abs(diff) / abs(ref)))


class Checker:
    """Checks one report against the references and the route bound."""

    def __init__(self):
        with open(os.path.join(HERE, "refs.json")) as fh:
            self.refs = json.load(fh)["values"]

    def reference(self, case, n: int, digits: int):
        if case.h is None:
            return oracle.bare_logdet(n, Fraction(case.alpha), Fraction(case.beta),
                                      2 * digits + 20)
        return mpf(self.refs[workloads.ref_key(*case.h, case.alpha, case.beta)][str(n)])

    def check(self, case, result: dict) -> dict:
        """{"ok", "reasons", "rows", "ref_digits", "route_digits"} for one invocation."""
        reasons = []
        out = {"rows": 0, "ref_digits": None, "route_digits": None}
        if "crash" in result or "exception" in result:
            reasons.append(result.get("crash") or result["exception"].strip().splitlines()[-1])
        elif result["rc"] != 0:
            last = (result["stderr"].strip().splitlines() or ["no message"])[-1]
            reasons.append(f"exit {result['rc']}: {last}")
        else:
            try:
                rows = json.loads(result["stdout"])["rows"]
                if [row["n"] for row in rows] != list(case.sizes):
                    raise ValueError(f"sizes {[row['n'] for row in rows]}, expected {list(case.sizes)}")
                out["rows"] = len(rows)
                for row in rows:
                    self._check_row(case, row, out, reasons)
            except (KeyError, TypeError, ValueError) as exc:
                reasons.append(f"malformed report: {exc!r}")
        out["ok"] = not reasons
        out["reasons"] = reasons
        return out

    def _check_row(self, case, row, out, reasons):
        n = row["n"]
        if "error" in row:
            reasons.append(f"n={n}: {row['error_type']}: {row['error']}")
            return
        digits = int(row["digits"])
        with mpmath.workdps(2 * digits + 20):
            if case.h is None:
                values = [row["log_det_closed"], row["log_det_norm_product"], row["log_det_ldl"]]
                diffs = [row["diff_closed_norm"], row["diff_closed_ldl"], row["diff_norm_ldl"]]
            else:
                values = [row["log_det_ldl"], row["log_det_recurrence"]]
                diffs = [row["method_diff"]]
            values = [mpf(v) for v in values]
            spread = max([mpf(d) for d in diffs] + [abs(x - y) for x in values for y in values])
            ref = self.reference(case, n, digits)
            ref_digits = min(digits, min(_digits(v - ref, ref) for v in values))
            route_digits = min(digits, _digits(spread, ref))
            bound = n * mpf(10) ** (2 * GUARD_DIGITS - digits)
            if ref_digits < digits - GUARD_DIGITS:
                reasons.append(f"n={n}: matches the reference to {ref_digits:.1f} of "
                               f"{digits} digits (needs {digits - GUARD_DIGITS})")
            if spread > bound:
                reasons.append(f"n={n}: routes differ by {mpmath.nstr(spread, 3)} "
                               f"> n*10^(16-digits) = {mpmath.nstr(bound, 3)}")
        for key, value in (("ref_digits", ref_digits), ("route_digits", route_digits)):
            out[key] = value if out[key] is None else min(out[key], value)


def _parse_check(argvs: list) -> dict:
    """Every argv must parse; returns the environment stamp of the program's interpreter."""
    result = spawn("parse", argvs, RUN_BUDGET_S)
    if "crash" in result:
        raise SystemExit(f"benchmark: cannot import the program from {SRC}: {result['crash']}")
    if result["bad"]:
        raise SystemExit(f"benchmark: generated argv does not parse: {result['bad']}")
    return result["env"]


def run(workload: str, seed: int, seconds: float, traced: bool) -> int:
    if not os.path.isfile(os.path.join(SRC, "hankelpert", "cli.py")):
        print(f"benchmark: no program at {SRC}/hankelpert", file=sys.stderr)
        return 2
    started = time.perf_counter()
    cases = workloads.make_cases(workload, seed, seconds)
    env = _parse_check([list(c.argv) for c in cases])
    checker = Checker()
    records, traced_invs, pairs, cal = [], [], ([], []), []
    for i, case in enumerate(cases):
        modes = ["run"]
        if traced:
            # every second case also runs untraced, in alternating order
            modes = ["trace"] if i % 2 else (["run", "trace"] if i % 4 == 0 else ["trace", "run"])
        for mode in modes:
            left = RUN_BUDGET_S - (time.perf_counter() - started)
            if left <= 0:
                records.append({"label": case.label, "mode": mode, "ok": False,
                                "reasons": ["not run: the run's time budget is spent"]})
                continue
            cal.append(calibrate())
            result = spawn(mode, list(case.argv), left)
            check = checker.check(case, result)
            rec = {"label": case.label, "mode": mode, "cal_s": cal[-1], **check}
            for key in ("setup_s", "op_s", "wall_s", "cpu_s", "rss_mb"):
                if key in result:
                    rec[key] = result[key]
            records.append(rec)
            if mode == "trace" and "spans" in result:
                traced_invs.append({"id": i, "label": case.label, "rows": check["rows"],
                                    "spans": result["spans"], "h_calls": result["h_calls"]})
            if traced and i % 2 == 0 and "op_s" in result:
                pairs[mode == "run"].append(result["op_s"])
    cal.append(calibrate())
    failed = sum(not r["ok"] for r in records)
    slowdown = statistics.fmean(cal) / REFERENCE_CAL_S
    timed = [r for r in records if "op_s" in r]
    if not timed:
        print("benchmark: no invocation completed; first failure: "
              f"{records[0]['reasons'] if records else 'no cases'}", file=sys.stderr)
        return 1
    summary = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(traced),
               "env": env, "slowdown": slowdown, "calibration_s": cal,
               "attempted": len(records), "failed": failed,
               "invocations": records}
    lines = [f"{workload} seed={seed} seconds={seconds:g} trace={int(traced)}: "
             f"{len(records)} invocations, {failed} failed",
             "env: " + ", ".join(f"{k} {v}" for k, v in env.items()),
             f"speed: calibration loop {statistics.fmean(cal):.4f} s mean over {len(cal)}, "
             f"slowdown {slowdown:.3f} against {REFERENCE_CAL_S} s"]
    if traced:
        per_layer = layers.aggregate(traced_invs)
        missing = [name for name in layers.EXPECTED[workload] if per_layer[f"{name}.calls"] == 0]
        if workload != "bare-exact" and per_layer[layers.H_CALLS] == 0:
            missing.append(layers.H_CALLS)
        if missing:
            print(f"benchmark: traced {workload} recorded no span for {missing}; "
                  f"a layer was renamed or bypassed", file=sys.stderr)
            return 1
        probe = spawn("probe", {}, RUN_BUDGET_S)
        if "crash" in probe:
            print(f"benchmark: scaling probe failed: {probe['crash']}", file=sys.stderr)
            return 1
        for name in layers.PROBED:
            per_layer[f"{name}.exponent"] = probe[name]["exponent"]
        per_layer["trace.overhead_ratio"] = statistics.median(pairs[0]) / statistics.median(pairs[1])
        metrics = {name: {"value": per_layer[name], "unit": unit}
                   for name, unit, _ in layers.per_layer_metrics()}
        summary["probe"] = probe
        lines += _layer_lines(per_layer, probe, len(pairs[0]))
        os.makedirs(RESULTS, exist_ok=True)
        with open(os.path.join(RESULTS, f"{workload}-seed{seed}.spans.json"), "w") as fh:
            json.dump({"names": layers.NAMES, "invocations": traced_invs}, fh)
    else:
        raw = {
            "wall_s": sum(r["wall_s"] for r in timed),
            "op_p50_s": statistics.median(r["op_s"] for r in timed),
            "cpu_s": sum(r["cpu_s"] for r in timed),
            "setup_s": statistics.median(r["setup_s"] for r in timed),
        }
        summary["raw_seconds"] = raw
        values = {
            **{name: value / slowdown for name, value in raw.items()},
            "peak_rss_mb": max(r["rss_mb"] for r in timed),
            "ref_digits_min": min((r["ref_digits"] for r in timed
                                   if r["ref_digits"] is not None), default=0.0),
            "route_digits_min": min((r["route_digits"] for r in timed
                                     if r["route_digits"] is not None), default=0.0),
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _, _ in END_TO_END}
        lines.append(f"times below are raw seconds divided by the slowdown; raw: "
                     + ", ".join(f"{k} {v:.4f}" for k, v in raw.items()))
        lines += [f"{name:<18} {values[name]:>12.4f} {unit}" for name, unit, _, _ in END_TO_END]
        lines.append(f"{'fail_ratio':<18} {failed / len(records):>12.4f} ratio "
                     f"({failed}/{len(records)})")
        lines.append(f"{'op_tail_s':<18} {'pooled':>12} s (needs {TAIL_BEYOND + 1}+ "
                     f"samples; run.py --pool over a set of runs)")
    summary["metrics"] = metrics
    for rec in records:
        if not rec["ok"]:
            lines.append(f"FAIL {rec['label']}: " + "; ".join(rec["reasons"]))
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, f"{workload}-seed{seed}-trace{int(traced)}.json"), "w") as fh:
        json.dump(summary, fh, indent=1)
    for line in lines:
        print("# " + line)
    print(json.dumps({"correct": failed == 0, "attempted": len(records), "failed": failed,
                      "metrics": metrics}))
    return 0


def _layer_lines(per_layer: dict, probe: dict, paired: int) -> list:
    root = per_layer["_root_s"]
    lines = [f"self time by layer (share of cli.main time, {root:.3f} s):"]
    ranked = sorted(layers.NAMES, key=lambda n: -per_layer[f"{n}.self_s"])
    for name in ranked:
        lines.append(f"  {name:<36} calls {per_layer[f'{name}.calls']:>7}  "
                     f"self {per_layer[f'{name}.self_s']:>8.3f} s  "
                     f"share {per_layer[f'{name}.share']:>6.3f}  "
                     f"digits_max {per_layer.get(f'{name}.digits_max', '-')}")
    for key in (layers.H_CALLS, "hankel.hankel_logdet_ldl.n_max",
                "quadrature.gauss_jacobi_rule.nodes", "quadrature.cheb_expand.degree_max",
                "quadrature.cheb_expand.useful_ratio"):
        lines.append(f"  {key} = {per_layer[key]:g}")
    for name in layers.PROBED:
        p = probe[name]
        lines.append(f"  scaling {name}: exponent {p['exponent']:.2f} "
                     f"(sizes {p['sizes']}, {p['digits']} digits, "
                     f"{p['seconds'][0]:.3f} s -> {p['seconds'][1]:.3f} s)")
    lines.append(f"  trace.overhead_ratio = {per_layer['trace.overhead_ratio']:.3f} "
                 f"(median op time traced / untraced over {paired} paired invocations)")
    return lines


def _load_sets(directory: str) -> dict:
    """Untraced results in ``directory`` by workload; refuses mixed mpmath backends."""
    sets = {}
    for path in sorted(glob.glob(os.path.join(directory, "*-trace0.json"))):
        with open(path) as fh:
            res = json.load(fh)
        sets.setdefault(res["workload"], []).append(res)
    backends = {res["env"]["backend"] for group in sets.values() for res in group}
    if len(backends) > 1:
        raise SystemExit(f"benchmark: {directory} mixes mpmath backends {sorted(backends)}; "
                         f"their timings are not comparable")
    return sets


def _quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pool(directory: str) -> int:
    """All nine end-to-end metrics per workload over a set of untraced runs."""
    for workload, group in sorted(_load_sets(directory).items()):
        print(f"{workload}: {len(group)} runs, seeds {sorted(r['seed'] for r in group)}, "
              f"env {group[0]['env']}")
        for name, unit, _, bound in END_TO_END:
            values = [r["metrics"][name]["value"] for r in group]
            q1, med, q3 = _quartiles(values)
            print(f"  {name:<18} median {med:>11.4f} {unit:<6} quartiles {q1:.4f} .. {q3:.4f}"
                  f"  spread {(q3 - q1) / med:.4f} (bound {bound})")
        ops = sorted(inv["op_s"] for r in group for inv in r["invocations"] if "op_s" in inv)
        if len(ops) > TAIL_BEYOND:
            k = len(ops) - TAIL_BEYOND - 1
            print(f"  {'op_tail_s':<18} {ops[k]:>18.4f} s      p{100 * (k + 1) / len(ops):.1f}"
                  f" of {len(ops)} pooled invocations, {TAIL_BEYOND} beyond it")
        else:
            print(f"  {'op_tail_s':<18} needs more than {TAIL_BEYOND} pooled invocations, "
                  f"has {len(ops)}")
        attempted = sum(r["attempted"] for r in group)
        failed = sum(r["failed"] for r in group)
        print(f"  {'fail_ratio':<18} {failed / attempted:>18.4f} ratio  ({failed}/{attempted})")
    return 0


def compare(dir_a: str, dir_b: str) -> int:
    """Medians of set B against set A per workload and metric, with each metric's bound."""
    sets_a, sets_b = _load_sets(dir_a), _load_sets(dir_b)
    backends = {r["env"]["backend"] for s in (sets_a, sets_b) for g in s.values() for r in g}
    if len(backends) > 1:
        print(f"benchmark: refusing to compare backends {sorted(backends)}", file=sys.stderr)
        return 2
    worse = 0
    for workload in sorted(set(sets_a) & set(sets_b)):
        print(workload)
        for name, unit, better, bound in END_TO_END:
            a = statistics.median(r["metrics"][name]["value"] for r in sets_a[workload])
            b = statistics.median(r["metrics"][name]["value"] for r in sets_b[workload])
            change = (b - a) / a if better == "lower" else (a - b) / a
            flag = "WORSE" if change > bound else ""
            worse += bool(flag)
            print(f"  {name:<18} {a:>12.4f} -> {b:>12.4f} {unit:<6} ratio {b / a:.4f} {flag}")
    return 1 if worse else 0


def self_test() -> int:
    """Argv hygiene, reference coverage, oracle sanity and BENCHMARK.json consistency."""
    problems = []
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] \
            != [tuple(m) for m in END_TO_END]:
        problems.append("BENCHMARK.json end_to_end differs from run.py END_TO_END")
    if [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
            != list(layers.per_layer_metrics()):
        problems.append("BENCHMARK.json per_layer differs from layers.per_layer_metrics()")
    refs = Checker().refs
    argvs = []
    for workload in workloads.GENERATORS:
        for seed in range(30):
            for case in workloads.make_cases(workload, seed, 45):
                argvs.append(list(case.argv))
                if case.h is not None:
                    key = workloads.ref_key(*case.h, case.alpha, case.beta)
                    if any(str(n) not in refs.get(key, {}) for n in case.sizes):
                        problems.append(f"no reference for {case.label}")
    with mpmath.workdps(60):
        # README's quick-start value for exact --n 4 --alpha 1/2 --beta 0
        value = oracle.bare_logdet(4, Fraction(1, 2), Fraction(0), 60)
        if abs(value - mpf("-5.438934165853381916718283127003623")) > mpf(10) ** -33:
            problems.append(f"oracle gives {value} for the README example")
    unique = sorted(set(map(tuple, argvs)))
    result = spawn("parse", [list(a) for a in unique], RUN_BUDGET_S)
    if "crash" in result:
        problems.append(f"parse check crashed: {result['crash']}")
    else:
        problems += [f"argv does not parse: {bad}" for bad in result["bad"]]
    for line in problems:
        print(f"self-test: {line}")
    print(f"self-test: {len(unique)} distinct argv, {len(problems)} problems")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--pool", nargs="?", const=RESULTS)
    parser.add_argument("--compare", nargs=2, metavar=("DIR_A", "DIR_B"))
    args = parser.parse_args(argv)
    if args.self_test:
        return self_test()
    if args.pool:
        return pool(args.pool)
    if args.compare:
        return compare(*args.compare)
    if not args.workload:
        parser.error("--workload is required")
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
