"""Pin the reference ln D_n of every perturbed input the workloads can draw.

    python3 perfbench/make_refs.py

writes perfbench/refs.json. For each exponent pair, two Gauss-Jacobi rules
of different orders are built; every perturbation on the grid is reduced to
ln D_1..ln D_N on both (see oracle.py), and a value is kept only if the two
orders agree to the target digits. Takes about seven minutes on one core.
"""
from __future__ import annotations

import json
import os
import sys
import time
from fractions import Fraction

import mpmath

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import oracle  # noqa: E402
import workloads  # noqa: E402

# Per workload: digits the two rule orders must agree to, working digits,
# and the two orders. Requested digits are at most 74 (compare-sweep,
# n = 30) and 77 (pole-compare, n = 32). Entire h converges like a
# polynomial; for 1/(c -+ x) the Gauss error falls like rho^(-2(M-n)) with
# rho = c + sqrt(c^2 - 1) = 1.221 at c = 1.02, so M - 32 >= 490 for 85 digits.
SETTINGS = {
    "compare-sweep": {"target": 100, "dps": 130, "orders": (90, 120)},
    "pole-compare": {"target": 80, "dps": 100, "orders": (530, 610)},
}


def main() -> int:
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs.json")
    grid = {}
    for workload, family, param, a, b, n_max in workloads.perturbed_grid():
        grid.setdefault((workload, a, b), []).append((family, param, n_max))
    refs = {"settings": SETTINGS, "values": {}, "confirmed_digits_min": {}}
    for (workload, a, b), items in grid.items():
        cfg = SETTINGS[workload]
        started = time.perf_counter()
        rules = [oracle.gauss_jacobi(m, Fraction(a), Fraction(b), cfg["dps"])
                 for m in cfg["orders"]]
        for family, param, n_max in items:
            h = workloads.h_function(family, param)
            low, high = (oracle.perturbed_logdets(r, h, n_max, cfg["dps"]) for r in rules)
            with mpmath.workdps(cfg["dps"]):
                worst = min(-mpmath.log10(abs(x - y) / abs(y)) if x != y else cfg["dps"]
                            for x, y in zip(low, high))
            if worst < cfg["target"]:
                print(f"{workload} {family} {param} ({a}, {b}): orders agree to "
                      f"{float(worst):.1f} digits only", file=sys.stderr)
                return 1
            key = workloads.ref_key(family, param, a, b)
            refs["values"][key] = {str(n): mpmath.nstr(v, cfg["target"])
                                   for n, v in enumerate(high, start=1)
                                   if n in workloads.REF_SIZES[workload]}
            prev = refs["confirmed_digits_min"].get(workload, cfg["dps"])
            refs["confirmed_digits_min"][workload] = round(float(min(prev, worst)), 1)
        print(f"{workload} ({a}, {b}): {len(items)} perturbations, "
              f"{time.perf_counter() - started:.0f} s", flush=True)
    with open(path, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
