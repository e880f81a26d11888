"""Seeded input lists for the benchmark workloads.

Every list is a balanced design: the cells that set an invocation's cost
(size stratum, exponent class, perturbation family) are the same in every
run, and the seed draws the free choices inside each cell (the size within
its stratum, the exponent pair within its class, the perturbation
parameter) and the order. Runs with different seeds therefore exercise
different inputs at comparable total cost, which keeps the run-to-run
spread of the timings small.

Exponents are always emitted as ``--alpha=<v>``: argparse reads a bare
``-9/10`` that follows ``--alpha`` as an option and exits 2.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

import mpmath

# Exponent classes. The cost of log_gamma depends on the argument type:
# half-integer and integer arguments are several times cheaper than thirds,
# so each class is balanced across size strata.
HALF = (("1/2", "0"), ("-1/2", "3/2"), ("-1/2", "-1/2"))
THIRDS = (("1/3", "2"), ("2/3", "1/3"))
# alpha < -1/2: the asymptotic is invalid, so `exact` takes its null-asymptotic
# path and `compare` refuses the input; used by bare-exact only.
BELOW_HALF = ("-2/3", "1/2")

ENTIRE = (("exp", ("0.5", "1", "1.5")),
          ("cosh", ("0.5", "1", "1.5")),
          ("poly", ("0.5", "1", "2")))
POLE_FAMILIES = ("pole-", "pole+")
POLE_C = ("1.02", "1.03", "1.04", "1.05")

# Sizes per exponent class for bare-exact. Thirds cost about 2.2x more than
# half-integers at the same n, so they run at smaller n: the two classes then
# cost about the same, and the median op time falls inside one dense band
# instead of in the gap between two clusters, where it jumped by 10-15%.
EXACT_SIZES = {"half": (50, 62), "thirds": (40, 50)}
SWEEP_TOPS = (30,)
POLE_SIZES = (16, 32)

# sizes whose reference is pinned (every row a generated argv can ask for)
REF_SIZES = {"compare-sweep": range(10, max(SWEEP_TOPS) + 1, 10),
             "pole-compare": range(POLE_SIZES[0], POLE_SIZES[1] + 1)}

# Seconds one cell block takes at the commit the benchmark was written
# against (one pass per block); `--seconds` sets the number of blocks.
BLOCK_SECONDS = {"bare-exact": 5.0, "compare-sweep": 7.5, "pole-compare": 25.0}


@dataclass(frozen=True)
class Case:
    """One CLI invocation and what its report must contain."""

    argv: tuple
    sizes: tuple
    alpha: str
    beta: str
    h: tuple = None   # (family, parameter) for compare cases

    @property
    def label(self) -> str:
        return "hankelpert " + " ".join(self.argv)


def h_source(family: str, param: str) -> str:
    """The --h expression of a perturbation from the grid."""
    return {"exp": f"exp({param}*x)", "cosh": f"cosh({param}*x)",
            "poly": f"1+{param}*x^2", "pole-": f"1/({param}-x)",
            "pole+": f"1/({param}+x)"}[family]


def h_function(family: str, param: str):
    """The same perturbation as a plain mpmath callable, for the reference oracle."""
    q = Fraction(param)

    def c():
        return mpmath.mpf(q.numerator) / q.denominator

    return {"exp": lambda x: mpmath.exp(c() * x),
            "cosh": lambda x: mpmath.cosh(c() * x),
            "poly": lambda x: 1 + c() * x * x,
            "pole-": lambda x: 1 / (c() - x),
            "pole+": lambda x: 1 / (c() + x)}[family]


def ref_key(family: str, param: str, alpha: str, beta: str) -> str:
    return f"{h_source(family, param)}|{alpha}|{beta}"


def _balanced(rng: random.Random, items, k: int) -> list:
    """k picks that use every item equally often (up to one), in seeded order."""
    out = []
    while len(out) < k:
        block = list(items)
        rng.shuffle(block)
        out.extend(block)
    out = out[:k]
    rng.shuffle(out)
    return out


def _strata(rng: random.Random, lo: int, hi: int, count: int) -> list:
    """One integer drawn from each of ``count`` equal strata of [lo, hi]."""
    width = hi - lo + 1
    return [rng.randint(lo + width * i // count, lo + width * (i + 1) // count - 1)
            for i in range(count)]


def _exact_cases(rng, blocks):
    cases = []
    for pairs, sizes in ((HALF, EXACT_SIZES["half"]),
                         (THIRDS + (BELOW_HALF,), EXACT_SIZES["thirds"])):
        # pairs cycle over the size strata from a seeded phase, so every pair
        # meets small and large sizes in every run
        shift = rng.randrange(len(pairs))
        for i, n in enumerate(_strata(rng, *sizes, blocks)):
            a, b = pairs[(i + shift) % len(pairs)]
            cases.append(Case(("exact", "--n", str(n), f"--alpha={a}", f"--beta={b}"),
                              (n,), a, b))
    return cases


def _compare_case(size_arg, sizes, family, param, a, b):
    return Case(("compare", "--n", size_arg, f"--alpha={a}", f"--beta={b}",
                 "--h", h_source(family, param)), tuple(sizes), a, b, (family, param))


def _sweep_cases(rng, blocks):
    classes = (HALF, THIRDS)
    pair_shift = [rng.randrange(len(c)) for c in classes]
    param_shift = [rng.randrange(len(params)) for _, params in ENTIRE]
    used = [0, 0]
    cases = []
    for b in range(blocks):
        for i, top in enumerate(SWEEP_TOPS):
            for j, (family, params) in enumerate(ENTIRE):
                # the class alternates over the (size, family) grid and flips
                # each block; pairs and parameters cycle from seeded phases
                cls = (i + j + b) % 2
                a, beta = classes[cls][(used[cls] + pair_shift[cls]) % len(classes[cls])]
                used[cls] += 1
                param = params[(b + i + param_shift[j]) % len(params)]
                cases.append(_compare_case(f"10:{top}:10", range(10, top + 1, 10),
                                           family, param, a, beta))
    return cases


def _pole_cases(rng, blocks):
    cells = [(fam, c) for _ in range(blocks) for fam in POLE_FAMILIES for c in POLE_C]
    sizes = _strata(rng, *POLE_SIZES, len(cells))
    rng.shuffle(sizes)
    pairs = _balanced(rng, HALF + THIRDS, len(cells))
    return [_compare_case(str(n), (n,), fam, c, a, b)
            for (fam, c), n, (a, b) in zip(cells, sizes, pairs)]


GENERATORS = {"bare-exact": _exact_cases, "compare-sweep": _sweep_cases,
              "pole-compare": _pole_cases}


def make_cases(workload: str, seed: int, seconds: float) -> list:
    """The seeded, shuffled invocation list of one run."""
    rng = random.Random(f"{workload}:{seed}")
    blocks = max(1, round(seconds / BLOCK_SECONDS[workload]))
    cases = GENERATORS[workload](rng, blocks)
    rng.shuffle(cases)
    return cases


def perturbed_grid():
    """Every (workload, family, parameter, alpha, beta, largest n) the generators can draw."""
    pairs = HALF + THIRDS
    for family, params in ENTIRE:
        for param in params:
            for a, b in pairs:
                yield "compare-sweep", family, param, a, b, max(SWEEP_TOPS)
    for family in POLE_FAMILIES:
        for c in POLE_C:
            for a, b in pairs:
                yield "pole-compare", family, c, a, b, POLE_SIZES[1]
