"""Command-line interface emitting machine-readable computation reports.

Subcommands:

    exact    ln D_n of the bare weight by three independent routes
    compare  perturbed determinants: two direct routes vs the asymptotic
             prediction, with a running estimate of the oscillation constant
    fluid    continuum band endpoints and recurrence estimates vs exact values
    density  the continuum density on a grid, with its mass check

Importing this module loads only what every subcommand runs (``jacobi``,
``hankel`` and what they import); a subcommand imports the rest of the
package when it runs, so ``exact`` never loads ``dsl``, ``quadrature``,
``linstat`` or ``fluid``.

Reports go to stdout as JSON (default) or CSV; arbitrary-precision values
are emitted as decimal strings, never as binary floats. Identical command
lines produce identical reports except for the timing fields.

Each printed difference is paired with its printed bound in ``BOUNDS``;
the row runner checks every pair and makes a row over its bound an error row.

Exit codes: 0 success; 1 stdout closed before the report was written;
2 usage or parameter error (including expression syntax errors); 3
numeric or precision failure, including a printed difference above its
printed bound; 4 perturbation validation failure (a nonpositive value of
h at any point the run samples, or an evaluation fault).
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import shlex
import sys
import time

import mpmath
from mpmath import mpf

from . import __version__
from .errors import (DomainError, EvalDomainError, ParseError,
                     PositivityError, PrecisionError)
from .precision import GUARD_DIGITS, Precision, to_mpf
from .jacobi import (JacobiParams, jacobi_alpha_n_exact, jacobi_beta_n_exact,
                     jacobi_logdet_asym, jacobi_logdet_exact)
from .hankel import (QUAD_ORDER_MARGIN, auto_digits, cross_validation_tol, hankel_logdet_ldl,
                     hankel_logdet_leading, hankel_logdet_recurrence, heine_average_small_n,
                     perturbed_moment_sequence, pure_moment_sequence)

SCHEMA_VERSION = 2
HEINE_GUARD = 20
#: Every printed (difference, bound, what differs) of a row. ``_run_rows``
#: turns a row whose difference exceeds its bound into an error row (exit 3).
BOUNDS = (
    ("diff_closed_norm", "method_tol", "closed form and norm product"),
    ("diff_closed_ldl", "method_tol", "closed form and ldl routes"),
    ("diff_norm_ldl", "method_tol", "norm product and ldl routes"),
    ("method_diff", "method_tol", "ldl and recurrence routes"),
    ("heine_diff", "heine_tol", "determinant ratio and ensemble average"),
)
#: Differences of two working-precision values carry only a few meaningful
#: digits; these fields print that many significant digits, not ``digits``.
DIFF_FIELDS = frozenset(diff for diff, _, _ in BOUNDS)
DIFF_DIGITS = 3
#: A field computed from a printed value by subtracting others printed no
#: finer, or one of the terms so subtracted (``log_mean`` and ``boundary_part``
#: from ``prediction_total``, ``mean_term_limit`` from ``log_ratio``): it
#: prints no digit finer than that value's last printed digit.
RESOLVED_BY = {"asym_gap": "log_det_closed", "prediction_gap": "log_det_ldl",
               "log_ratio": "log_det_ldl", "pv_estimate": "log_det_ldl",
               "pv_estimate_edge_adjusted": "log_det_ldl", "log_mean": "log_det_ldl",
               "boundary_part": "log_det_ldl", "mean_term_limit": "log_det_ldl"}


def _parse_n_list(text: str) -> list:
    """Sizes from '12', '10,20,40', or 'start:stop[:step]' (stop inclusive)."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) not in (2, 3):
            raise DomainError(f"range must be start:stop[:step], got {text!r}")
        try:
            start, stop = int(parts[0]), int(parts[1])
            step = int(parts[2]) if len(parts) == 3 else 1
        except ValueError:
            raise DomainError(f"range bounds must be integers, got {text!r}") from None
        if step < 1:
            raise DomainError(f"range step must be >= 1, got {step}")
        if stop < start:
            raise DomainError(f"empty range {text!r}")
        ns = list(range(start, stop + 1, step))
    else:
        try:
            ns = [int(tok) for tok in text.split(",") if tok.strip()]
        except ValueError:
            raise DomainError(f"sizes must be integers, got {text!r}") from None
    if not ns:
        raise DomainError("no sizes given")
    for n in ns:
        if n < 1:
            raise DomainError(f"sizes must be >= 1, got {n}")
    return sorted(set(ns))


def _row_digits(args, n: int) -> int:
    if args.digits is not None:
        return args.digits
    return auto_digits(n)


def _fmt(value, digits: int):
    """JSON-safe form: mpf -> decimal string, anything else (a Fraction) -> str; floats pass."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, mpf):
        return mpmath.nstr(value, digits)
    return str(value)


def _last_digit_unit(reference, digits: int):
    """Place value of the last digit that ``reference`` prints at ``digits`` significant digits."""
    order = int(mpmath.floor(mpmath.log10(abs(reference)))) if reference else 0
    return mpf(10) ** (order - digits + 1)


def _fmt_resolved(value, unit) -> str:
    """``value`` rounded to a multiple of ``unit``."""
    q = int(mpmath.nint(value / unit))
    return mpmath.nstr(q * unit, len(str(abs(q)))) if q else "0.0"


def _fmt_row(row: dict, digits: int) -> dict:
    """Each field formatted once: a ``RESOLVED_BY`` field to its reference's
    last printed digit, a difference to DIFF_DIGITS digits, the rest to ``digits``."""
    unit = functools.cache(lambda reference: _last_digit_unit(row[reference], digits))
    with mpmath.workdps(digits + GUARD_DIGITS):
        return {k: _fmt_resolved(v, unit(RESOLVED_BY[k])) if k in RESOLVED_BY
                else _fmt(v, DIFF_DIGITS if k in DIFF_FIELDS else digits)
                for k, v in row.items()}


def _parameters(jp: JacobiParams, n, **extra) -> dict:
    """The report's ``parameters``: sizes and exponents first, then ``extra`` in order."""
    return {"n": n, "alpha": _fmt(jp.alpha, 24), "beta": _fmt(jp.beta, 24), **extra}


def _digits_param(args):
    return args.digits if args.digits is not None else "auto"


def _once(build):
    """Run ``build()`` now; return a call that gives its result, or raises
    the PrecisionError it raised again."""
    try:
        result, failure = build(), None
    except PrecisionError as exc:
        result, failure = None, exc  # ``exc`` is unbound when the block ends

    def read():
        if failure is not None:
            raise failure
        return result
    return read


def _leading(top, n: int, p: Precision):
    """Row n of a route factorized once at the largest size, read by the call
    ``top`` of :func:`_once`: that result itself for the largest row, else
    ln D_n from the first n of its coefficients.

    A breakdown at index k fails the rows n > k only.
    """
    try:
        result = top()
    except PrecisionError as exc:
        if len(exc.leading) < n:
            raise
        return hankel_logdet_leading(exc.leading, n, p)
    return result if len(result.betas) == n else hankel_logdet_leading(result.betas, n, p)


def _run_rows(args, ns, compute) -> tuple:
    """One report row per size, and the exit code: 2 if a size is outside
    the domain, else 3 if any row failed, else 0.

    ``compute(n, p)`` returns the row's values after ``n`` and ``digits``,
    with ``p`` the row's precision from :func:`_row_digits`, timed into
    ``elapsed_s``. A PrecisionError, a DomainError other than h's
    EvalDomainError, or a difference of ``BOUNDS`` above its bound becomes
    the row {n, digits, error, error_type} and the next size runs; if no
    size is in the domain, the first DomainError is raised.
    """
    rows, failed = [], []
    for n in ns:
        digits = _row_digits(args, n)
        p = Precision(digits)
        t0 = time.perf_counter()
        try:
            row = {"n": n, "digits": digits, **compute(n, p)}
            for diff, bound, what in BOUNDS:
                if row.get(diff) is not None and row[diff] > row[bound]:
                    raise PrecisionError(
                        f"{what} differ by {mpmath.nstr(row[diff], DIFF_DIGITS)}, "
                        f"above {bound} {mpmath.nstr(row[bound], DIFF_DIGITS)}")
        except EvalDomainError:
            raise
        except (PrecisionError, DomainError) as exc:
            failed.append(exc)
            rows.append({"n": n, "digits": digits, "error": str(exc),
                         "error_type": type(exc).__name__})
            continue
        row["elapsed_s"] = round(time.perf_counter() - t0, 3)
        rows.append(_fmt_row(row, digits))
    refused = [exc for exc in failed if isinstance(exc, DomainError)]
    if len(refused) == len(ns):
        raise refused[0]
    return rows, (2 if refused else 3 if failed else 0)


# --- subcommands ---

def cmd_exact(args, jp: JacobiParams, ns: list) -> tuple:
    """Bare-weight ln D_n by closed form, norm product, and direct factorization."""
    def row(n, p):
        closed = jacobi_logdet_exact(n, jp, p)
        moments = pure_moment_sequence(jp, n, p)
        ldl = hankel_logdet_ldl(moments, n, p)
        asym = jacobi_logdet_asym(n, jp, p)
        with p.workdps():
            # ln D_n = n ln h_0 + sum_{0<j<n} (n-j) ln beta_j, h_0 = mu_0 of the
            # moments, the beta_j exact rationals; the closed form reads neither
            betas = [moments.mu[0], *(to_mpf(jacobi_beta_n_exact(j, jp)) for j in range(1, n))]
            norm_product = hankel_logdet_leading(betas, n, p).log_det
            return {
                "log_det_closed": closed,
                "log_det_norm_product": norm_product,
                "log_det_ldl": ldl.log_det,
                "diff_closed_norm": abs(closed - norm_product),
                "diff_closed_ldl": abs(closed - ldl.log_det),
                "diff_norm_ldl": abs(norm_product - ldl.log_det),
                "method_tol": cross_validation_tol(n, p),
                "log_det_asym": asym,
                "asym_gap": abs(closed - asym),
            }

    rows, code = _run_rows(args, ns, row)
    return _parameters(jp, ns, digits=_digits_param(args)), rows, code


def cmd_compare(args, jp: JacobiParams, ns: list) -> tuple:
    """Perturbed determinants, two direct routes vs the asymptotic prediction."""
    from .dsl import parse_h, validate_positive
    from .linstat import assemble_prediction, cheb_log_expand

    # built once, before the first row, at the largest size and its precision;
    # every row reads them, and a build's PrecisionError fails each row that does.
    # A refused --digits is reported before a refused h.
    top, top_p = max(ns), Precision(_row_digits(args, max(ns)))
    h = parse_h(args.h)
    # the screen and the ln h expansion sample h on one table at one precision;
    # the moment pass, h(+-1) and --heine sample at others and call h itself
    sampled = functools.cache(h)
    h_min = validate_positive(sampled, top_p)
    moments = _once(lambda: perturbed_moment_sequence(jp, h, top, top_p, m=args.quad_order))
    ldl = _once(lambda: hankel_logdet_ldl(moments(), top, top_p))
    recurrence = _once(lambda: hankel_logdet_recurrence(moments(), top, jp, top_p))
    expansion = _once(lambda: cheb_log_expand(sampled, top_p))

    def row(n, p):
        direct = _leading(ldl, n, p)
        second = _leading(recurrence, n, p)
        pred = assemble_prediction(n, jp, h, p, expansion())
        pure = jacobi_logdet_exact(n, jp, p)
        with p.workdps():
            log_ratio = direct.log_det - pure
            pv_estimate = log_ratio - pred.mean
            out = {
                "log_det_ldl": direct.log_det,
                "log_det_recurrence": second.log_det,
                "method_diff": abs(direct.log_det - second.log_det),
                "method_tol": cross_validation_tol(n, p),
                "prediction_total": pred.total,
                "prediction_gap": direct.log_det - pred.total,
                **pred._asdict(),
                "log_det_pure": pure,
                "log_ratio": log_ratio,
                "mean_term_limit": pred.mean,
                "pv_estimate": pv_estimate,
                "pv_estimate_edge_adjusted": pv_estimate - pred.edge_part,
            }
            if args.heine:
                # Heine's n-fold average of h equals D_n[w h]/D_n[w]
                avg = diff = tol = None
                if n <= 3:
                    avg = heine_average_small_n(n, jp, h, p)
                    diff = abs(mpmath.exp(log_ratio) - avg)
                    tol = mpf(10) ** (HEINE_GUARD - p.decimal_digits)
                out.update(heine_average=avg, heine_diff=diff, heine_tol=tol)
            return out

    rows, code = _run_rows(args, ns, row)
    return _parameters(
        jp, ns, h=h.source, h_min_sampled=_fmt(h_min, 16), digits=_digits_param(args),
        quad_order=args.quad_order), rows, code


def cmd_fluid(args, jp: JacobiParams, ns: list) -> tuple:
    """Continuum band and recurrence estimates against the exact coefficients."""
    from .fluid import fluid_recurrence, support_endpoints, support_endpoints_shifted

    def row(n, p):
        with p.workdps():
            si = support_endpoints(n, jp)
            shifted = support_endpoints_shifted(n, jp)
            alpha_tilde, beta_tilde = fluid_recurrence(n, jp)
            alpha_true = to_mpf(jacobi_alpha_n_exact(n, jp))
            beta_true = to_mpf(jacobi_beta_n_exact(n, jp))
            return {
                "a_n": si.a_n,
                "b_n": si.b_n,
                "a_n_shifted": shifted.a_n,
                "b_n_shifted": shifted.b_n,
                "alpha_n": alpha_true,
                "beta_n": beta_true,
                "alpha_tilde": alpha_tilde,
                "beta_tilde": beta_tilde,
                "n3_alpha_dev": n ** 3 * (alpha_tilde - alpha_true),
                "n2_beta_dev": n ** 2 * (beta_tilde - beta_true),
                "n2_one_plus_a": n ** 2 * (1 + si.a_n),
                "n2_one_minus_b": n ** 2 * (1 - si.b_n),
            }

    rows, code = _run_rows(args, ns, row)
    return _parameters(jp, ns, digits=args.digits), rows, code


def cmd_density(args, jp: JacobiParams, ns: list) -> tuple:
    """Continuum density sampled on a Chebyshev grid over its band."""
    from .fluid import EquilibriumDensity, support_endpoints

    if len(ns) != 1:
        raise DomainError("density takes a single size, e.g. --n 20")
    n = ns[0]
    if args.points < 3:
        raise DomainError(f"need at least 3 grid points, got {args.points}")
    if jp.alpha < 0 or jp.beta < 0:
        raise DomainError(
            "density needs alpha, beta >= 0: otherwise sigma integrates to n + "
            f"min(alpha, 0) + min(beta, 0), not n; got alpha = {jp.alpha}, beta = {jp.beta}")
    digits = args.digits
    p = Precision(digits)
    t0 = time.perf_counter()
    with p.workdps():
        si = support_endpoints(n, jp)
        density = EquilibriumDensity(si)
        mass = density.mass(p)
        rows, last = [], args.points - 1
        for j in range(args.points):
            x = (si.a_n if j == 0 else si.b_n if j == last
                 else si.center + si.halfwidth * mpmath.cospi(mpf(last - j) / last))
            rows.append(_fmt_row({"x": x, "sigma": density(x)}, digits))
        parameters = _parameters(
            jp, n, digits=digits, points=args.points, a_n=_fmt(si.a_n, digits),
            b_n=_fmt(si.b_n, digits), mass=_fmt(mass, digits),
            mass_rel_err=_fmt(abs(mass - n) / n, 8),
            elapsed_s=round(time.perf_counter() - t0, 3))
    return parameters, rows, 0


# --- report emission ---

def _emit_json(report: dict, stream) -> None:
    json.dump(report, stream, indent=2)
    stream.write("\n")


def _emit_csv(report: dict, stream) -> None:
    import csv

    stream.write(f"# command: {report['command']}\n")
    stream.write(f"# tool: {report['tool']['name']} {report['tool']['version']}"
                 f" schema {report['schema_version']}\n")
    for key, value in report["parameters"].items():
        stream.write(f"# {key}: {value}\n")
    fields = dict.fromkeys(key for row in report["rows"] for key in row)
    writer = csv.DictWriter(stream, fieldnames=list(fields), restval="")
    writer.writeheader()
    for row in report["rows"]:
        writer.writerow({k: ("" if v is None else v) for k, v in row.items()})


# --- argument plumbing ---

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hankelpert",
        description="Hankel determinants of perturbed Jacobi-type weights, "
                    "cross-validated at arbitrary precision.")
    parser.add_argument("--version", action="version",
                        version=f"hankelpert {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(sp, digits=None):
        sp.add_argument("--n", required=True,
                        help="sizes: one integer, a comma list, or start:stop[:step]")
        sp.add_argument("--alpha", default="0", help="exponent of (1-x), > -1")
        sp.add_argument("--beta", default="0", help="exponent of (1+x), > -1")
        sp.add_argument("--digits", type=int, default=digits,
                        help="working precision in digits "
                             f"(default: {digits or 'size-based policy'})")
        sp.add_argument("--format", choices=("json", "csv"), default="json")

    sp = sub.add_parser("exact", help="bare-weight ln det by three routes")
    common(sp)
    sp.set_defaults(run=cmd_exact)

    sp = sub.add_parser("compare", help="direct perturbed ln det vs prediction")
    common(sp)
    sp.add_argument("--h", required=True,
                    help="perturbation expression in x, e.g. 'exp(0.5*x)'")
    sp.add_argument("--quad-order", type=int, default=None,
                    help="Gauss rule order for perturbed moments (default and minimum: "
                         f"largest n + {QUAD_ORDER_MARGIN}, shared by every row)")
    sp.add_argument("--heine", action="store_true",
                    help="add ensemble-average columns for sizes <= 3")
    sp.set_defaults(run=cmd_compare)

    sp = sub.add_parser("fluid", help="continuum band and recurrence estimates")
    common(sp, digits=64)
    sp.set_defaults(run=cmd_fluid)

    sp = sub.add_parser("density", help="continuum density on a grid")
    common(sp, digits=64)
    sp.add_argument("--points", type=int, default=21)
    sp.set_defaults(run=cmd_density)
    return parser


def _join_signed_values(argv) -> list:
    """'--h -x^2' -> '--h=-x^2': argparse takes a lone '-x^2' or '-9/10' for an option.
    A token with one leading '-' after --alpha, --beta or --h is that option's value."""
    out = []
    for tok in argv:
        if out and out[-1] in ("--alpha", "--beta", "--h") and tok[:1] == "-" != tok[1:2]:
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    try:
        args = parser.parse_args(_join_signed_values(argv))
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    started = time.perf_counter()
    try:
        parameters, rows, code = args.run(args, JacobiParams(args.alpha, args.beta),
                                          _parse_n_list(args.n))
    except ParseError as exc:
        print(f"error: {exc} (at offset {exc.position}, expected one of "
              f"{', '.join(exc.expected) or 'n/a'})", file=sys.stderr)
        return 2
    except (PositivityError, EvalDomainError) as exc:
        print(f"error: perturbation rejected: {exc}", file=sys.stderr)
        return 4
    except PrecisionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": "hankelpert", "version": __version__},
        "command": shlex.join(["hankelpert"] + list(argv)),
        "subcommand": args.subcommand,
        "parameters": parameters,
        "rows": rows,
        "total_elapsed_s": round(time.perf_counter() - started, 3),
    }
    (_emit_csv if args.format == "csv" else _emit_json)(report, sys.stdout)
    return code


def entrypoint() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early (``| head -1``): send the unwritten
        # rest, and the interpreter's final flush, to the null device
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
