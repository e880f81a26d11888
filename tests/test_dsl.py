"""Expression grammar for perturbation factors: parsing, printing, evaluation,
and the positivity screen."""
import copy
import pickle
from fractions import Fraction

import mpmath
import pytest

from hankelpert.dsl import (Binary, Call, Neg, Num, Pow, Var, evaluate, h_const,
                            h_exp_cheb2, h_exp_linear, h_one, h_one_plus_square,
                            parse_h, to_source, validate_positive)
from hankelpert.errors import (DomainError, EvalDomainError, ParseError,
                               PositivityError)
from hankelpert.hankel import HankelResult, MomentSequence
from hankelpert.jacobi import JacobiParams
from hankelpert.precision import Precision

P64 = Precision(64)

ROUND_TRIP_CORPUS = (
    "exp(0.5*x)",
    "1 + x^2/2",
    "2*(1 - x/3) + x^2",
    "exp(x)/(2 + x)",
    "sqrt(4 + x)",
    "cosh(x)/2 + sinh(x)^2 + 1",
    "(1 + x^2/2)^(3/2)",
    "1 - 0.999*x^2",
    "exp(0.25*(2*x^2 - 1))",
    "2 - -x",
    "x^2^3 + 2",
)


def test_parse_builds_expected_trees():
    assert parse_h("exp(0.5*x)").ast == Call("exp", Binary("*", Num(Fraction(1, 2)), Var()))
    assert parse_h("1 + x^2/2").ast == Binary(
        "+", Num(Fraction(1)), Binary("/", Pow(Var(), Fraction(2)), Num(Fraction(2))))


def test_parse_error_carries_offset_and_expectation():
    with pytest.raises(ParseError) as err:
        parse_h("2*(1-x")
    assert err.value.position == 6
    assert err.value.expected == (")",)


def test_parse_rejects_symbolic_exponent():
    with pytest.raises(ParseError, match="rational constant"):
        parse_h("x^x")


@pytest.mark.parametrize("source, printed", [
    ("x^(2^-1)", "x^0.5"), ("x^(-(3/2))", "x^(-1.5)"), ("2-x^(4/2)", "2 - x^2"),
    ("x^((1/2)^2)", "x^0.25"), ("x^2^3+1", "x^8 + 1")])
def test_constant_exponents_fold_to_rationals(source, printed):
    assert parse_h(source).source == printed


@pytest.mark.parametrize("source", [
    "x^x", "x^(1/0)", "x^(0^-1)", "x^(exp(0))", "x^(4^(1/2))", "x^(-x)",
    "x^(sqrt(4))", "x^(2*x)"])
def test_exponents_that_do_not_fold_are_rejected(source):
    """x, a domain fault, a call or a fractional power anywhere in the exponent."""
    with pytest.raises(ParseError) as err:
        parse_h(source)
    assert str(err.value) == "exponent must be a rational constant"
    assert (err.value.position, err.value.expected) == (1, ("number",))


def test_parse_rejects_unknown_names():
    with pytest.raises(ParseError, match="unknown name"):
        parse_h("foo(x)")
    with pytest.raises(ParseError, match="unknown name"):
        parse_h("y + 1")


@pytest.mark.parametrize("source, message, position, expected", [
    ("  x @ 1", "unexpected character '@'", 4, ()),
    ("1 \u00e9", "unexpected character '\u00e9'", 2, ()),
    (" \t", "expected a value, found 'end of input'", 2, ("number", "x", "("))])
def test_tokenizer_names_the_offending_character(source, message, position, expected):
    """A character no token starts with is named at its offset, past any
    whitespace; input that is all whitespace ends at its length."""
    with pytest.raises(ParseError) as err:
        parse_h(source)
    assert (str(err.value), err.value.position, err.value.expected) == \
        (message, position, expected)


@pytest.mark.parametrize("source, printed", [
    ("x\t+\n1", "x + 1"), ("x + 1  ", "x + 1"), ("\u0663*x", "3*x")])
def test_tokenizer_skips_any_whitespace_and_reads_any_decimal_digit(source, printed):
    assert parse_h(source).source == printed


@pytest.mark.parametrize("accepted, refused, position", [
    ("(" * 100 + "x" + ")" * 100, "(" * 101 + "x" + ")" * 101, 100),
    ("exp(" * 100 + "x" + ")" * 100, "exp(" * 101 + "x" + ")" * 101, 400),
    ("-" * 300 + "x", "-" * 301 + "x", 300),
    ("1" + "+x" * 300, "1" + "+x" * 301, 601),
    ("x" + "^1" * 300, "x" + "^1" * 301, 601)],
    ids=["parentheses", "calls", "minus-signs", "sum", "carets"])
def test_nesting_bound_counts_parentheses_three_levels_and_the_rest_one(accepted, refused,
                                                                        position):
    assert parse_h(accepted)
    with pytest.raises(ParseError) as err:
        parse_h(refused)
    assert (str(err.value), err.value.position) == \
        ("expression nests deeper than 300 levels", position)


def test_parse_rejects_truncated_input():
    for src in ("exp()", "1 + ", "(", "1 2"):
        with pytest.raises(ParseError):
            parse_h(src)


def test_precedence_and_associativity():
    h = parse_h("1 + 2*x^2")
    assert evaluate(h.ast, Fraction(3)) == 19
    # unary minus binds looser than the power
    assert evaluate(parse_h("2 - x^2").ast, Fraction(3)) == -7
    # left-assoc chain: 8/4/2 = 1
    assert evaluate(parse_h("8/4/2 + x").ast, Fraction(0)) == 1
    # power tower folds right-assoc: x^2^3 = x^8
    assert evaluate(parse_h("x^2^3 + 1").ast, Fraction(2)) == 257


def test_constant_powers_past_the_bit_budget_are_rounded():
    # exact while |k| times the base's bits beyond the first stays within 4096
    assert evaluate(parse_h("2^4096").ast, None) == 2 ** 4096
    assert evaluate(parse_h("(1/3)^4096").ast, None) == Fraction(1, 3 ** 4096)
    assert evaluate(parse_h("1^99999999 + (-1)^99999999").ast, None) == 0
    # past it the power is an mpf: 3^9999999 exactly would take seconds per sample
    big = evaluate(parse_h("(-3)^9999999").ast, None)
    assert isinstance(big, mpmath.mpf) and big < 0
    assert parse_h("1 + 0*3^9999999")(mpmath.mpf("0.5")) == 1
    # and an exponent that is no longer a rational constant is refused at parse time
    with pytest.raises(ParseError):
        parse_h("x^(2^(3^99999999))")


def test_round_trip_preserves_tree():
    for src in ROUND_TRIP_CORPUS:
        h = parse_h(src)
        again = parse_h(h.source)
        assert again.ast == h.ast, src
        assert to_source(again.ast) == h.source, src


def test_records_are_immutable_and_trees_compare_by_node_type():
    left, right = Binary("+", Var(), Num(1)), Binary("-", Var(), Num(1))
    assert left != right
    assert Binary("*", Var(), Num(1)) != Binary("/", Var(), Num(1))
    assert left == Binary(op="+", left=Var(), right=Num(1))
    assert hash(left) == hash(Binary("+", Var(), Num(1)))
    assert repr(left) == "Binary(op='+', left=Var(), right=Num(value=1))"
    # each node kind has its own arity or first-field type, so kinds never compare equal
    assert Num(Fraction(1)) != Neg(Num(Fraction(1)))
    assert Pow(Var(), Fraction(2)) != Call("exp", Var())
    h = parse_h("exp(-(1/3)*x) + 1/(1.02 - x)^2")
    for value in (h, h.ast):
        # repr names every node's class, which tuple equality alone would not check
        for again in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
            assert again == value and repr(again) == repr(value)
    assert repr(Precision(40)) == "Precision(decimal_digits=40)"
    assert hash(JacobiParams("1/2", 0)) == hash(JacobiParams(alpha=Fraction(1, 2), beta=0))
    one = mpmath.mpf(1)
    records = [(Precision(40), "decimal_digits"), (JacobiParams(0, 0), "alpha"),
               (HankelResult(one, (one,)), "log_det"),
               (MomentSequence((one,), "pure"), "mu"), (parse_h("x + 2"), "source"),
               (left, "left")]
    for record, field in records:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))


def test_builtin_sources_round_trip():
    fns = (h_one(), h_const(Fraction(3, 2)), h_exp_linear(1),
           h_exp_linear(Fraction(-1, 2)), h_exp_cheb2(1),
           h_one_plus_square(Fraction(1, 2)), h_one_plus_square(Fraction(-1, 2)))
    for h in fns:
        assert parse_h(h.source).ast == h.ast, h.source


def test_builtin_sources_are_pinned():
    # negative and non-decimal parameters: a non-decimal magnitude prints as
    # n/d, parenthesized only under a unary minus
    cases = (
        (h_const(Fraction(1, 3)), "1/3"),
        (h_const(Fraction(3, 2)), "1.5"),
        (h_exp_linear(-1), "exp(-x)"),
        (h_exp_linear(Fraction(-1, 3)), "exp(-(1/3)*x)"),
        (h_exp_linear(Fraction(-3, 2)), "exp(-1.5*x)"),
        (h_exp_linear(Fraction(7, 3)), "exp(7/3*x)"),
        (h_exp_cheb2(-1), "exp(-1*(2*x^2 - 1))"),
        (h_exp_cheb2(Fraction(-2, 7)), "exp(-(2/7)*(2*x^2 - 1))"),
        (h_exp_cheb2(Fraction(1, 3)), "exp(1/3*(2*x^2 - 1))"),
        (h_one_plus_square(Fraction(-1, 2)), "1 - 0.5*x^2"),
        (h_one_plus_square(Fraction(-1, 3)), "1 - 1/3*x^2"),
        (h_one_plus_square(1), "1 + x^2"),
        (h_one_plus_square(Fraction(7, 3)), "1 + 7/3*x^2"),
    )
    for h, source in cases:
        assert h.source == source
    assert h_exp_linear(Fraction(-1, 3)).ast == Call(
        "exp", Binary("*", Neg(Binary("/", Num(Fraction(1)), Num(Fraction(3)))), Var()))
    assert h_one_plus_square(Fraction(-1, 2)).ast == Binary(
        "-", Num(Fraction(1)), Binary("*", Num(Fraction(1, 2)), Pow(Var(), Fraction(2))))


def test_exact_evaluation_stays_rational():
    for source, x, want in (("1 + x^2/2", Fraction(1, 3), Fraction(19, 18)),
                            ("(1 + x)^(-2)", Fraction(1), Fraction(1, 4))):
        got = evaluate(parse_h(source).ast, x)
        assert isinstance(got, Fraction) and got == want, source


def test_mpf_evaluation_values():
    with mpmath.workdps(50):
        x = mpmath.mpf("0.5")
        assert float(abs(h_exp_linear(1)(x) - mpmath.exp(x))) < 1e-45
        assert float(abs(h_exp_cheb2(1)(x) - mpmath.exp(2 * x * x - 1))) < 1e-45
        assert float(abs(parse_h("sqrt(4 + x)")(x) - mpmath.sqrt(x + 4))) < 1e-45
        assert float(abs(h_one()(x) - 1)) < 1e-48


def test_evaluation_is_deterministic():
    with mpmath.workdps(64):
        h = parse_h("exp(x)/(2 + x) + cosh(x)^2")
        x = mpmath.mpf(1) / 7
        assert h(x) == h(x)


def test_evaluation_domain_guards():
    with pytest.raises(EvalDomainError):
        evaluate(parse_h("log(x)").ast, Fraction(-1, 2))
    with pytest.raises(EvalDomainError):
        evaluate(parse_h("1/x").ast, Fraction(0))
    with pytest.raises(EvalDomainError):
        evaluate(parse_h("x^(-1)").ast, Fraction(0))
    with pytest.raises(EvalDomainError):
        evaluate(parse_h("(x - 2)^(1/2)").ast, Fraction(0))
    with pytest.raises(EvalDomainError, match=r"^sqrt of a negative value at x = -1$"):
        evaluate(parse_h("sqrt(x)").ast, Fraction(-1))


@pytest.mark.parametrize("name", ["exp", "log", "sqrt", "cosh", "sinh"])
def test_each_function_evaluates_to_its_mpmath_counterpart(name):
    with mpmath.workdps(50):
        x = mpmath.mpf("0.375")
        want = getattr(mpmath, name)(x + 2)
        assert abs(parse_h(f"{name}(x + 2)")(x) - want) < abs(want) * mpmath.mpf(10) ** -48


def test_function_domain_boundaries():
    with pytest.raises(EvalDomainError):
        evaluate(parse_h("log(x)").ast, Fraction(0))
    assert evaluate(parse_h("sqrt(x)").ast, Fraction(0)) == 0


def test_validate_accepts_positive_functions():
    smallest = validate_positive(parse_h("exp(x)"), P64)
    with mpmath.workdps(40):
        # the minimum is h(-1), an endpoint of the point set
        assert float(abs(smallest - mpmath.exp(-1))) < 1e-30


def test_validate_thin_positive_margin():
    assert 0 < float(validate_positive(parse_h("1 - 0.999*x^2"), P64)) < 0.0011


def test_validate_rejects_sign_changes():
    with pytest.raises(PositivityError) as err:
        validate_positive(parse_h("x"), P64)
    assert err.value.witness is not None
    assert float(err.value.value) <= 0
    with pytest.raises(PositivityError):
        validate_positive(parse_h("log(x)"), P64)  # hits h(1) = 0


def test_validate_propagates_evaluation_failures():
    with pytest.raises(EvalDomainError):
        validate_positive(parse_h("log(x - 2)"), P64)


def test_builtin_constructor_guards():
    with pytest.raises(DomainError):
        h_const(0)
    with pytest.raises(DomainError):
        h_const(-2)
    with pytest.raises(DomainError):
        h_one_plus_square(-1)
    with pytest.raises(DomainError):
        h_one_plus_square(Fraction(-3, 2))
