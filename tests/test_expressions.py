"""Parser, evaluator, formal derivative and simplifier behavior."""

import cmath
import math
import random

import pytest

from kahlermech import expressions
from kahlermech.expressions import (
    COMPILED_DOMAIN_ERRORS,
    Add,
    Conj,
    Cos,
    Div,
    EvalDomainError,
    Exp,
    GeneratedFunction,
    Im,
    Log,
    Mul,
    Neg,
    Num,
    ParseError,
    Pow,
    Re,
    Sin,
    Sub,
    Sym,
    compile_function,
    diff,
    domain_error,
    emit,
    evaluate,
    make_point,
    parse_expression,
    simplify,
    walk,
)
from fdtools import domain_clear, expr_evaluator, first_fd

Z1, W1 = Sym("z", 1), Sym("w", 1)


def _random_point(rng: random.Random, m: int):
    z = tuple(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(m))
    w = tuple(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(m))
    return make_point(z, w), z, w


# ---------------------------------------------------------------- parsing


def test_parse_basic_structure():
    e = parse_expression("z1*w1", 1)
    assert e == Mul(Z1, W1)
    assert parse_expression("z1 + w1*z1", 1) == Add(Z1, Mul(W1, Z1))
    assert parse_expression("(z1 + w1)*z1", 1) == Mul(Add(Z1, W1), Z1)


def test_parse_precedence_and_associativity():
    # Left associativity of the additive and multiplicative chains.
    assert parse_expression("z1 - w1 - z1", 1) == Sub(Sub(Z1, W1), Z1)
    assert parse_expression("z1 / w1 / z1", 1) == Div(Div(Z1, W1), Z1)
    # '^' binds tighter than '*'.
    assert parse_expression("2*z1^3", 1) == Mul(Num(2), Pow(Z1, 3))


def test_parse_number_forms():
    point = make_point((0.0,), (0.0,))
    for text, value in [
        ("0.5", 0.5),
        (".5", 0.5),
        ("1.", 1.0),
        ("1e-3", 1e-3),
        ("2.5E+4", 2.5e4),
        ("42", 42.0),
    ]:
        assert evaluate(parse_expression(text, 1), point) == value


def test_parse_functions_and_case():
    e = parse_expression("sin(z1) + cos(w1) + exp(z1) + log(w1)", 1)
    point = make_point((0.3 + 0.1j,), (1.2 - 0.4j,))
    expected = (
        __import__("cmath").sin(0.3 + 0.1j)
        + __import__("cmath").cos(1.2 - 0.4j)
        + __import__("cmath").exp(0.3 + 0.1j)
        + __import__("cmath").log(1.2 - 0.4j)
    )
    assert abs(evaluate(e, point) - expected) < 1e-14


def test_parse_rejects_out_of_range_symbols():
    with pytest.raises(ParseError) as info:
        parse_expression("z1 + z3", 2)
    assert "z3" in str(info.value)
    assert info.value.position == 5
    with pytest.raises(ParseError):
        parse_expression("w0", 1)
    with pytest.raises(ParseError):
        parse_expression("q1", 1)


@pytest.mark.parametrize(
    "text",
    ["", "(z1", "z1 +", "z1 ++ w1", "1..2", "z1 $ w1", "-z1", "z1^-2", "z1^2^3", "z1^w1", "sin z1"],
)
def test_parse_rejects_malformed_input(text):
    with pytest.raises(ParseError) as info:
        parse_expression(text, 1)
    assert info.value.position >= 0


@pytest.mark.parametrize("text, position", [
    ("z1^\u00b2", 3),            # superscript two
    ("\u0663*z1", 0),            # Arabic-Indic three
    ("z\uff11", 1),              # full-width one
    ("z\u00b2", 1),
    ("z1 +\u00a0w1", 4),         # no-break space
])
def test_the_grammar_is_ascii(text, position):
    # Before: "z1^\u00b2" raised an untyped ValueError from int(), and the
    # Arabic-Indic and full-width digits parsed as 3*z1 and z1.
    with pytest.raises(ParseError, match="unexpected character") as info:
        parse_expression(text, 1)
    assert info.value.position == position


@pytest.mark.parametrize("text, position", [(".", 0), (".e5", 0), ("z1 + .", 5)])
def test_a_lone_dot_is_a_parse_error_at_its_position(text, position):
    # Before: float()'s untyped ValueError ("could not convert string to float").
    with pytest.raises(ParseError, match="unexpected character '.'") as info:
        parse_expression(text, 1)
    assert info.value.position == position


def test_the_number_pattern_is_an_unsigned_ascii_decimal():
    for text in ["2", "0.5", ".5", "1.", "1e-3", "2.5E+4", "1.e5"]:
        assert expressions.NUMBER.fullmatch(text), text
    for text in [".", ".e5", "-1", "1e", "1e+", "1 2", "1_0", "\u0663"]:
        assert not expressions.NUMBER.fullmatch(text), text


def test_parse_error_position_points_at_offender():
    with pytest.raises(ParseError) as info:
        parse_expression("z1 + $", 1)
    assert info.value.position == 5


def test_parse_rejects_parentheses_nested_beyond_the_limit():
    assert parse_expression("(" * 200 + "z1" + ")" * 200, 1) == Z1
    with pytest.raises(ParseError, match="nested too deeply") as info:
        parse_expression("(" * 400 + "z1" + ")" * 400, 1)
    assert info.value.position == 200


def test_structural_equality_and_hash():
    a = parse_expression("z1 + w1", 2)
    b = parse_expression("z1+w1", 2)
    assert a == b and hash(a) == hash(b)
    # Structural, not algebraic: commuted operands differ.
    assert parse_expression("w1 + z1", 2) != a
    assert Sym("z", 1) == parse_expression("z1", 2)
    assert Sym("w", 2) == parse_expression("w2", 2)


# ---------------------------------------------------------------- printing


def test_printer_round_trip_preserves_value():
    rng = random.Random(7)
    texts = [
        "z1*w1 + (1/2)*(z1*w1)^2",
        "exp(z1*w2) - sin(w1)/cos(z2 + 1)",
        "(z1 + w1)^3 / (2 + z2^2)",
        "log(2 + z1^2) * w2 - 0.25",
        "conj(z1) + re(w1) - im(z2)",
    ]
    for text in texts:
        e = parse_expression(text, 2)
        back = parse_expression(str(e), 2)
        for _ in range(5):
            point, _, _ = _random_point(rng, 2)
            try:
                lhs = evaluate(e, point)
            except EvalDomainError:
                continue
            assert abs(lhs - evaluate(back, point)) <= 1e-12 * max(1.0, abs(lhs))


@pytest.mark.parametrize("kind, right_nested, left_nested", [
    (Add, "z1 + w1 + z2", "z1 + w1 + z2"),
    (Sub, "z1 - (w1 - z2)", "z1 - w1 - z2"),
    (Mul, "z1 * w1 * z2", "z1 * w1 * z2"),
    (Div, "z1 / (w1 / z2)", "z1 / w1 / z2"),
])
def test_printer_parenthesises_a_right_child_unless_associative(kind, right_nested, left_nested):
    z2 = Sym("z", 2)
    assert str(kind(Z1, kind(W1, z2))) == right_nested
    assert str(kind(kind(Z1, W1), z2)) == left_nested


def test_printer_avoids_unary_minus():
    assert str(Neg(Z1)) == "(0 - z1)"
    # The grouped form survives re-parsing even inside a product.
    e = Mul(Neg(Add(Z1, W1)), Num(2))
    point = make_point((1.5 + 0.5j,), (-0.5 + 1.0j,))
    assert abs(evaluate(parse_expression(str(e), 1), point) - evaluate(e, point)) < 1e-14


def test_printer_negative_exponent_renders_as_division():
    e = Pow(Z1, -2)
    assert str(e) == "1 / z1^2"
    point = make_point((2.0,), (0.0,))
    assert evaluate(e, point) == 0.25
    assert evaluate(parse_expression(str(e), 1), point) == 0.25


# ---------------------------------------------------------------- evaluation


def test_evaluate_domain_errors():
    point = make_point((0.0,), (1.0,))
    with pytest.raises(EvalDomainError):
        evaluate(parse_expression("1/z1", 1), point)
    with pytest.raises(EvalDomainError):
        evaluate(parse_expression("log(z1)", 1), point)
    # Nonzero but negative arguments are fine on the principal branch.
    val = evaluate(parse_expression("log(z1)", 1), make_point((-1.0,), (0.0,)))
    assert abs(val - complex(0.0, math.pi)) < 1e-15


def test_power_that_underflows_to_a_zero_divisor_is_a_domain_error():
    # (1e-200)^-2 divides by the underflowed 1e-400: a ZeroDivisionError
    # that must not escape the tree walker, nor simplify's folding.
    e = Pow(Z1, -2)
    with pytest.raises(EvalDomainError, match="argument out of range"):
        evaluate(e, make_point((1e-200,), (1.0,)))
    with pytest.raises(COMPILED_DOMAIN_ERRORS):
        _compiled(e)((1e-200,), (1.0,))
    assert domain_error(e, make_point((1e-200,), (1.0,))).subtree == e
    assert simplify(Pow(Num(1e-200), -2)) == Pow(Num(1e-200), -2)


def test_evaluate_conjugation_family():
    point = make_point((1.0 + 2.0j,), (0.0,))
    assert evaluate(Conj(Z1), point) == 1.0 - 2.0j
    assert evaluate(Re(Z1), point) == 1.0
    assert evaluate(Im(Z1), point) == 2.0


def _compiled(e):
    """The expression as generated code, the way the dynamics layer builds it."""
    symbols = [n for n in walk(e) if isinstance(n, Sym)]
    return compile_function("z, w", [f"return {emit(e)}"], symbols)


def test_compile_matches_evaluate():
    rng = random.Random(11)
    texts = [
        "z1*w1 + exp(z2)*sin(w2)",
        "conj(z1)*w1 + re(z2) - im(w2)",
        "(z1 + 2)^4 / (w1^2 + 3)",
        "log(4 + z1*w1) - cos(z2)",
    ]
    for text in texts:
        e = parse_expression(text, 2)
        fn = _compiled(e)
        for _ in range(10):
            point, z, w = _random_point(rng, 2)
            try:
                expected = evaluate(e, point)
            except EvalDomainError:
                continue
            assert abs(fn(z, w) - expected) <= 1e-12 * max(1.0, abs(expected))


def test_a_function_kind_is_one_class(monkeypatch):
    monkeypatch.setattr(expressions, "_FUNCTIONS", dict(expressions._FUNCTIONS))

    class Sinh(expressions._Function):
        value = staticmethod(cmath.sinh)

    e = parse_expression("sinh(z1 + 1)", 1)
    assert e == Sinh(Add(Z1, Num(1))) and str(e) == "sinh(z1 + 1)"
    point = make_point((0.5j,), (0,))
    assert _compiled(e)((0.5j,), ()) == evaluate(e, point) == cmath.sinh(1 + 0.5j)


def test_code_nested_too_deeply_to_compile_is_a_value_error():
    e = Z1
    for _ in range(250):
        e = Add(e, W1)
    with pytest.raises(ValueError, match="nested too deeply"):
        _compiled(e)


def test_emitted_literals_are_exact_to_the_sign_of_zero():
    # repr((-1-0j)) reads back as -1 - 0j, whose imaginary part is +0.0;
    # at z1 = 2 that flips log((-1-0j)*z1) from -pi*i to +pi*i.
    parts = [0.0, -0.0, 1.5, -1.5, 1e300, math.inf, -math.inf, math.nan]
    for re_part in parts:
        for im_part in parts:
            value = complex(re_part, im_part)
            got = _compiled(Num(value))((), ())
            for x, y in ((got.real, value.real), (got.imag, value.imag)):
                assert (math.isnan(x) and math.isnan(y)) or (
                    x == y and math.copysign(1, x) == math.copysign(1, y)), (value, got)
    e = Log(Mul(Num(complex(-1.0, -0.0)), Z1))
    assert _compiled(e)((2.0 + 0j,), ()) == evaluate(e, make_point((2.0,), ()))


def test_compile_raises_domain_error():
    # Generated code raises a plain Python error; the tree walker then
    # names the offending subtree, not the whole expression.
    e = parse_expression("z1*w1 + 2/(z1 - 1)", 1)
    with pytest.raises(COMPILED_DOMAIN_ERRORS):
        _compiled(e)((1.0,), (3.0,))
    err = domain_error(e, make_point((1.0,), (3.0,)))
    assert isinstance(err, EvalDomainError)
    assert err.subtree == parse_expression("2/(z1 - 1)", 1)
    assert domain_error(e, make_point((2.0,), (3.0,))) is None


def test_generated_values_are_finite_or_a_named_domain_error():
    huge = Num(complex(1.7e308, 1.7e308))  # finite; its abs() overflows
    entries = [Mul(huge, Z1), Div(Num(1), Z1), Mul(Num(1e308), Z1)]
    generated = GeneratedFunction([f"return [{', '.join(map(emit, entries))}]"], entries, 1)
    assert generated.values((1.0,), (0.0,)) == [complex(1.7e308, 1.7e308), 1, 1e308]
    with pytest.raises(EvalDomainError, match="division by zero"):
        generated.values((0.0,), (0.0,))
    with pytest.raises(EvalDomainError, match="non-finite value") as info:
        generated.values((10.0,), (0.0,))
    assert info.value.subtree == entries[0]
    assert generated.domain_error((1.0,), (0.0,)) is None


# ---------------------------------------------------------------- derivatives


def test_diff_product_and_chain_rules():
    point = make_point((0.7 + 0.4j,), (1.1 - 0.3j,))
    cases = [
        ("z1*w1", Z1, "w1"),
        ("z1*w1", W1, "z1"),
        ("z1^5", Z1, "5*z1^4"),
        ("sin(z1)", Z1, "cos(z1)"),
        ("exp(z1^2)", Z1, "2*z1*exp(z1^2)"),
        ("log(w1)", W1, "1/w1"),
        ("cos(w1)", W1, "(0 - sin(w1))"),
    ]
    for text, sym, expected_text in cases:
        got = evaluate(diff(parse_expression(text, 1), sym), point)
        expected = evaluate(parse_expression(expected_text, 1), point)
        assert abs(got - expected) <= 1e-13 * max(1.0, abs(expected))


def test_diff_quotient_rule():
    e = parse_expression("z1 / (1 + w1^2)", 1)
    point = make_point((2.0 - 1.0j,), (0.5 + 0.5j,))
    d_w = evaluate(diff(e, W1), point)
    w = 0.5 + 0.5j
    expected = -(2.0 - 1.0j) * 2 * w / (1 + w * w) ** 2
    assert abs(d_w - expected) < 1e-13


def test_diff_of_absent_symbol_is_zero():
    e = parse_expression("z1^2 + sin(z1)", 2)
    assert simplify(diff(e, Sym("w", 2))) == Num(0)


def test_formal_partials_kill_conjugation_family():
    # conj, re and im count as constants for the formal derivative.
    for node in (Conj(Z1), Re(Z1), Im(W1), Mul(Conj(Z1), Conj(Z1))):
        for sym in (Z1, W1):
            assert simplify(diff(node, sym)) == Num(0)
    mixed = Mul(Conj(Z1), W1)
    assert simplify(diff(mixed, W1)) == Conj(Z1)


def _random_holomorphic(rng: random.Random, depth: int, m: int):
    """Random expression over the derivative-friendly node set.

    The conjugation family is deliberately excluded: its formal derivative
    is zero by definition, which no directional difference reproduces.
    """
    if depth == 0 or rng.random() < 0.25:
        roll = rng.random()
        if roll < 0.45:
            return Sym("z", rng.randint(1, m))
        if roll < 0.9:
            return Sym("w", rng.randint(1, m))
        return Num(round(rng.uniform(-2, 2), 3))
    op = rng.choice(["add", "sub", "mul", "div", "pow", "sin", "cos", "exp", "log"])
    a = _random_holomorphic(rng, depth - 1, m)
    if op == "add":
        return Add(a, _random_holomorphic(rng, depth - 1, m))
    if op == "sub":
        return Sub(a, _random_holomorphic(rng, depth - 1, m))
    if op == "mul":
        return Mul(a, _random_holomorphic(rng, depth - 1, m))
    if op == "div":
        # Bound the divisor away from zero to keep samples usable.
        return Div(a, Add(Num(3), Mul(Sym("z", 1), Num(0.1))))
    if op == "pow":
        return Pow(a, rng.randint(2, 3))
    if op == "sin":
        return Sin(a)
    if op == "cos":
        return Cos(a)
    if op == "exp":
        return Exp(Mul(Num(0.3), a))
    return Log(Add(Num(4), Mul(Num(0.2), a)))


def test_diff_matches_finite_differences():
    rng = random.Random(2024)
    checked = 0
    for _ in range(40):
        e = _random_holomorphic(rng, 3, 2)
        fn = expr_evaluator(e)
        for _ in range(3):
            point, z, w = _random_point(rng, 2)
            slots = range(4)
            if not domain_clear(fn, z, w, slots, h=1e-5):
                continue
            base = abs(fn(z, w))
            if not base < 1e3:
                continue
            for slot, sym in enumerate(
                [Sym("z", 1), Sym("z", 2), Sym("w", 1), Sym("w", 2)]
            ):
                formal = evaluate(diff(e, sym), point)
                if not abs(formal) < 1e3:
                    continue
                numeric = first_fd(fn, z, w, slot, h=1e-5)
                scale = max(1.0, base, abs(formal))
                assert abs(formal - numeric) <= 5e-7 * scale
                checked += 1
    assert checked > 200


# ---------------------------------------------------------------- simplify


def test_simplify_identities():
    assert simplify(parse_expression("z1 + 0", 1)) == Z1
    assert simplify(parse_expression("0 + z1", 1)) == Z1
    assert simplify(parse_expression("z1 * 1", 1)) == Z1
    assert simplify(parse_expression("z1 * 0", 1)) == Num(0)
    assert simplify(parse_expression("0 / z1", 1)) == Num(0)
    assert simplify(parse_expression("z1 / 1", 1)) == Z1
    assert simplify(parse_expression("z1^1", 1)) == Z1
    assert simplify(parse_expression("z1^0", 1)) == Num(1)
    assert simplify(parse_expression("(2 + 3) * 4", 1)) == Num(20)


def test_simplify_is_idempotent_and_value_preserving():
    rng = random.Random(5)
    for _ in range(30):
        e = _random_holomorphic(rng, 3, 2)
        s = simplify(e)
        assert simplify(s) == s
        fn_e, fn_s = expr_evaluator(e), expr_evaluator(s)
        for _ in range(3):
            point, z, w = _random_point(rng, 2)
            try:
                lhs = fn_e(z, w)
            except EvalDomainError:
                continue
            if not abs(lhs) < 1e6:
                continue
            assert abs(lhs - fn_s(z, w)) <= 1e-10 * max(1.0, abs(lhs))


def test_simplify_keeps_log_of_zero_unevaluated():
    e = Log(Num(0))
    assert simplify(e) == e
    with pytest.raises(EvalDomainError):
        evaluate(e, make_point((), ()))


def test_walk_visits_parents_before_children_left_to_right():
    e = parse_expression("sin(z1)*w1 - (z2 + 3)^2", 2)
    assert [str(node) for node in walk(e)] == [
        str(e), "sin(z1) * w1", "sin(z1)", "z1", "w1", "(z2 + 3)^2", "z2 + 3", "z2", "3",
    ]
    # No recursion: a chain far deeper than the interpreter's stack.
    chain = Z1
    for _ in range(5000):
        chain = Neg(chain)
    assert sum(1 for _ in walk(chain)) == 5001


def test_make_point_maps_both_symbol_kinds():
    point = make_point((1 + 1j, 2.0), (3.0, 4 - 1j))
    assert point[Sym("z", 2)] == 2.0
    assert point[Sym("w", 1)] == 3.0
    assert evaluate(parse_expression("z1 + w2", 2), point) == (1 + 1j) + (4 - 1j)
