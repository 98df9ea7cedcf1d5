import math
import sys

import numpy as np
import pytest

from kirchlab.expr import (CONSTANTS, BinOp, Call, Expr, ExprError, Neg, Num, Var, _ADD_BP,
                           _MUL_BP, _NEG_BP, _POW_BP, _evaluate, eval_field, parse)
from kirchlab.grid import Grid

from conftest import unit_grid


def eval_at(expr: Expr, x: float, y: float) -> float:
    """Evaluate at a point; ValueError when the value leaves the reals."""
    return float(_evaluate(expr, np.array([x], dtype=float), np.array([y], dtype=float))[0])


def to_string(expr: Expr) -> str:
    """Pretty-print with minimal parentheses; reparses to an equal tree."""

    def prec(e: Expr) -> int:
        if isinstance(e, BinOp):
            return _POW_BP if e.op == "^" else (_MUL_BP if e.op in "*/" else _ADD_BP)
        if isinstance(e, Neg):
            return _NEG_BP
        return 100

    def render(e: Expr) -> str:
        if isinstance(e, Num):
            return f"{e.value:.17g}"
        if isinstance(e, Var):
            return e.name
        if isinstance(e, Neg):
            inner = render(e.arg)
            if prec(e.arg) < _NEG_BP:
                inner = f"({inner})"
            return f"-{inner}"
        if isinstance(e, Call):
            return f"{e.fn}({render(e.arg)})"
        lhs, rhs = render(e.left), render(e.right)
        p = prec(e)
        if prec(e.left) < p or (e.op == "^" and isinstance(e.left, BinOp) and e.left.op == "^") \
                or (e.op == "^" and isinstance(e.left, Neg)):
            lhs = f"({lhs})"
        # left-assoc ops reparse a same-precedence right child to the left,
        # so it must keep its parentheses
        right_needs = prec(e.right) < p or (
            e.op != "^" and isinstance(e.right, BinOp) and prec(e.right) == p)
        if e.op == "^" and isinstance(e.right, Neg):
            right_needs = False  # 2^-3 parses fine
        if right_needs:
            rhs = f"({rhs})"
        return f"{lhs}{e.op}{rhs}"

    return render(expr)


def ev(src, x=0.0, y=0.0):
    return eval_at(parse(src), x, y)


MATH_FUNCTIONS = {"sin": math.sin, "cos": math.cos, "exp": math.exp, "log": math.log,
                  "sqrt": math.sqrt, "abs": abs, "tanh": math.tanh}


def oracle_at(expr, x, y):
    """Independent scalar reference: one Python-float recursion per point.

    Same domain rules and messages as the array evaluator; a function of a
    non-finite argument that math refuses (sin(inf)) gives nan, which the
    field then rejects.
    """
    if isinstance(expr, Num):
        return expr.value
    if isinstance(expr, Var):
        return {"x": x, "y": y}.get(expr.name, CONSTANTS.get(expr.name))
    if isinstance(expr, Neg):
        return -oracle_at(expr.arg, x, y)
    if isinstance(expr, Call):
        v = oracle_at(expr.arg, x, y)
        if expr.fn == "log" and v <= 0.0:
            raise ValueError(f"log of non-positive value {v:.6g}")
        if expr.fn == "sqrt" and v < 0.0:
            raise ValueError(f"sqrt of negative value {v:.6g}")
        try:
            return float(MATH_FUNCTIONS[expr.fn](v))
        except OverflowError:
            raise ValueError(f"{expr.fn} overflow at argument {v:.6g}") from None
        except ValueError:
            return math.nan
    a = oracle_at(expr.left, x, y)
    b = oracle_at(expr.right, x, y)
    if expr.op == "+":
        return a + b
    if expr.op == "-":
        return a - b
    if expr.op == "*":
        return a * b
    if expr.op == "/":
        if b == 0.0:
            raise ValueError("division by zero")
        return a / b
    if a == 0.0 and b < 0.0:
        raise ValueError("zero raised to a negative power")
    try:
        r = a ** b
    except OverflowError:
        r = math.inf
    if isinstance(r, complex) or not math.isfinite(r):
        raise ValueError(f"power {a:.6g}^{b:.6g} is not a finite real")
    return r


def oracle_field(expr, grid):
    """Values at every node in row-major order, or the ValueError text of the first failing node."""
    X, Y = grid.node_coords()
    values = []
    for x, y in zip(X.reshape(-1).tolist(), Y.reshape(-1).tolist()):
        try:
            values.append(oracle_at(expr, x, y))
        except ValueError as err:
            return f"{err} at node ({x:.17g}, {y:.17g})"
    return np.array(values)


def random_tree(rng, depth, fns=("sin", "cos", "exp", "abs", "tanh")):
    """Random expression tree over x, y and the integers 1-4."""
    if depth == 0 or rng.uniform() < 0.3:
        return Var("xy"[rng.integers(0, 2)]) if rng.uniform() < 0.5 \
            else Num(float(rng.integers(1, 5)))
    r = rng.uniform()
    if r < 0.2:
        return Neg(random_tree(rng, depth - 1, fns))
    if r < 0.4:
        return Call(fns[rng.integers(0, len(fns))], random_tree(rng, depth - 1, fns))
    op = "+-*/^"[rng.integers(0, 5)]
    return BinOp(op, random_tree(rng, depth - 1, fns), random_tree(rng, depth - 1, fns))


def test_precedence_basics():
    assert ev("2+3*4") == 14.0
    assert ev("2*3+4") == 10.0
    assert ev("2^3^2") == 512.0           # right associative
    assert ev("6/3/2") == 1.0             # left associative
    assert ev("1-2-3") == -4.0
    assert ev("2*3^2") == 18.0


def test_unary_minus_binds_looser_than_power():
    assert ev("-x^2", x=3.0) == -9.0
    assert ev("(-x)^2", x=3.0) == 9.0
    assert ev("2^-3") == 0.125
    assert ev("-x*y", x=2.0, y=5.0) == -10.0


def test_constants_and_functions():
    assert ev("pi") == pytest.approx(math.pi)
    assert ev("e") == pytest.approx(math.e)
    assert ev("sin(pi/2)") == pytest.approx(1.0)
    assert ev("cos(0)") == 1.0
    assert ev("exp(1)") == pytest.approx(math.e)
    assert ev("log(e)") == pytest.approx(1.0)
    assert ev("sqrt(2)^2") == pytest.approx(2.0)
    assert ev("abs(-3)") == 3.0
    assert ev("tanh(0)") == 0.0
    assert ev("1.5e2") == 150.0
    assert ev(".5+1.") == 1.5


def test_unbalanced_paren_offset():
    with pytest.raises(ExprError, match=r"^missing '\)' for '\(' at offset 3 \(offset 8\)$") as exc:
        parse("sin(pi*x")
    assert exc.value.offset == 8
    with pytest.raises(ExprError, match=r"^missing '\)' for '\(' at offset 0 \(offset 4\)$"):
        parse("(1+2")
    with pytest.raises(ExprError, match=r"^'\)' without matching '\(' \(offset 3\)$") as exc:
        parse("1+2)")
    assert exc.value.offset == 3


def test_unknown_identifier():
    with pytest.raises(ExprError, match=r"^unknown identifier 'z' \(offset 0\)$"):
        parse("z+1")
    with pytest.raises(ExprError, match=r"^unknown function 'foo' \(offset 0\)$"):
        parse("foo(3)")


def test_empty_and_unexpected():
    with pytest.raises(ExprError, match=r"^empty expression \(offset 0\)$"):
        parse("")
    with pytest.raises(ExprError, match=r"^empty expression \(offset 0\)$"):
        parse("   ")
    with pytest.raises(ExprError, match=r"^unexpected token '\*' \(offset 2\)$"):
        parse("2+*3")
    with pytest.raises(ExprError, match=r"^trailing input '2' \(offset 2\)$"):
        parse("1 2")
    with pytest.raises(ExprError, match=r"^unexpected character '\$' \(offset 1\)$"):
        parse("x$")
    with pytest.raises(ExprError, match=r"^unexpected end of input \(offset 2\)$"):
        parse("2+")


@pytest.mark.parametrize("src,char,offset", [("１+x", "１", 0), ("x*٣", "٣", 2),
                                             ("2^²", "²", 2), ("πx", "π", 0), ("xé", "é", 1)])
def test_grammar_is_ascii(src, char, offset):
    # float() reads non-ASCII decimal digits, and str.isdigit / isalpha accept them
    with pytest.raises(ExprError, match=rf"^unexpected character '{char}' \(offset {offset}\)$"):
        parse(src)


def test_unicode_whitespace_separates_tokens():
    assert parse("1\u00a0+\tx\u3000*\n2") == parse("1 + x * 2")
    with pytest.raises(ExprError, match=r"^trailing input '2' \(offset 2\)$"):
        parse("1\u20032")


def test_eval_field_constant_and_coordinates():
    g = Grid.over_rectangle(3, 1, 1.0, 1.0)
    ones = eval_field(parse("1"), g)
    assert (ones.values == 1.0).all()
    xs = eval_field(parse("x"), g)
    assert xs.values == pytest.approx([0.25, 0.5, 0.75])


def test_eval_field_domain_error_names_node():
    g = Grid.over_rectangle(3, 1, 1.0, 1.0)  # has a node at x = 0.5
    with pytest.raises(ValueError, match=r"^division by zero at node \(0.5"):
        eval_field(parse("1/(x-0.5)"), g)
    with pytest.raises(ValueError, match=r"^log of non-positive value .* at node"):
        eval_field(parse("log(x-1)"), g)
    with pytest.raises(ValueError, match=r"^sqrt of negative value .* at node"):
        eval_field(parse("sqrt(-1-x)"), g)


@pytest.mark.parametrize("src,message", [
    ("1/(x-0.5)", "division by zero at node (0.5, 0.5)"),
    ("log(x-1)", "log of non-positive value -0.75 at node (0.25, 0.5)"),
    ("sqrt(-1-x)", "sqrt of negative value -1.25 at node (0.25, 0.5)"),
    ("0^(-x)", "zero raised to a negative power at node (0.25, 0.5)"),
    ("(x-1)^0.5", "power -0.75^0.5 is not a finite real at node (0.25, 0.5)"),
    ("10^(500*x)", "power 10^375 is not a finite real at node (0.75, 0.5)"),
    ("exp(1000*x)", "exp overflow at argument 750 at node (0.75, 0.5)"),
    # the first failing node wins over a check met earlier in the walk
    ("1/(x-0.75) + log(x-0.3)", "log of non-positive value -0.05 at node (0.25, 0.5)"),
    # at one node, the check met first in the walk wins
    ("log(x-1)/(x-0.25)", "log of non-positive value -0.75 at node (0.25, 0.5)"),
])
def test_eval_field_domain_failure_kinds(src, message):
    g = Grid.over_rectangle(3, 1, 1.0, 1.0)
    with pytest.raises(ValueError) as exc:
        eval_field(parse(src), g)
    assert str(exc.value) == message
    assert oracle_field(parse(src), g) == message


def test_eval_field_overflowed_argument_is_rejected_as_non_finite():
    # the product overflows to inf unchecked; sin(inf) is nan and the field refuses it
    g = Grid.over_rectangle(3, 1, 1.0, 1.0)
    with pytest.raises(ValueError, match="non-finite"):
        eval_field(parse("sin(1e308*x*10)"), g)


def test_eval_at_is_one_point_of_the_array_evaluator():
    tree = parse("sin(pi*x)*exp(y)-x^y")
    g = Grid.over_rectangle(4, 3, 1.0, 1.0)
    X, Y = g.node_coords()
    points = [eval_at(tree, x, y) for x, y in zip(X.reshape(-1), Y.reshape(-1))]
    assert isinstance(points[0], float)
    assert points == eval_field(tree, g).values.tolist()
    with pytest.raises(ValueError, match=r"^division by zero at node \(0.5, 0.5\)$"):
        eval_at(parse("1/(x-y)"), 0.5, 0.5)


def test_algebraic_identity_on_grid():
    g = unit_grid(8)
    lhs = eval_field(parse("(x+y)^2"), g)
    rhs = eval_field(parse("x^2+2*x*y+y^2"), g)
    assert lhs.values == pytest.approx(rhs.values, rel=1e-12)


ROUNDTRIP_CASES = [
    "2+3*4",
    "-x^2",
    "x^-y",
    "(x+y)^2",
    "sin(pi*x)*cos(pi*y)",
    "1/(x-0.5)",
    "-(x+y)",
    "2^3^2",
    "x-(y-1)",
    "x/(y*2)",
    "abs(-x)+tanh(y)",
    "sqrt(x^2+y^2)",
    "1.5e-3*x",
]


@pytest.mark.parametrize("src", ROUNDTRIP_CASES)
def test_pretty_print_roundtrip(src):
    tree = parse(src)
    assert parse(to_string(tree)) == tree


def test_pretty_print_roundtrip_random(rng):
    # random trees, re-printed and re-parsed
    for _ in range(200):
        tree = random_tree(rng, 4)
        printed = to_string(tree)
        assert parse(printed) == tree, printed


def test_eval_field_matches_scalar_oracle_on_random_trees(rng):
    g = Grid.over_rectangle(5, 4, 2.0, 1.5, -0.7, 0.2)
    fns = ("sin", "cos", "exp", "log", "sqrt", "abs", "tanh")
    outcomes = {"values": 0, "domain": 0}
    for _ in range(300):
        tree = random_tree(rng, 4, fns)
        expected = oracle_field(tree, g)
        if isinstance(expected, str):
            outcomes["domain"] += 1
            with pytest.raises(ValueError) as exc:
                eval_field(tree, g)
            assert str(exc.value) == expected, to_string(tree)
        elif not np.isfinite(expected).all():
            with pytest.raises(ValueError, match="non-finite"):
                eval_field(tree, g)
        else:
            outcomes["values"] += 1
            got = eval_field(tree, g).values
            assert got == pytest.approx(expected, rel=1e-12), to_string(tree)
    assert min(outcomes.values()) > 0, outcomes


def _ulps(got, expected):
    return np.abs(got - expected) / np.spacing(np.abs(expected))


@pytest.mark.parametrize("fn,x0,lx", [
    ("sin", -10.0, 20.0), ("cos", -10.0, 20.0), ("exp", -30.0, 60.0),
    ("log", 0.0, 50.0), ("sqrt", 0.0, 50.0), ("abs", -5.0, 10.0), ("tanh", -5.0, 10.0)])
def test_single_function_within_4_ulp_of_math(fn, x0, lx):
    g = Grid.over_rectangle(500, 1, lx, 1.0, x0, 0.0)
    got = eval_field(parse(f"{fn}(x)"), g).values
    X, _ = g.node_coords()
    expected = np.array([MATH_FUNCTIONS[fn](x) for x in X.reshape(-1).tolist()])
    assert _ulps(got, expected).max() <= 4.0


@pytest.mark.parametrize("op", list("+-*/^"))
def test_single_operation_within_4_ulp_of_python(op):
    g = Grid.over_rectangle(40, 30, 7.0, 5.0, 0.05, 0.05)
    got = eval_field(parse(f"x{op}y"), g).values
    tree = BinOp(op, Var("x"), Var("y"))
    X, Y = g.node_coords()
    expected = np.array([oracle_at(tree, x, y)
                         for x, y in zip(X.reshape(-1).tolist(), Y.reshape(-1).tolist())])
    assert _ulps(got, expected).max() <= 4.0


def test_eval_field_runs_no_python_code_per_node():
    g = unit_grid(256)
    tree = parse("1 + 0.3*sin(pi*x)*sin(2*pi*y) - log(2+x)^0.5/(1+y)")
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        field = eval_field(tree, g)
    finally:
        sys.setprofile(previous)
    assert field.values.size == 65536
    assert calls < 1000  # a few per tree node (92 with numpy 2.4), none per grid node


def flat_evaluation(tree, grid):
    """The whole-array evaluation on the flattened node coordinates, the ValueError
    text of its first failing node in place of values."""
    X, Y = grid.node_coords()
    try:
        return _evaluate(tree, X.reshape(-1), Y.reshape(-1))
    except ValueError as err:
        return str(err)


BROADCAST_EXACT = [
    "sin(pi*x)*sin(2*pi*y) + 0.3*cos(3*x - y)/(2 + abs(x - 0.5))",
    "sqrt(1 + x*y) - abs(y - x)/3 + -x*(y + e)",
    "1 + 0.1*sin(1*pi*x)*sin(2*pi*y) - 0.05*sin(2*pi*x)*sin(1*pi*y)",
    "cos(y)/sqrt(2 + x)*sin(x*x + y)", "2", "pi", "y", "-x",
]
BROADCAST_ULP = ["exp(x)*log(1 + y) + tanh(x - y)", "(1 + x)^2.5*y^0.5 + x^y",
                 "exp(-x*y) + log(2 + x)/tanh(1 + y)", "2^x*3^-y"]


@pytest.mark.parametrize("nx,ny", [(1, 1), (7, 5), (40, 33)])
def test_broadcast_evaluation_matches_flat_evaluation(nx, ny):
    # x-only and y-only subtrees run on a row and a column of values; + - * /,
    # sin, cos, sqrt and abs keep their bits, exp, log, tanh and ^ stay within 2 ulp
    g = Grid.over_rectangle(nx, ny, 1.3, 0.8, 0.1, 0.2)
    for src in BROADCAST_EXACT:
        assert np.array_equal(eval_field(parse(src), g).values,
                              flat_evaluation(parse(src), g)), src
    for src in BROADCAST_ULP:
        got = eval_field(parse(src), g).values
        assert _ulps(got, flat_evaluation(parse(src), g)).max() <= 2.0, src


@pytest.mark.parametrize("src", [
    "log(x - 0.5) + sqrt(y - 0.5)", "sqrt(y - 0.5) + log(x - 0.5)", "1/(y - 0.5)",
    "1/(x - y)", "log(0.3 - x*y)", "(x - y)^0.5", "log(-1) + x", "0^(-y)",
    "exp(1000*y) + x"])
def test_broadcast_domain_error_names_the_first_node_in_row_major_order(src):
    g = Grid.over_rectangle(5, 3, 1.0, 1.0)  # nodes at x = i/6, y = j/4
    with pytest.raises(ValueError) as exc:
        eval_field(parse(src), g)
    assert str(exc.value) == flat_evaluation(parse(src), g) == oracle_field(parse(src), g)
