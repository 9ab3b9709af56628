import ast
import importlib
import json
import math
import os
import pkgutil
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import keysec as ks
from keysec import KeyDistribution, numerics
from keysec.dist import ClassicalProbeModel, Lattice
from keysec.ecpa import CodeEnsemble, random_parity_check
from keysec.numerics import (
    CAPS,
    MODES,
    SLACKS,
    ResourceLimitError,
    ValidationError,
    _shown,
    check_cap,
    check_int,
    check_key_bits,
    check_mode,
    check_scalar,
    format_number,
    infer_mode,
    parse_int,
    parse_number,
    resolve_mode,
    scalar_mode,
    slack,
)


def test_parse_number_rational_forms():
    assert parse_number("3/10", "rational") == Fraction(3, 10)
    assert parse_number("0.3", "rational") == Fraction(3, 10)
    assert parse_number("2", "rational") == 2
    assert parse_number(" -1/4 ", "rational") == Fraction(-1, 4)
    assert parse_number("-1e400", "rational") == -(10**400)  # no float range to leave


def test_parse_number_float_accepts_fraction_notation():
    assert parse_number("1/4", "float") == 0.25
    assert parse_number("1e-3", "float") == 1e-3
    assert parse_number("1e308", "float") == 1e308


@pytest.mark.parametrize("bad", ["", "abc", "1/0", "0x10"])
def test_parse_number_rejects_garbage(bad):
    with pytest.raises(ValidationError):
        parse_number(bad, "rational")
    with pytest.raises(ValidationError):
        parse_number(bad, "float")


@pytest.mark.parametrize("text", ["nan", "inf", "-inf", "Infinity", "1e400", "-1e400", "1" + "0" * 400 + "/3"],
                         ids=lambda text: text[:6])
def test_parse_number_refuses_non_finite_floats(text):
    refusal = rf"^number {re.escape(repr(text))} (must be finite|is outside the float range)"
    with pytest.raises(ValidationError, match=refusal):
        parse_number(text, "float")
    if "e" not in text and "/" not in text:
        with pytest.raises(ValidationError, match="cannot parse"):
            parse_number(text, "rational")


def test_decimal_exponents_are_read_before_the_fraction_is_built():
    limit = CAPS["decimal_digits"].limit
    assert parse_number("1e400", "rational") == 10**400
    assert parse_number(f"1e{limit - 1}", "rational") == 10 ** (limit - 1)  # 1 + 3999 digits: at the cap
    assert parse_number(f"-2.5E-{limit - 4}", "rational") == Fraction(-25, 10 ** (limit - 3))  # 4 + 3996
    assert check_scalar(f"1e-{limit - 1}", "budget") == Fraction(1, 10 ** (limit - 1))
    refusal = r"^number '{}' needs {} digits, over the decimal_digits cap of 4000 digits$"
    for text, digits in ((f"1e{limit}", limit + 1), ("-1e5000", 5002), ("1.5e-4000", 4003), ("1E+1_0000", 10001),
                         ("9999999999999999999e009223372036854775808", 19 + 9223372036854775808)):
        with pytest.raises(ResourceLimitError, match=refusal.format(re.escape(text), digits)):
            parse_number(text, "rational")
    with pytest.raises(ResourceLimitError, match=r"^budget '1e-5000' needs 5001 digits"):
        check_scalar("1e-5000", "budget", mode="float")  # a string is read exactly, whatever the mode
    # float mode reads a decimal with float(); it never builds the Fraction
    assert parse_number("1e-5000", "float") == 0.0
    with pytest.raises(ValidationError, match="must be finite"):
        parse_number("1e5000", "float")
    # a text that is no decimal is refused by the parser, whatever its "exponent"
    for text in ("1e 5000", "xe5000", "1/2e5000", "1e" + "9" * 5000):
        with pytest.raises(ValidationError, match="cannot parse"):
            parse_number(text, "rational")


def test_huge_counts_are_refused_as_outside_the_float_range():
    huge = int("9" * 400)
    for what, call in (
        ("block length", lambda: ks.ec_leak(1.2, huge, 0.1)),
        ("key length", lambda: ks.required_d_for_near_uniform(huge)),
        ("number of uses", lambda: ks.degraded_epsilon(0.1, 0.1, 0.01, huge)),
        ("number of uses", lambda: ks.degraded_epsilon(Fraction(1, 10), Fraction(1, 10), 0.01, huge)),
    ):
        with pytest.raises(ValidationError, match=f"^{what} is outside the float range$"):
            call()
    exact = ks.degraded_epsilon(Fraction(1, 10), Fraction(1, 10), Fraction(1, 100), huge)
    assert exact == (Fraction(1, 5), Fraction(1))
    assert ks.degraded_epsilon(0.1, 0.1, 0.01, 3) == (0.1 + 0.1, 0.1 + 3 * 0.01)
    assert ks.ec_leak(1.2, 1000, 0.1) == 1.2 * 1000 * ks.binary_entropy(0.1)
    assert ks.required_d_for_near_uniform(128) == -128 * math.log10(2.0)


def test_finite_inputs_with_an_infinite_result_are_refused_by_name():
    with pytest.raises(ValidationError, match=r"^reconciliation disclosure must be finite, got inf$"):
        ks.ec_leak(2, 10**308, 0.5)
    with pytest.raises(ValidationError, match=r"^required average level log10 d must be finite, got -inf$"):
        ks.guarantee_gap(-1e308, -1e308, "1/3")
    # finite results keep their value
    assert ks.ec_leak(2, 10**307, 0.5) == 2.0 * 1e307
    assert ks.guarantee_gap(-1e308, -1e307, "1/3") == -1e308 - -1e307 / (1 / 3)


def test_each_refusal_class_carries_its_label_and_exit_code():
    classes = (ValidationError, numerics.InfeasibleError, numerics.ResourceLimitError)
    assert [(c.label, c.exit_code) for c in classes] == [("validation error", 2), ("infeasible", 2), ("resource limit", 3)]


def test_infer_mode():
    assert infer_mode([Fraction(1, 2), 1]) == "rational"
    assert infer_mode([0.5, 0.5]) == "float"
    with pytest.raises(ValidationError):
        infer_mode([0.5, Fraction(1, 2)])
    with pytest.raises(ValidationError):
        infer_mode(["0.5"])
    # bools are not numbers here
    with pytest.raises(ValidationError):
        infer_mode([True, False])
    # an unsupported entry is named even when the others mix modes; any iterable is read
    with pytest.raises(ValidationError, match="unsupported numeric entry 'x'"):
        infer_mode([0.5, Fraction(1, 2), "x"])
    assert infer_mode(iter([Fraction(1, 3), 2])) == "rational"
    assert infer_mode([]) == "float"


@pytest.mark.parametrize("t, kind", [
    (float, "float"), (int, "rational"), (Fraction, "rational"), (bool, None),
    (type("FloatSub", (float,), {}), "float"), (type("IntSub", (int,), {}), "rational"),
    (type("FractionSub", (Fraction,), {}), "rational"),
    (np.float64, "float"), (np.float32, None), (np.int64, None), (np.bool_, None),
    (complex, None), (str, None), (type(None), None),
], ids=lambda v: getattr(v, "__name__", repr(v)))
def test_kind_of_exact_types_subclasses_bools_and_numpy_scalars(t, kind):
    assert numerics._kind(t) == kind


def test_resolve_mode_env(monkeypatch):
    monkeypatch.delenv("KEYSEC_NUMERIC_MODE", raising=False)
    assert resolve_mode(None) == "float"
    monkeypatch.setenv("KEYSEC_NUMERIC_MODE", "rational")
    assert resolve_mode(None) == "rational"
    assert resolve_mode("float") == "float"  # explicit argument wins
    monkeypatch.setenv("KEYSEC_NUMERIC_MODE", "bogus")
    with pytest.raises(ValidationError):
        resolve_mode(None)


def test_format_number():
    assert format_number(Fraction(1, 3)) == "1/3"
    assert format_number(2) == "2/1"
    assert format_number(0.25) == "0.25"


def test_exact_sum_stays_exact():
    # probability vectors are totalled inside the law containers
    third = Fraction(1, 3)
    total = KeyDistribution(2, [third, third, third, 0]).prob_of(range(4))
    assert total == 1
    assert isinstance(total, Fraction)
    # float path is compensated: ten 0.1 add up to 0.9999999999999999 left to right
    assert sum([0.1] * 10) != 1.0
    assert KeyDistribution(4, [0.1] * 10 + [0.0] * 6).prob_of(range(16)) == 1.0


def test_check_probability_vector():
    # the checks run when a law is built; a 1-bit key takes 2-entry vectors
    assert KeyDistribution(1, [Fraction(1, 2), Fraction(1, 2)]).mode == "rational"
    assert KeyDistribution(1, [0.5, 0.5 + 1e-12]).mode == "float"
    with pytest.raises(ValidationError):
        KeyDistribution(1, [])
    with pytest.raises(ValidationError):
        KeyDistribution(1, [Fraction(1, 2), Fraction(1, 3)])
    with pytest.raises(ValidationError):
        KeyDistribution(1, [0.7, 0.7])
    with pytest.raises(ValidationError):
        KeyDistribution(1, [Fraction(-1, 4), Fraction(5, 4)])


def test_check_scalar_keeps_or_converts_the_mode():
    for value, expected in ((3, Fraction(3)), (Fraction(1, 3), Fraction(1, 3)), (" 3/10 ", Fraction(3, 10)),
                            ("0.1", Fraction(1, 10)), ("1e-3", Fraction(1, 1000))):
        got = check_scalar(value, "x")
        assert (type(got), got) == (Fraction, expected)
    assert type(check_scalar(0.25, "x")) is float
    assert type(check_scalar(np.float64(0.25), "x")) is float
    assert check_scalar(np.int64(3), "x") == Fraction(3)
    assert check_scalar(-0.0, "x", lo=0).hex() == "0x0.0p+0"  # a float zero reads as +0.0
    # mode converts: exactly to rational, correctly rounded to float
    assert check_scalar(0.1, "x", mode="rational") == Fraction(0.1)
    assert check_scalar(Fraction(1, 3), "x", mode="float") == 1 / 3
    assert check_scalar("0.1", "x", mode="float") == 0.1
    assert scalar_mode(Fraction(1, 2), Fraction(1)) == "rational"
    assert scalar_mode(Fraction(1, 2), 0.5) == "float"


def test_scalar_mode_counts_a_law_or_probe_model_by_its_mode():
    exact, floats = KeyDistribution.uniform(1, mode="rational"), KeyDistribution.uniform(1)
    assert scalar_mode(exact, exact) == "rational" and scalar_mode(exact, floats) == "float"
    assert scalar_mode(exact, Fraction(1, 3), 2) == "rational"
    assert scalar_mode(exact, 0.5) == "float" and scalar_mode(floats, Fraction(1, 3)) == "float"
    model = ks.ClassicalProbeModel(exact, [[Fraction(1, 2)] * 2] * 2)
    assert scalar_mode(model, exact) == "rational" and scalar_mode(model, floats) == "float"


#: every library call that takes a mode by name, called with a given mode
NAMED_MODE_CALLS = {
    "check_scalar": lambda mode: check_scalar(1, "x", mode=mode),
    "parse_number": lambda mode: parse_number("1/3", mode),
    "uniform": lambda mode: KeyDistribution.uniform(2, mode=mode),
    "point_mass": lambda mode: KeyDistribution.point_mass(2, mode=mode),
    "from_json exact entries": lambda mode: KeyDistribution.from_json('["1/2", "1/2"]', mode=mode),
    "from_json float entries": lambda mode: KeyDistribution.from_json("[0.5, 0.5]", mode=mode),
    "parse_security_level log10": lambda mode: ks.budget.parse_security_level("log10:-3", mode),
    "parse_security_level decimal": lambda mode: ks.budget.parse_security_level("1e-3", mode),
}


@pytest.mark.parametrize("mode", ["exact", "Rational", ""])
@pytest.mark.parametrize("call", list(NAMED_MODE_CALLS))
def test_a_mode_name_outside_modes_is_refused_everywhere(call, mode):
    refusal = f"unknown numeric mode {mode!r}; expected one of ('rational', 'float')"
    with pytest.raises(ValidationError, match=f"^{re.escape(refusal)}$"):
        NAMED_MODE_CALLS[call](mode)


def test_a_mode_of_none_keeps_its_meaning_where_it_has_one():
    # check_scalar keeps the value's own kind, and from_json reads the mode from the text
    assert type(check_scalar(1, "x", mode=None)) is Fraction and type(check_scalar(0.5, "x", mode=None)) is float
    assert KeyDistribution.from_json('["1/2", "1/2"]').mode == "rational"
    assert KeyDistribution.from_json('["0.5", "0.5"]').mode == KeyDistribution.from_json("[0.5, 0.5]").mode == "float"
    # elsewhere None names no mode
    for call in ("parse_number", "uniform", "point_mass", "parse_security_level log10", "parse_security_level decimal"):
        with pytest.raises(ValidationError, match="^unknown numeric mode None;"):
            NAMED_MODE_CALLS[call](None)
    for mode in MODES:
        assert check_mode(mode) == mode
        assert {type(NAMED_MODE_CALLS[call](mode)) for call in ("check_scalar", "parse_number")} == {
            Fraction if mode == "rational" else float}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float64("nan"), True, np.bool_(True), None, "zz",
                                 "1/0", "nan", [1], 1j])
def test_check_scalar_refuses_non_numbers_naming_the_argument(bad):
    with pytest.raises(ValidationError, match="crossover"):
        check_scalar(bad, "crossover")
    with pytest.raises(ValidationError, match="crossover"):
        check_scalar(bad, "crossover", mode="rational")


def test_check_scalar_range_checks_closed_and_open_bounds():
    assert check_scalar(0, "x", lo=0, hi=1) == 0
    assert check_scalar(1.0, "x", lo=0, hi=1) == 1.0
    for kwargs, bad in (
        ({"lo": 0}, Fraction(-1, 10**13)),
        ({"lo": 0, "lo_open": True}, 0.0),
        ({"hi": 0, "hi_open": True}, Fraction(0)),
        ({"lo": 0, "hi": Fraction(1, 2)}, 0.5000000000001),
        ({"lo": 0, "hi": 1, "hi_open": True}, 1),
    ):
        with pytest.raises(ValidationError, match=r"^budget must be"):
            check_scalar(bad, "budget", **kwargs)
    with pytest.raises(ValidationError, match=r"must be in \(0, 1\], got 0"):
        check_scalar(0, "weight", lo=0, hi=1, lo_open=True)
    # the range is checked on the converted value; a huge Fraction does not fit a float
    with pytest.raises(ValidationError, match="float range"):
        check_scalar(Fraction(10**400), "level", mode="float")


#: every cap's limit and error class (CLI exit 3 for ResourceLimitError, 2 for ValidationError)
CAP_CONTRACT = {
    "key_bits": (24, ResourceLimitError),
    "field_bits": (10, ResourceLimitError),
    "mac_entry_bits": (20, ResourceLimitError),
    "data_bits": (12, ResourceLimitError),
    "matrix_bits": (16, ValidationError),
    "state_dim": (64, ValidationError),
    "decimal_digits": (4000, ResourceLimitError),
    "denominator_bits": (1 << 14, ResourceLimitError),
}


@pytest.mark.parametrize("name", sorted(CAPS))
def test_every_cap_accepts_its_limit_and_refuses_one_more(name):
    cap = CAPS[name]
    assert (cap.limit, cap.error) == CAP_CONTRACT[name]
    assert check_cap(name, cap.limit, "request") == cap.limit
    expected = rf"^request needs {cap.limit + 1} {cap.unit}, over the {name} cap of {cap.limit} {cap.unit}$"
    with pytest.raises(cap.error, match=expected):
        check_cap(name, cap.limit + 1, "request")
    assert set(CAPS) == set(CAP_CONTRACT)


def test_the_readme_cap_table_is_caps():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| `(\w+)` \| (\d+)\b[^|]*\|[^|]*\| (\d) \|$", readme, re.MULTILINE)
    assert sorted(name for name, _, _ in rows) == sorted(CAPS)
    for name, limit, exit_code in rows:
        assert int(limit) == CAPS[name].limit, name
        assert int(exit_code) == {ResourceLimitError: 3, ValidationError: 2}[CAPS[name].error], name


def test_the_readme_slack_table_is_slacks():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| `(\w+)` \| (\d+e-\d+) \| ([^|]+) \|$", readme, re.MULTILINE)
    assert [name for name, _, _ in rows] == list(SLACKS)
    for name, size, reason in rows:
        assert float(size) == SLACKS[name].size and reason == SLACKS[name].reason, name


def test_a_slack_is_zero_on_exact_values_and_its_size_on_floats():
    law = KeyDistribution(1, [Fraction(1, 4), Fraction(3, 4)])
    model = ClassicalProbeModel(law, [[Fraction(1, 2)] * 2, [1, 0]])
    float_law = KeyDistribution.uniform(1)
    float_model = ClassicalProbeModel(float_law, [[1.0]] * 2)
    for name, row in SLACKS.items():
        for exact in ([Fraction(1, 3)], [0], [7, Fraction(1, 2)], [law], [model, law, 1]):
            assert slack(name, *exact) == 0, (name, exact)
        for inexact in ([0.5], [Fraction(1, 3), 0.5], [float_law], [law, float_law], [float_model]):
            assert slack(name, *inexact) == row.size, (name, inexact)


def test_a_mode_name_never_loosens_exact_validation():
    """``scalar_mode("rational")`` is float, so a mode name is refused as a value; a total
    1e-12 off 1, far inside the float slack, is refused by every exact validation."""
    for values in (["rational"], [Fraction(1), "rational"], ["float"]):
        with pytest.raises(TypeError, match="^slack 'total' reads the compared values, not a mode name$"):
            slack("total", *values)
    off = Fraction(1, 2) + Fraction(1, 10**12)
    with pytest.raises(ValidationError, match=r"^distribution sums to 1000000000001/1000000000000, not 1$"):
        KeyDistribution(1, [off, Fraction(1, 2)])
    with pytest.raises(ValidationError, match=r"^distribution sums to 1000000000001/1000000000000, not 1$"):
        KeyDistribution.from_json('["500000000001/1000000000000", "1/2"]', mode="rational")
    with pytest.raises(ValidationError, match=r"^conditional row 1 sums to 1000000000001/1000000000000, not 1$"):
        ClassicalProbeModel(KeyDistribution.uniform(1, mode="rational"), [[1, 0], [off, Fraction(1, 2)]])
    with pytest.raises(ValidationError, match=r"^ensemble weights sums to 1000000000001/1000000000000, not 1$"):
        CodeEnsemble([random_parity_check(4, 2, random.Random(0))] * 2, (off, Fraction(1, 2)))
    with pytest.raises(ValidationError, match=r"^distribution entry 0 is Fraction\(-1, 10{12}\), outside \[0, 1\]$"):
        KeyDistribution(1, [-Fraction(1, 10**12), 1 + Fraction(1, 10**12)])


def test_refusals_cut_integers_past_fifty_digits():
    assert _shown(10**50 - 1) == "9" * 50 and _shown(-(10**49)) == str(-(10**49))
    assert _shown(10**50 + 7) == f"1{'0' * 49}...(51 digits)"
    assert _shown(-(3 * 10**5000)) == f"-3{'0' * 49}...(5001 digits)"  # str() refuses past 4,300 digits
    assert _shown(Fraction(2**200, 3)) == f"{str(2**200)[:50]}...(61 digits)/3"
    assert _shown(Fraction(3, 2), repr) == "Fraction(3, 2)" and _shown(Fraction(4)) == "4"
    assert _shown(1.5, repr) == "1.5" and _shown(0) == "0"
    with pytest.raises(ValidationError, match=r"^weight must be at most 1, got 1{50}\.\.\.\(8000 digits\)/1"):
        check_scalar("1" * 4000 + "." + "1" * 4000, "weight", hi=1)


def test_refusals_cut_text_past_500_characters():
    assert _shown("z" * 498, repr) == repr("z" * 498)  # 500 characters with its quotes: kept whole
    assert _shown("z" * 499, repr) == f"'{'z' * 499}...(501 characters)"
    with pytest.raises(ValidationError, match=r"^cannot parse 'z{499}\.\.\.\(100002 characters\) as a rational number$"):
        parse_number("z" * 100_000, "rational")
    # the one integer refusal, worded by parse_int with the caller's name for the value
    with pytest.raises(ValidationError, match=r"^event member must be an integer, got 'x'$"):
        parse_int("x", "event member")


_SOURCES = sorted((Path(ks.__file__).resolve().parent).glob("*.py"))


@pytest.mark.parametrize("path", _SOURCES, ids=lambda path: path.name)
def test_only_numerics_knows_a_cap(path):
    if path.name == "numerics.py":
        return
    tree = ast.parse(path.read_text(encoding="utf-8"))
    raised = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
              and getattr(node.func, "id", getattr(node.func, "attr", None)) == "ResourceLimitError"]
    assert not raised, f"{path.name} constructs ResourceLimitError at lines {raised}"
    constants = [target.id for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))
                 for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
                 if isinstance(target, ast.Name) and re.search(r"MAX|CAP|ENUM_BITS", target.id)]
    assert not constants, f"{path.name} declares cap constants {constants}"


#: names a module imports only to keep them at their old address, pinned by
#: `test_a_scalar_formula_moved_to_numerics_keeps_its_old_address`
_REEXPORTS = {("dist.py", "binary_entropy"), ("ecpa.py", "ec_leak"), ("mac.py", "degraded_epsilon"),
              ("mac.py", "DegradedLevels")}


@pytest.mark.parametrize("path", _SOURCES, ids=lambda path: path.name)
def test_every_top_level_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {(alias.asname or alias.name).split(".")[0] for node in tree.body
                if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
                for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name for name in imported - used if (path.name, name) not in _REEXPORTS}
    assert not unused, f"{path.name} imports {sorted(unused)} and never uses them"


#: float literals below 1e-3 outside `SLACKS` that are no slack, by the expression holding them
_NOT_SLACKS = {
    ("verify.py", "rng.random() + 1e-12"): "a random float law's draw, kept above 0",
    ("verify.py", "rng.random() + 1e-09"): "a random probe row's draw, kept above 0",
}


def test_no_float_slack_is_written_outside_numerics_slacks():
    found = []
    for path in _SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        table = [node for node in tree.body if isinstance(node, ast.Assign) and path.name == "numerics.py"
                 and [getattr(target, "id", None) for target in node.targets] == ["SLACKS"]]
        skipped = {id(node) for node in ast.walk(table[0])} if table else set()
        found += [((path.name, ast.unparse(parent)), node.lineno) for parent in ast.walk(tree)
                  for node in ast.iter_child_nodes(parent) if id(node) not in skipped
                  and isinstance(node, ast.Constant) and type(node.value) is float and 0 < node.value < 1e-3]
    assert sorted(where for where, _ in found) == sorted(_NOT_SLACKS), found


def _enclosing_functions(tree, pattern: str):
    """The name of the function around each expression of ``tree`` written as ``pattern``."""
    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr) and ast.unparse(child) == pattern:
                yield where
            yield from visit(child, child.name if isinstance(child, ast.FunctionDef) else where)
    return list(visit(tree, None))


def test_only_the_in_order_total_calls_np_add_accumulate():
    # a float total added left to right is written once, in `dist._in_order`
    found = [(path.name, name) for path in _SOURCES
             for name in _enclosing_functions(ast.parse(path.read_text(encoding="utf-8")), "np.add.accumulate")]
    assert found == [("dist.py", "_in_order")]


def _per_pass(node) -> list:
    """The parts of a loop or a comprehension evaluated once per pass (all but a comprehension's
    first iterable and a loop's iterable); empty for any other node."""
    if isinstance(node, (ast.For, ast.While)):
        return [*node.body, *([node.test] if isinstance(node, ast.While) else [])]
    if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
        first, *rest = node.generators
        return [*(getattr(node, part) for part in ("elt", "key", "value") if hasattr(node, part)), *first.ifs, *rest]
    return []


def test_no_float_total_or_entropy_is_taken_once_per_pass_of_a_loop():
    # `_total`, `_in_order` and `_shannon_bits` take every row of a table in one call, so a per-row
    # or per-outcome total is one call over the table, not one call per row in a Python loop
    found = [(path.name, call.lineno) for path in _SOURCES for loop in ast.walk(ast.parse(path.read_text("utf-8")))
             for part in _per_pass(loop) for call in ast.walk(part) if isinstance(call, ast.Call)
             and ast.unparse(call.func) in ("_total", "_in_order", "_shannon_bits")]
    assert found == []


def _public_constructions(node, where=None, owner=None):
    """(function, call) for each call of the public `KeyDistribution` constructor below ``node``: by name, or
    as ``cls(...)`` inside ``class KeyDistribution`` (other classes call their own ``cls``)."""
    names = ("KeyDistribution", "cls") if owner == "KeyDistribution" else ("KeyDistribution",)
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call) and ast.unparse(child.func) in names:
            yield where, child
        yield from _public_constructions(child, child.name if isinstance(child, ast.FunctionDef) else where,
                                         child.name if isinstance(child, ast.ClassDef) else owner)


#: every call of the public constructor in `src/`, by (module, function): each checks a law it was handed
#: or one drawn at random, never one a kernel computed
PUBLIC_CONSTRUCTIONS = [
    ("dist.py", "from_json"), ("dist.py", "from_json"),  # input text, a plain exact array and any other
    ("ecpa.py", "mixture_posterior"),  # a float posterior with a term below 0, from a weight within slack below 0
    ("extremal.py", "check_mixture_decomposition"),  # the float residual: its in-order total may miss the slack
    ("verify.py", "_check_mac_uniform"), ("verify.py", "_check_mac_uniform"),  # the invariant suite's inputs
    ("verify.py", "_random_float_dist"), ("verify.py", "_random_rational_dist"),
]


def test_no_kernel_builds_a_law_through_the_public_check():
    # a law keysec computes is stored by `KeyDistribution._built` in both modes; the public constructor
    # re-checks every entry and the total, and `KeyDistribution(n, Lattice(...))` would re-check numerators
    # a kernel has just computed
    calls = [(path.name, where, call) for path in _SOURCES
             for where, call in _public_constructions(ast.parse(path.read_text("utf-8")))]
    assert sorted((name, where) for name, where, _ in calls) == sorted(PUBLIC_CONSTRUCTIONS)
    lattices = [where for _, where, call in calls for arg in call.args for inner in ast.walk(arg)
                if isinstance(inner, ast.Call) and ast.unparse(inner.func) == "Lattice"]
    assert lattices == []


def _broad_handlers(node, where):
    """The name of the function around each ``except`` that catches every exception below ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ExceptHandler):
            caught = {name.id for name in ast.walk(child.type) if isinstance(name, ast.Name)} if child.type else {""}
            if caught & {"", "Exception", "BaseException"}:
                yield where
        yield from _broad_handlers(child, child.name if isinstance(child, ast.FunctionDef) else where)


def test_only_the_two_failure_boundaries_catch_every_exception():
    broad = [(path.name, name) for path in _SOURCES
             for name in _broad_handlers(ast.parse(path.read_text(encoding="utf-8")), None)]
    assert sorted(broad) == [("cli.py", "main"), ("verify.py", "run_invariant_suite")]


def test_check_key_bits_caps_dense_laws_before_allocating():
    limit = CAPS["key_bits"].limit
    refusal = f"needs {limit + 1} bits, over the key_bits cap of {limit} bits"
    assert check_key_bits(1) == 1
    assert check_key_bits(limit) == limit
    for bad in (0, -1, 2.0, "3", None):
        with pytest.raises(ValidationError, match="key length"):
            check_key_bits(bad)
    # each of these checks the bit length before it builds 2^n entries
    for build in (
        lambda n: check_key_bits(n),
        lambda n: KeyDistribution(n, [0.5, 0.5]),
        lambda n: KeyDistribution.uniform(n, mode="rational"),
        lambda n: KeyDistribution.point_mass(n),
        lambda n: ks.construct_spike(n, Fraction(1, 8)),
        lambda n: ks.construct_low_info_high_guess(n, 0.5),
        lambda n: ks.max_conditional_deviation(n, Fraction(1, 8), ks.EventSpec([0, 1]), ks.EventSpec([0])),
        lambda n: ks.conditional_breach_witness(n, 0.1, ks.KeySplit(1, max(n - 1, 1))),
    ):
        with pytest.raises(ResourceLimitError, match=refusal):
            build(limit + 1)
        with pytest.raises(ValidationError, match="key length"):
            build(-1)


_CV = ks.CvParams(1.5, 0.9, 0.05, 0.1)
_CODES = [ks.ParityCheckMatrix(4, [0b0111, 0b1011])]

#: every library argument read by check_scalar, as (site, call with the value x)
SCALAR_SITES = {
    "spike eps": lambda x: ks.construct_spike(3, x),
    "low-info lam": lambda x: ks.construct_low_info_high_guess(4, x),
    "mixture lam (float law)": lambda x: ks.check_mixture_decomposition(KeyDistribution.uniform(2), x),
    "mixture lam (exact law)": lambda x: ks.check_mixture_decomposition(KeyDistribution.uniform(2, "rational"), x),
    "deviation eps": lambda x: ks.max_conditional_deviation(3, x, ks.EventSpec([0, 1]), ks.EventSpec([0])),
    "breach eps": lambda x: ks.conditional_breach_witness(3, x, ks.KeySplit(1, 2)),
    "LogBudget level": lambda x: ks.LogBudget(x),
    "exponent": lambda x: ks.as_markov_exponent(x),
    "markov mean": lambda x: ks.markov_tail_bound(x, 1),
    "markov threshold": lambda x: ks.markov_tail_bound(0.5, x),
    "accumulate level": lambda x: ks.accumulated_failure(x, 10, 60),
    "accumulate rate": lambda x: ks.accumulated_failure(-9, x, 60),
    "accumulate seconds": lambda x: ks.accumulated_failure(-9, 10, x),
    "near-uniform level": lambda x: ks.near_uniform_bits(x),
    "gap current": lambda x: ks.guarantee_gap(x, -15, "1/3"),
    "gap target": lambda x: ks.guarantee_gap(-9, x, "1/3"),
    "degrade eps": lambda x: ks.degraded_epsilon(x, 0.01, 0.01, 3),
    "degrade eps_h": lambda x: ks.degraded_epsilon(0.1, x, 0.01, 3),
    "degrade eps_t": lambda x: ks.degraded_epsilon(0.1, 0.01, x, 3),
    "channel crossover": lambda x: ks.EveChannel(x),
    "ec_leak f": lambda x: ks.ec_leak(x, 100, 0.05),
    "ec_leak q": lambda x: ks.ec_leak(1.2, 100, x),
    "binary entropy q": lambda x: ks.binary_entropy(x),
    "CvParams s": lambda x: ks.CvParams(x, 0.9, 0.05, 0.1),
    "CvParams t": lambda x: ks.CvParams(1.5, x, 0.05, 0.1),
    "CvParams a": lambda x: ks.CvParams(1.5, 0.9, x, 0.1),
    "CvParams b": lambda x: ks.CvParams(1.5, 0.9, 0.05, x),
    "verdict loss threshold": lambda x: ks.detectability_verdict(_CV, loss_threshold=x),
    "verdict masking threshold": lambda x: ks.detectability_verdict(_CV, masking_threshold=x),
    "tradeoff shift": lambda x: ks.false_alarm_tradeoff(_CV, [1.0], x),
    "tradeoff grid threshold": lambda x: ks.false_alarm_tradeoff(_CV, [1.0, x], 0.4),
    "posterior crossover": lambda x: ks.mixture_posterior(ks.CodeEnsemble(_CODES, [1.0]), "0110", ks.EveChannel(x)),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("site", sorted(SCALAR_SITES))
def test_every_scalar_site_refuses_non_finite_values(site, value):
    with pytest.raises(ValidationError, match="finite"):
        SCALAR_SITES[site](value)


#: every library count, size or index read by check_int, as (site, call with the value x)
_ONE_BIT_CODES = ks.CodeEnsemble([ks.ParityCheckMatrix(1, [1])] * 2, (Fraction(1, 2), Fraction(1, 2)))

INTEGER_SITES = {
    "key length": lambda x: KeyDistribution.uniform(x),
    "near-uniform key length": lambda x: ks.required_d_for_near_uniform(x),
    "MAC uses": lambda x: ks.MacKeyModel(KeyDistribution.uniform(2), None, x),
    "degrade uses": lambda x: ks.degraded_epsilon(0.1, 0.01, 0.01, x),
    "field width": lambda x: ks.HashFamilySpec(x, 1),
    "message blocks": lambda x: ks.HashFamilySpec(2, x),
    "data length": lambda x: ks.ParityCheckMatrix(x, [1]),
    "ec_leak block length": lambda x: ks.ec_leak(1.2, x, 0.05),
    "split size": lambda x: ks.KeySplit(x, 2),
    "n_max": lambda x: ks.run_invariant_suite(n_max=x),
    "key value": lambda x: KeyDistribution.uniform(2).prob_of([x]),
    "point-mass location": lambda x: KeyDistribution.point_mass(2, at=x),
    "spike location": lambda x: ks.construct_spike(2, 0.1, at=x),
    "lattice denominator": lambda x: KeyDistribution(1, Lattice([x, 0], x)),
    "event member": lambda x: ks.EventSpec([x]),
    "subset position": lambda x: ks.KeySplit(1, 2, [x]),
    "K2 value": lambda x: ks.KeySplit(1, 2).subset_value(x),
    "hash_value key": lambda x: ks.HashFamilySpec(2, 1).hash_value(x, 1),
    "hash_value message": lambda x: ks.HashFamilySpec(2, 1).hash_value(1, x),
    "parity-check row": lambda x: ks.ParityCheckMatrix(2, [x]),
    "observation bit": lambda x: ks.mixture_posterior(_ONE_BIT_CODES, [x], ks.EveChannel(Fraction(1, 10))),
    "code index": lambda x: ks.mixture_posterior(
        _ONE_BIT_CODES, "0", ks.EveChannel(Fraction(1, 10)), syndromes_hidden=False, code_index=x
    ),
    "check count": lambda x: ks.random_parity_check(2, x, random.Random(0)),
    "random data length": lambda x: ks.random_parity_check(x, 1, random.Random(0)),
}


@pytest.mark.parametrize("site", sorted(INTEGER_SITES))
def test_every_integer_site_refuses_bools_and_non_integers(site):
    for bad in (True, False, 1.0, "1", Fraction(1), None):
        with pytest.raises(ValidationError) as refusal:
            INTEGER_SITES[site](bad)
        assert type(refusal.value) is ValidationError, (site, bad)
    INTEGER_SITES[site](np.int64(1))  # numpy integers are read as ints


def test_check_int_reads_counts_and_indices():
    assert check_int(np.int64(3), "count") == 3 and type(check_int(np.uint8(3), "count")) is int
    assert check_int(0, "index", lo=0, hi=4) == 0 and check_int(-7, "offset", lo=None) == -7
    for value, lo, hi, message in (
        (0, 1, None, "count must be a positive integer, got 0"),
        (-1, 0, None, "count must be a non-negative integer, got -1"),
        (4, 0, 4, "count 4 outside [0, 4)"),
        (True, 0, 4, "count must be a non-negative integer, got True"),
        (2.0, None, None, "count must be an integer, got 2.0"),
    ):
        with pytest.raises(ValidationError, match=re.escape(message)):
            check_int(value, "count", lo=lo, hi=hi)
    assert type(ks.KeySplit(np.int64(1), 2).n1) is int
    spec = ks.HashFamilySpec(np.int64(3), np.int64(2))
    assert spec == ks.HashFamilySpec(3, 2) and type(spec.field_bits) is int


#: the package's 71 public names before each module's __all__ became their one declaration
PACKAGE_NAMES_BEFORE = """
AccumulatedFailure AverageGuessBound BreachWitness ClassicalProbeModel CodeEnsemble
ConditionalDeviation CvParams DEFAULT_ONE_SHOT_LOG10 DegradedLevels DetectabilityReport
EntropyStats EveChannel EventBoundReport EventSpec ForgeryWitness HashFamilySpec HermitianState
InfeasibleError InvariantResult KeyDistribution KeySplit LeakageComparison LogBudget
LowInfoFamily MARKOV_EXPONENTS MacKeyModel MixtureDecomposition ParityCheckMatrix
ResourceLimitError SpikeResult TradeoffPoint Uncertainty ValidationError accumulated_failure
as_markov_exponent asu_epsilon attack_success average_conditional_guess binary_entropy
check_event_bound check_mixture_decomposition conditional_breach_witness
construct_low_info_high_guess construct_spike d_criterion degraded_epsilon
detectability_verdict ec_leak entropy_stats eve_bit_agreement false_alarm_tradeoff
forgeable_key_distribution guarantee_gap individual_level infer_mode leakage_comparison
load_parity_check markov_tail_bound max_conditional_deviation mixture_posterior
mutual_information near_uniform_bits output_uncertainty parse_number parse_security_level
random_parity_check required_d_for_near_uniform resolve_mode run_invariant_suite
statistical_distance trace_distance
""".split()


def test_package_reexports_every_library_module_all():
    modules = [importlib.import_module(f"keysec.{info.name}")
               for info in pkgutil.iter_modules(ks.__path__) if info.name != "cli"]
    assert len(modules) == 9
    assert ks.__all__ == [name for module in modules for name in module.__all__]
    assert len(set(ks.__all__)) == len(ks.__all__)
    for module in modules:
        for name in module.__all__:
            assert getattr(ks, name) is getattr(module, name), name
    assert len(PACKAGE_NAMES_BEFORE) == 71
    added = {"Lattice", "DEFAULT_MODULI", "VERDICT_LOSS", "VERDICT_MASKED", "VERDICT_DETECTABLE"}
    assert set(ks.__all__) == set(PACKAGE_NAMES_BEFORE) | added


@pytest.mark.parametrize("module, name", [
    ("dist", "binary_entropy"), ("ecpa", "ec_leak"), ("mac", "degraded_epsilon"), ("mac", "DegradedLevels")])
def test_a_scalar_formula_moved_to_numerics_keeps_its_old_address(module, name):
    old = importlib.import_module(f"keysec.{module}")
    assert getattr(old, name) is getattr(numerics, name) is getattr(ks, name)
    assert name in numerics.__all__ and name not in old.__all__


#: in a fresh interpreter: the keysec submodules and numpy loaded after each step
_LAZY = """import json, sys
import keysec
def loaded():
    return sorted(m for m in sys.modules if m == "numpy" or m.startswith("keysec."))
steps = [loaded(), hasattr(keysec, "__wrapped__"), loaded()]
from keysec import budget
steps.append(loaded())
print(json.dumps(steps))"""


def test_import_keysec_loads_nothing_until_a_name_is_used():
    src = str(Path(ks.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", _LAZY], capture_output=True, text=True, env=env, timeout=60)
    assert json.loads(proc.stdout) == [[], False, [], ["keysec.budget", "keysec.numerics"]], proc.stderr


def test_the_lazy_package_answers_every_form_of_access():
    namespace = {}
    exec("from keysec import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(ks.__all__)
    assert set(ks.__all__) | {"dist", "mac", "__version__"} <= set(dir(ks))
    from keysec import dist

    assert dist is importlib.import_module("keysec.dist") and ks.KeyDistribution is dist.KeyDistribution
    with pytest.raises(AttributeError, match="no_such_name"):
        ks.no_such_name
    assert not hasattr(ks, "__wrapped__")
