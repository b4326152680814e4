"""Model-file parsing, typing errors, and printed values that parse back."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nambu.algebra import variables
from nambu.exterior import FORM, MULTIVECTOR, GradedTensor
from nambu.model import ModelError, _tokenize_line, parse_model
from nambu.modular import VolumeSpec
from support import R3, coords, oracle_tokens, radius_squared

x1, x2, x3 = coords(R3)

SINGULAR = """\
# the bundled singular example
space 3 coords x1 x2 x3
scalar f = x1^2 + x2^2 + x3^2
lambda L = (x1^2 + x2^2 + x3^2) * @1^@2^@3 order 3
volume V = std
"""


def test_parse_singular_model():
    model = parse_model(SINGULAR)
    assert model.chart == R3
    structure = model.structure()
    assert structure.order == 3
    assert structure.top_coefficient() == radius_squared(R3)
    assert model.scalar("f") == radius_squared(R3)
    assert model.volume("V") == VolumeSpec.standard(R3)

def test_caret_is_power_on_scalars_and_wedge_on_tensors():
    model = parse_model("""\
space 2 coords x1 x2
scalar p = x1^3
form a = dx1 ^ dx2
""")
    y1, y2 = variables("x1 x2")
    assert model.scalar("p") == y1 ** 3
    form = model.binding("a", "form")
    assert form.degree == 2

def test_double_star_power():
    model = parse_model("space 2 coords x1 x2\nscalar p = (x1 + x2) ** 2\n")
    y1, y2 = variables("x1 x2")
    assert model.scalar("p") == (y1 + y2) ** 2

@pytest.mark.parametrize("line, column, token", [
    ("scalar f = 2^3^2", 15, "^"), ("scalar f = x1 ** 2 ** 3", 20, "**"),
    ("scalar f = x1^2 ** 3", 17, "**"), ("scalar f = x1 ** 2 ^ 3", 20, "^"),
    ("scalar f = (x1 + x2)^2^2", 23, "^")])
def test_a_power_of_a_power_needs_parentheses(line, column, token):
    # left to right these read 64 and x1**6, where Python reads 512 and x1**8
    with pytest.raises(ModelError, match="a power of a power needs parentheses") as err:
        parse_model(f"space 2 coords x1 x2\n{line}\n")
    assert (err.value.line, err.value.column, err.value.token) == (2, column, token)


def test_grouped_powers_and_wedges_of_powers_still_parse():
    model = parse_model("""\
space 3 coords x1 x2 x3
scalar p = (x1^2)^3
scalar q = (x1 ** 2) ** 3
scalar r = x1^2 * x2^3
scalar s = x1^2 ^ x2
scalar t = 2^3 ^ x1
form a = dx1 ^ dx2 ^ dx3
""")
    assert [model.scalar(name) for name in "pqrst"] == \
        [x1 ** 6, x1 ** 6, x1 ** 2 * x2 ** 3, x1 ** 2 * x2, 8 * x1]
    assert model.binding("a", "form") == GradedTensor.basis(R3, FORM, (0, 1, 2))

def test_volume_forms():
    model = parse_model("""\
space 3 coords x1 x2 x3
volume V = std
volume U = (x1 + 1) * std
volume W = exp(-x1) * std
""")
    assert model.volume("V") == VolumeSpec.standard(R3)
    assert model.volume("U").coefficient == x1 + 1
    assert model.volume("W").weight == x1

def test_exp_volume_weight_is_the_negated_exponent():
    model = parse_model("""\
space 4 coords x1 x2 x3 x4
volume W = exp(-x1*x4 - x2^2) * std
volume V = exp(-x1) * std
""")
    y1, y2, _, y4 = variables("x1 x2 x3 x4")
    assert model.volume("W").weight == y1 * y4 + y2 ** 2
    assert str(model.volume("W")) == "exp(-(x1*x4 + x2**2)) * std"
    assert model.volume("V").weight == y1
    assert str(model.volume("V")) == "exp(-(x1)) * std"

def test_form_and_mv_bindings():
    model = parse_model("""\
space 3 coords x1 x2 x3
form a = x1 * dx1 ^ dx2 + 2 * dx2 ^ dx3
mv P = x2 * @1 - @3
""")
    form = model.binding("a", "form")
    assert form.degree == 2 and form.variance == FORM
    field = model.binding("P", "mv")
    assert field.degree == 1 and field.variance == MULTIVECTOR
    assert field.component((0,)) == x2

def test_bindings_can_reference_earlier_ones():
    model = parse_model("""\
space 3 coords x1 x2 x3
scalar f = x1 + x2
scalar g = f * f
""")
    assert model.scalar("g") == (x1 + x2) ** 2

def test_fraction_literals():
    model = parse_model("space 2 coords x1 x2\nscalar h = 1/2 * x1\n")
    from fractions import Fraction
    assert model.scalar("h").terms == {(1, 0): Fraction(1, 2)}


# -- error paths ---------------------------------------------------------------

def test_lambda_degree_mismatch():
    with pytest.raises(ModelError) as err:
        parse_model("space 3 coords x1 x2 x3\nlambda L = x1 * @1^@2 order 3\n")
    assert err.value.line == 2
    assert "order" in str(err.value) or "degree" in str(err.value)

def test_unknown_name_has_position():
    with pytest.raises(ModelError) as err:
        parse_model("space 2 coords x1 x2\nscalar f = x9\n")
    assert err.value.line == 2
    assert err.value.token == "x9"

def test_syntax_error_has_position():
    with pytest.raises(ModelError) as err:
        parse_model("space 2 coords x1 x2\nscalar f = (x1 + \n")
    assert err.value.line == 2

def test_variance_mixing_rejected():
    with pytest.raises(ModelError):
        parse_model("space 2 coords x1 x2\nform a = dx1 ^ @2\n")

def test_star_between_tensors_rejected():
    with pytest.raises(ModelError):
        parse_model("space 2 coords x1 x2\nform a = dx1 * dx2\n")

def test_space_must_come_first():
    with pytest.raises(ModelError):
        parse_model("scalar f = 1\nspace 2 coords x1 x2\n")

def test_duplicate_names_rejected():
    with pytest.raises(ModelError):
        parse_model("space 2 coords x1 x2\nscalar f = 1\nscalar f = 2\n")

def test_reserved_names_rejected():
    with pytest.raises(ModelError):
        parse_model("space 2 coords x1 x2\nscalar std = 1\n")
    with pytest.raises(ModelError):
        parse_model("space 2 coords x1 x2\nscalar dx1 = 1\n")

def test_dimension_coordinate_count_mismatch():
    with pytest.raises(ModelError):
        parse_model("space 3 coords x1 x2\n")

def test_unexpected_character():
    with pytest.raises(ModelError) as err:
        parse_model("space 2 coords x1 x2\nscalar f = x1 ; x2\n")
    assert err.value.token == ";"


ascii_lines = st.one_of(st.text(st.characters(max_codepoint=127), max_size=30),
                        st.text(st.sampled_from("x1_ \t*#+-()=^@/;"), max_size=30))


@settings(max_examples=400, deadline=None)
@given(ascii_lines, st.integers(1, 9))
def test_tokenizer_matches_the_character_loop(text, line_no):
    try:
        expected = oracle_tokens(text, line_no)
    except ModelError as error:
        with pytest.raises(ModelError) as raised:
            _tokenize_line(text, line_no)
        assert (raised.value.message, raised.value.line, raised.value.column,
                raised.value.token) == (error.message, error.line, error.column, error.token)
    else:
        assert _tokenize_line(text, line_no) == expected


@pytest.mark.parametrize("line, column", [("scalar f = x1 + ²", 17), ("scalar f = 2²", 13),
                                          ("scalar f = @²", 13), ("scalar ½ = 1", 8)])
def test_a_numeral_that_is_not_a_decimal_digit_has_position(line, column):
    # the character loop read ² as a digit, and int() then failed on it
    with pytest.raises(ModelError) as err:
        parse_model(f"space 2 coords x1 x2\n{line}\n")
    assert (err.value.line, err.value.column, err.value.token) == (2, column, line[column - 1])


def test_order_two_structure_rejected():
    with pytest.raises(ModelError):
        parse_model("space 2 coords x1 x2\nlambda L = @1^@2 order 2\n")


# -- printed values parse back ------------------------------------------------

FULL = """\
space 3 coords x1 x2 x3
scalar f = x1^2 + x2^2 + x3^2
scalar g = 3 * x1 * x2 - 1/2 * x3
form a = x1 * dx1 ^ dx2 + 2 * dx2 ^ dx3
mv P = x2 * @1 - @3
lambda L = (x1^2 + x2^2 + x3^2) * @1^@2^@3 order 3
volume V = std
volume U = (x1 + 1) * std
volume W = exp(-x1) * std
"""


def _printed_line(entry) -> str:
    """A binding as the command line prints it (``str``, which is
    ``format_tensor`` on tensors)."""
    if entry.kind == "lambda":
        return f"lambda {entry.name} = {entry.value.tensor} order {entry.value.order}"
    return f"{entry.kind} {entry.name} = {entry.value}"


def _printed_model(text: str) -> str:
    """The space line and every binding of the model ``text``, printed."""
    model = parse_model(text)
    space = f"space {model.chart.dimension} coords {' '.join(model.chart.coordinates)}"
    lines = [space] + [_printed_line(e) for e in model.bindings.values()]
    return "\n".join(lines) + "\n"


def _assert_same_binding(entry, mate) -> None:
    """Structures compare by identity, so a lambda compares tensor and order."""
    assert mate.kind == entry.kind
    if entry.kind == "lambda":
        assert (mate.value.tensor, mate.value.order) == (entry.value.tensor, entry.value.order)
    else:
        assert mate.value == entry.value


def _assert_same_model(text: str, again: str) -> None:
    ours, theirs = parse_model(text), parse_model(again)
    assert ours.chart == theirs.chart
    assert list(ours.bindings) == list(theirs.bindings)
    for name, entry in ours.bindings.items():
        _assert_same_binding(entry, theirs.bindings[name])


def test_round_trip_identity():
    """Every printed binding of FULL parses back equal, alone in a fresh
    model and all together; printing is a fixed point after one pass."""
    space = FULL.splitlines()[0]
    for entry in parse_model(FULL).bindings.values():
        alone = parse_model(f"{space}\n{_printed_line(entry)}\n")
        _assert_same_binding(entry, alone.bindings[entry.name])
    text = _printed_model(FULL)
    _assert_same_model(FULL, text)
    assert _printed_model(text) == text


def test_round_trip_singular_model():
    _assert_same_model(SINGULAR, _printed_model(SINGULAR))
