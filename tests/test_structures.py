"""Nambu-Poisson brackets, bundle maps, validity checks, algebroid bracket."""

from __future__ import annotations

import itertools
import random

import pytest

from nambu.algebra import Polynomial
from nambu.exterior import FORM, MULTIVECTOR, GradedTensor, apply_vector, lie_mv, wedge
from nambu.structures import (
    FundamentalIdentityReport,
    IdentityViolation,
    NambuStructure,
    check_automorphism,
    check_decomposability,
    check_fundamental_identity,
    default_function_family,
    hamiltonian_vf,
    leibniz_bracket,
    nambu_bracket,
    sharp,
)
from support import (
    R3,
    R4,
    R5,
    coords,
    nondecomposable_r5,
    radius_squared,
    rand_form,
    rand_poly,
    regular_r3,
    regular_r4,
    singular_r3,
)

x1, x2, x3 = coords(R3)
R2SQ = radius_squared(R3)


def dx(chart, *indices):
    return GradedTensor.basis(chart, FORM, tuple(i - 1 for i in indices))


def ee(chart, *indices):
    return GradedTensor.basis(chart, MULTIVECTOR, tuple(i - 1 for i in indices))


# -- construction ------------------------------------------------------------

def test_order_two_rejected():
    tensor = GradedTensor.basis(R3, MULTIVECTOR, (0, 1))
    with pytest.raises(ValueError):
        NambuStructure(tensor)

def test_order_must_match_degree():
    tensor = GradedTensor.basis(R3, MULTIVECTOR, (0, 1))
    with pytest.raises(ValueError):
        NambuStructure(tensor, order=3)

def test_polynomial_components_required():
    from nambu.algebra import RationalFunction
    ratio = RationalFunction(x1, x2)
    tensor = GradedTensor(R3, MULTIVECTOR, 3, {(0, 1, 2): ratio})
    with pytest.raises(ValueError):
        NambuStructure(tensor)


# -- brackets ----------------------------------------------------------------

def test_singular_bracket_of_coordinates():
    assert nambu_bracket(singular_r3(), x1, x2, x3) == R2SQ

def test_volume_bracket_of_coordinates():
    assert nambu_bracket(regular_r3(), x1, x2, x3) == Polynomial.constant(R3.coordinates, 1)

def test_bracket_skew_symmetry_repeated_entry():
    assert nambu_bracket(singular_r3(), x1, x1, x3).is_zero()

def test_bracket_arity_checked():
    with pytest.raises(ValueError):
        nambu_bracket(singular_r3(), x1, x2)

def test_bracket_leibniz_rule_random():
    rng = random.Random(23)
    structure = singular_r3()
    for _ in range(30):
        f = rand_poly(rng, R3)
        g = rand_poly(rng, R3)
        h2, h3 = rand_poly(rng, R3), rand_poly(rng, R3)
        lhs = nambu_bracket(structure, f * g, h2, h3)
        rhs = f * nambu_bracket(structure, g, h2, h3) + g * nambu_bracket(structure, f, h2, h3)
        assert lhs == rhs


# -- sharp and Hamiltonian fields ---------------------------------------------

def test_sharp_two_form_golden():
    structure = singular_r3()
    assert sharp(structure, 2, dx(R3, 1, 2)) == ee(R3, 3).scale(R2SQ)
    assert sharp(structure, 2, dx(R3, 1, 3)) == ee(R3, 2).scale(-R2SQ)

def test_sharp_scalar_gives_tensor_back():
    structure = singular_r3()
    one = GradedTensor.from_scalar(R3, FORM, 1)
    assert sharp(structure, 0, one) == structure.tensor

def test_sharp_degree_out_of_range():
    with pytest.raises(ValueError):
        sharp(singular_r3(), 4, dx(R3, 1))

def test_hamiltonian_fields_golden():
    structure = singular_r3()
    assert hamiltonian_vf(structure, x1, x2) == ee(R3, 3).scale(R2SQ)
    assert hamiltonian_vf(structure, x1, x3) == ee(R3, 2).scale(-R2SQ)
    assert hamiltonian_vf(structure, x2, x3) == ee(R3, 1).scale(R2SQ)

def test_hamiltonian_repeated_function_vanishes():
    assert hamiltonian_vf(singular_r3(), x1, x1).is_zero()

def test_hamiltonian_normal_form_r4():
    structure = regular_r4()
    y1, y2, _, _ = coords(R4)
    assert hamiltonian_vf(structure, y1, y2) == ee(R4, 3)

def test_hamiltonian_arity_checked():
    with pytest.raises(ValueError):
        hamiltonian_vf(singular_r3(), x1)


# -- validity checks -----------------------------------------------------------

def _bracket_expansion_report(structure, family, max_violations=5):
    """Reference: expand the fundamental identity bracket by bracket.

    {f_I, {f_J}} - sum_k {f_J1, ..., {f_I, f_Jk}, ..., f_Jn} for every
    (n-1)-subset I and n-subset J of the family, in the engine's report
    order; every outer bracket is a derivative along a Hamiltonian field.
    """
    n = structure.order
    names = tuple(str(f) for f in family)
    fields = {combo: hamiltonian_vf(structure, *(family[i] for i in combo))
              for combo in itertools.combinations(range(len(family)), n - 1)}

    def bracket_with(field_combo, scalar):
        return apply_vector(fields[field_combo], scalar)

    inner_brackets = {
        inner: nambu_bracket(structure, *(family[i] for i in inner))
        for inner in itertools.combinations(range(len(family)), n)}

    violations = []
    for outer in itertools.combinations(range(len(family)), n - 1):
        replaced_cache = {i: bracket_with(outer, family[i]) for i in range(len(family))}
        for inner in itertools.combinations(range(len(family)), n):
            lhs = bracket_with(outer, inner_brackets[inner])
            rhs = structure.chart.zero_polynomial()
            for pos in range(n):
                rest = inner[:pos] + inner[pos + 1:]
                # move the replaced slot to the end: sign (-1)^(n-1-pos)
                term = bracket_with(rest, replaced_cache[inner[pos]])
                rhs = rhs - term if (n - 1 - pos) % 2 else rhs + term
            residual = lhs - rhs
            if not residual.is_zero():
                violations.append(IdentityViolation(
                    outer=tuple(names[i] for i in outer),
                    inner=tuple(names[i] for i in inner),
                    residual=residual))
                if len(violations) >= max_violations:
                    return FundamentalIdentityReport(names, tuple(violations))
    return FundamentalIdentityReport(names, tuple(violations))


def _random_structure(rng, chart, order):
    # one or two basis n-vectors with random coefficients of degree <= 1: a
    # single term is always Nambu-Poisson, two terms usually are not
    indices = list(itertools.combinations(range(chart.dimension), order))
    components = {index: rand_poly(rng, chart, max_degree=1, allow_zero=False)
                  for index in rng.sample(indices, min(len(indices), rng.choice([1, 2])))}
    return NambuStructure(GradedTensor(chart, MULTIVECTOR, order, components))


def test_fundamental_identity_singular_coordinates():
    report = check_fundamental_identity(singular_r3(), [x1, x2, x3])
    assert report.passed
    assert report.family == ("x1", "x2", "x3")

def test_fundamental_identity_regular_r4_full_family():
    report = check_fundamental_identity(regular_r4())
    assert report.passed

def test_fundamental_identity_violated_nondecomposable():
    structure = nondecomposable_r5()
    report = check_fundamental_identity(structure)
    assert len(report.violations) == 5
    assert all(not violation.residual.is_zero() for violation in report.violations)
    assert report == _bracket_expansion_report(structure, default_function_family(R5))

def test_fundamental_identity_unlimited_builds_each_inner_form_once(monkeypatch):
    import nambu.structures as structures
    structure = nondecomposable_r5()
    family = list(coords(R5)) + default_function_family(R5)[5:8]
    differentials = structures._differentials
    inner_calls = []

    def counting(chart, scalars):
        if len(scalars) == structure.order:
            inner_calls.append(tuple(scalars))
        return differentials(chart, scalars)

    monkeypatch.setattr(structures, "_differentials", counting)
    monkeypatch.setattr(structures, "MAX_VIOLATIONS", 10 ** 9)
    report = check_fundamental_identity(structure, family)
    monkeypatch.undo()
    assert len(report.violations) > 5
    assert report == _bracket_expansion_report(structure, family, 10 ** 9)
    assert 0 < len(inner_calls) == len(set(inner_calls))
    assert len(inner_calls) <= len(list(itertools.combinations(family, structure.order)))

def test_decomposability_singular():
    assert check_decomposability(singular_r3()).passed

def test_decomposability_regular_r4():
    assert check_decomposability(regular_r4()).passed

def test_decomposability_witness_on_r5():
    report = check_decomposability(nondecomposable_r5())
    assert not report.passed
    assert report.witness_indices is not None
    assert report.residual is not None and not report.residual.is_zero()


def test_fundamental_identity_matches_bracket_expansion(monkeypatch):
    import nambu.structures as structures
    rng = random.Random(47)
    failing = 0
    for chart, order in [(R4, 3), (R5, 3), (R4, 4), (R5, 4)] * 5:
        structure = _random_structure(rng, chart, order)
        family = list(coords(chart)) + [
            rand_poly(rng, chart, max_degree=1, allow_zero=False)
            * rand_poly(rng, chart, max_degree=1, allow_zero=False)
            for _ in range(rng.randint(0, 2))]
        for limit in (1, 5, 10 ** 9):
            monkeypatch.setattr(structures, "MAX_VIOLATIONS", limit)
            report = check_fundamental_identity(structure, family)
            assert report == _bracket_expansion_report(structure, family, limit)
        failing += not report.passed
    assert 0 < failing < 20


# -- automorphisms --------------------------------------------------------------

def test_hamiltonian_fields_are_automorphisms():
    structure = singular_r3()
    assert check_automorphism(structure, x1, x2).is_zero()
    assert check_automorphism(structure, x1 * x1 + x2 * x2, x3).is_zero()

def test_constant_hamiltonians_give_zero_field():
    one = Polynomial.constant(R3.coordinates, 1)
    assert check_automorphism(singular_r3(), one, one).is_zero()

def test_automorphism_random_family():
    rng = random.Random(31)
    structure = singular_r3()
    for _ in range(15):
        f = rand_poly(rng, R3, max_degree=2)
        g = rand_poly(rng, R3, max_degree=2)
        assert check_automorphism(structure, f, g).is_zero()


# -- the algebroid bracket -------------------------------------------------------

def test_bracket_constant_structure_constant_forms():
    structure = regular_r3()
    assert leibniz_bracket(structure, dx(R3, 1, 2), dx(R3, 1, 3)).is_zero()

def test_bracket_singular_derived_value():
    structure = singular_r3()
    expected = dx(R3, 1, 2).scale(2 * x2) + dx(R3, 1, 3).scale(2 * x3)
    assert leibniz_bracket(structure, dx(R3, 1, 2), dx(R3, 1, 3)) == expected

def test_center_of_r4_normal_form():
    # Forms annihilated by the bundle map bracket to zero with every basis form.
    structure = regular_r4()
    rng = random.Random(37)
    killers = [wedge(dx(R4, 4), dx(R4, 1)), dx(R4, 1, 4).scale(rand_poly(rng, R4)),
               dx(R4, 2, 4), dx(R4, 3, 4).scale(rand_poly(rng, R4))]
    for alpha in killers:
        assert sharp(structure, 2, alpha).is_zero()
        for combo in itertools.combinations(range(4), 2):
            beta = GradedTensor.basis(R4, FORM, combo)
            assert leibniz_bracket(structure, alpha, beta).is_zero()

def test_anchor_identity_random():
    # sharp of the bracket equals the commutator of the sharps.
    rng = random.Random(41)
    for structure in (singular_r3(), regular_r3(), regular_r4()):
        n = structure.order
        for _ in range(20):
            a = rand_form(rng, structure.chart, n - 1, max_degree=2)
            b = rand_form(rng, structure.chart, n - 1, max_degree=2)
            lhs = sharp(structure, n - 1, leibniz_bracket(structure, a, b))
            rhs = lie_mv(sharp(structure, n - 1, a), sharp(structure, n - 1, b))
            assert lhs == rhs

def test_leibniz_identity_random():
    rng = random.Random(43)
    for structure in (singular_r3(), regular_r4()):
        n = structure.order
        for _ in range(20):
            a = rand_form(rng, structure.chart, n - 1, max_degree=2)
            b = rand_form(rng, structure.chart, n - 1, max_degree=2)
            c = rand_form(rng, structure.chart, n - 1, max_degree=2)
            lhs = leibniz_bracket(structure, a, leibniz_bracket(structure, b, c))
            rhs = (leibniz_bracket(structure, leibniz_bracket(structure, a, b), c)
                   + leibniz_bracket(structure, b, leibniz_bracket(structure, a, c)))
            assert lhs == rhs

def test_bracket_degree_checked():
    with pytest.raises(ValueError):
        leibniz_bracket(singular_r3(), dx(R3, 1), dx(R3, 1, 2))

def test_hamiltonian_field_in_sharp_image():
    # structural: the Hamiltonian field is sharp applied to a wedge of differentials
    structure = singular_r3()
    from nambu.exterior import differential, wedge_all
    form = wedge_all([differential(R3, x1), differential(R3, x2)])
    assert hamiltonian_vf(structure, x1, x2) == sharp(structure, 2, form)


def test_default_family_contents():
    family = default_function_family(R3)
    assert len(family) == 3 + 6
    assert family[0] == x1
    assert x1 * x2 in family
