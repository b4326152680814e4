"""Truncated cohomology/homology dimensions, decomposition lemmas, duality."""

from __future__ import annotations

import functools
import itertools
import math
import random
import re
from collections import Counter
from fractions import Fraction
from operator import add
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nambu.algebra import ExactMatrix, InvariantError, Polynomial, grlex_key, variables
from nambu.cohomology import (
    _annihilates,
    _complement_kernel,
    _Complexes,
    _radial_relations,
    _radial_split,
    canonical_homology_dim,
    duality_report,
    foliated_cohomology_dim,
    naka_pair,
    naka_triple,
    np_cocycle_check_top,
    np_h1_top,
    reduce_annihilators,
    subcomplex_check,
)
from nambu.exterior import (
    FORM,
    MULTIVECTOR,
    Chart,
    GradedTensor,
    contract_form,
    differential,
    ext_d,
    pair,
    wedge,
)
from nambu.model import parse_model
from nambu.modular import VolumeSpec, delta, modular_potential
from nambu.structures import NambuStructure, sharp
from nambu.truncation import (
    FirstOrderMap,
    TruncatedBasis,
    TruncatedOperator,
    _certified_solve,
    _first_order_stencil,
    bundle_map,
    composed,
    ker_sharp_basis,
    monomials_up_to,
    solve_in_span,
)
from support import (
    R3,
    R4,
    R5,
    _span_rank_extension,
    assert_elimination_matches_sympy,
    basis_tensor,
    compose_linear,
    coords,
    dense,
    form_cochain_coboundary,
    form_cochain_value,
    matmul,
    matrix_from_columns,
    oracle_apply,
    oracle_basis_elements,
    oracle_canonical_dimension,
    oracle_complement_kernel,
    oracle_foliated_dimension,
    oracle_quotient,
    oracle_radial_relations,
    oracle_radial_split,
    pull_back,
    radius_squared,
    rand_form,
    rand_fraction,
    rand_mv,
    rand_poly,
    regular_r3,
    regular_r4,
    sign_flipped_d,
    singular_r3,
    solve_labelled,
)

x1, x2, x3 = coords(R3)
R2SQ = radius_squared(R3)
STD3 = VolumeSpec.standard(R3)
STD4 = VolumeSpec.standard(R4)


def dx(chart, *indices):
    return GradedTensor.basis(chart, FORM, tuple(i - 1 for i in indices))


# -- truncated bases and operators ------------------------------------------------

def test_monomials_up_to_counts():
    assert len(monomials_up_to(3, 2)) == 10
    assert monomials_up_to(2, 1) == [(0, 0), (0, 1), (1, 0)]
    # every exponent of total degree <= bound, in graded-lex order, by brute force
    for num_vars, bound in itertools.product(range(6), range(9)):
        brute = [e for e in itertools.product(range(bound + 1), repeat=num_vars)
                 if sum(e) <= bound]
        assert monomials_up_to(num_vars, bound) == sorted(brute, key=grlex_key)
        assert len(brute) == math.comb(num_vars + bound, bound)

def test_basis_size_formula():
    basis = TruncatedBasis.build(R3, FORM, 1, 2)
    assert len(basis) == 3 * 10

def test_basis_round_trip():
    basis = TruncatedBasis.build(R3, FORM, 1, 2)
    form = dx(R3, 1).scale(x1 * x2) - dx(R3, 3).scale(2)
    vector = basis.to_coordinates(form)
    assert sorted(vector.values()) == [Fraction(-2), Fraction(1)]
    assert basis.from_coordinates(vector) == form

def test_basis_rejects_overflow():
    basis = TruncatedBasis.build(R3, FORM, 1, 1)
    with pytest.raises(ValueError):
        basis.to_coordinates(dx(R3, 1).scale(x1 * x2))

def test_images_and_positions_outside_the_basis_are_rejected():
    constants = TruncatedBasis.build(R3, FORM, 1, 0)
    with pytest.raises(ValueError):
        constants.to_coordinates(ext_d(GradedTensor(R3, FORM, 0, {(): x1 * x2})))
    for outside in (len(constants), -1):
        with pytest.raises(ValueError):
            constants.from_coordinates({outside: Fraction(1)})


@given(st.integers(1, 5).flatmap(lambda m: st.tuples(st.just(m), st.integers(0, m))),
       st.integers(0, 4), st.sampled_from([FORM, MULTIVECTOR]), st.integers(1, 9))
@example((5, 2), 4, FORM, 1)
@settings(max_examples=60, deadline=None)
def test_basis_positions_are_the_flattened_product(shape, bound, variance, coeff):
    # position and from_coordinates against the index x monomial product,
    # flattened index-major, with the same errors outside the basis
    m, degree = shape
    chart = Chart.of([f"x{i + 1}" for i in range(m)])
    basis = TruncatedBasis.build(chart, variance, degree, bound)
    elements = oracle_basis_elements(basis)
    assert len(basis) == len(elements)
    for at, (idx, mono) in enumerate(elements):
        assert basis.position((idx, mono)) == at
        term = Polynomial.monomial(chart.coordinates, mono, coeff)
        assert basis.from_coordinates({at: coeff}) == \
            GradedTensor(chart, variance, degree, {idx: term})
    over = (bound + 1,) + (0,) * (m - 1)
    other_degree = tuple(range(degree + 1 if degree < m else degree - 1))
    for idx, mono in ((elements[0][0], over), (other_degree, elements[0][1])):
        message = f"component {idx} monomial {mono} exceeds the coefficient bound {bound}"
        with pytest.raises(ValueError, match=re.escape(message)):
            basis.position((idx, mono))
    for at in (-1, len(elements)):
        message = f"coordinate position {at} outside 0..{len(elements) - 1}"
        with pytest.raises(ValueError, match=re.escape(message)):
            basis.from_coordinates({at: coeff})


def test_a_basis_holds_no_per_element_table():
    # positions come from one rank table per factor, never one per element
    basis = TruncatedBasis.build(R3, FORM, 1, 30)
    last = len(basis) - 1
    assert basis.position((basis.indices[-1], basis.monomials[-1])) == last
    assert basis.from_coordinates({last: 1}).components
    limit = len(basis.indices) + len(basis.monomials)
    assert all(len(value) <= limit for value in vars(basis).values()
               if hasattr(value, "__len__"))


def _operator_oracle(domain, codomain, mapping):
    """An operator matrix assembled independently of the engine: coordinates
    of each image in a full codomain basis, one row per codomain element."""
    return matrix_from_columns(
        (codomain.to_coordinates(mapping(basis_tensor(domain, j))) for j in range(len(domain))),
        len(codomain))


def _labels(tensor):
    """The (component, monomial) label of every term, as the tensor lists them."""
    return [(idx, exponent) for idx, value in tensor.components.items()
            for exponent in value.terms]


def _shifted(labels, by):
    """The labels with their monomials multiplied by x^by."""
    return [(idx, tuple(map(add, exponent, by))) for idx, exponent in labels]


def _per_element_oracle(domain, mapping):
    """Each label's row from one image per basis element, the assembly the
    stencil replaced, numbered as the stencil documents it.  Each column
    lists its image's labels in fill order (L(e_I) shifted by x^a, then each
    symbol L(x_j e_I) - x_j L(e_I) for a_j > 0, shifted by x^(a - e_j), each
    label where it first appears; a symbol lists the labels of L(x_j e_I),
    then those of x_j L(e_I), that it holds), grouped by component in the
    order the components first appear.  Rows are numbered in first-seen
    order and filled in column order."""
    chart = domain.chart
    fills = {}
    rows = {}
    for j, (idx, exponent) in enumerate(itertools.product(domain.indices, domain.monomials)):
        if idx not in fills:
            unit = GradedTensor(chart, domain.variance, domain.degree, {idx: chart.scalar(1)})
            base = mapping(unit)
            symbols = []
            for x in coords(chart):
                first, shifted = mapping(unit.scale(x)), base.scale(x)
                held = set(_labels(first - shifted))
                symbols.append([label for label in dict.fromkeys(_labels(first) + _labels(shifted))
                                if label in held])
            fills[idx] = _labels(base), symbols
        base, symbols = fills[idx]
        fill = _shifted(base, exponent)
        for k, power in enumerate(exponent):
            if power:
                fill += _shifted(symbols[k], tuple(e - (i == k) for i, e in enumerate(exponent)))
        terms = {(i, e): coeff for i, value in mapping(basis_tensor(domain, j)).components.items()
                 for e, coeff in value.terms.items()}
        listed = [label for label in dict.fromkeys(fill) if label in terms]
        assert len(listed) == len(terms)
        blocks = {}
        for label in listed:
            blocks.setdefault(label[0], []).append(label)
        for block in blocks.values():
            for label in block:
                rows.setdefault(label, {})[j] = terms[label]
    return rows


def _entries_by_label(rows):
    """label -> the row's (column, coefficient) entries, in their order."""
    return {label: list(row.items()) for label, row in rows.items()}


def _assert_rows_by_label(operator, domain, rows):
    # one row per label, none repeated, and each row filled in the same
    # column order, not only equal as a map
    assert operator.matrix.cols == len(domain)
    assert len(set(operator.labels)) == len(operator.labels) == operator.matrix.rows
    assert _entries_by_label(dict(zip(operator.labels, operator.matrix.row_dicts()))) == \
        _entries_by_label(rows)


def _numbered_rows(operator):
    """The operator's labels in row order, each with its row's entries in order."""
    return [(label, list(row.items()))
            for label, row in zip(operator.labels, operator.matrix.row_dicts())]


def _assert_stencil_matches_oracle(domain, mapping):
    # the same labels in the same row order, and each row's entries in order
    operator = TruncatedOperator.build(domain, mapping)
    rows = _per_element_oracle(domain, mapping)
    _assert_rows_by_label(operator, domain, rows)
    assert _numbered_rows(operator) == [(label, list(row.items())) for label, row in rows.items()]


# more than the coefficient degree of any bundled structure or annihilator
WIDE = 3


def _engine_operators(structure, bound):
    """(domain, oracle codomain, mapping) of each operator the engine assembles."""
    chart, n = structure.chart, structure.order
    for k in range(n + 1):
        domain = TruncatedBasis.build(chart, FORM, k, bound)
        yield (domain, TruncatedBasis.build(chart, MULTIVECTOR, n - k, bound + WIDE),
               lambda form, k=k: sharp(structure, k, form))
        if k < n:
            yield (domain, TruncatedBasis.build(chart, MULTIVECTOR, n - k - 1, bound + WIDE),
                   lambda form, k=k: sharp(structure, k + 1, ext_d(form)))
    if structure.is_top_order:
        f = structure.top_coefficient()
        yield (TruncatedBasis.build(chart, FORM, 1, bound),
               TruncatedBasis.build(chart, FORM, 2, bound + WIDE),
               lambda form: np_cocycle_check_top(f, form))
    for annihilator in reduce_annihilators(ker_sharp_basis(structure, 1, bound)):
        for k in range(1, chart.dimension + 1):
            yield (TruncatedBasis.build(chart, MULTIVECTOR, k, bound),
                   TruncatedBasis.build(chart, MULTIVECTOR, k - 1, bound + WIDE),
                   lambda field, a=annihilator: contract_form(a, field))


@pytest.mark.parametrize("name", ["regular_r3", "regular_r4", "singular_r3"])
def test_operator_rows_are_the_codomain_rows_its_images_hold(name):
    # the rows a full codomain gives, label for label, minus the zero rows
    model = parse_model((MODELS / f"{name}.nmb").read_text(encoding="utf-8"))
    structure = model.structure()
    operators = 0
    for bound in range(4):
        for domain, codomain, mapping in _engine_operators(structure, bound):
            full = _operator_oracle(domain, codomain, mapping).row_dicts()
            labels = itertools.product(codomain.indices, codomain.monomials)
            _assert_rows_by_label(TruncatedOperator.build(domain, mapping), domain,
                                  {label: row for label, row in zip(labels, full)
                                   if row})
            operators += 1
    assert operators == 4 * (8 if structure.is_top_order else 7 + 4)


@pytest.mark.parametrize("name", ["regular_r3", "regular_r4", "singular_r3"])
def test_stencil_matches_the_per_element_oracle(name):
    # the boundary, d from the previous bound and f dg, as the engine builds them
    structure = parse_model((MODELS / f"{name}.nmb").read_text(encoding="utf-8")).structure()
    chart = structure.chart
    standard = VolumeSpec.standard(chart)
    for bound in range(4):
        for k in range(1, chart.dimension + 1):
            _assert_stencil_matches_oracle(TruncatedBasis.build(chart, MULTIVECTOR, k, bound),
                                           lambda field: delta(standard, field))
            _assert_stencil_matches_oracle(TruncatedBasis.build(chart, FORM, k - 1, bound + 1),
                                           ext_d)
        if structure.is_top_order:
            f = structure.top_coefficient()
            _assert_stencil_matches_oracle(TruncatedBasis.build(chart, FORM, 0, bound),
                                           lambda g: ext_d(g).scale(f))


@given(st.integers(0, 2**32 - 1), st.integers(0, 2))
@settings(max_examples=20, deadline=None)
def test_stencil_matches_the_per_element_oracle_on_random_structures(seed, bound):
    rng = random.Random(seed)
    structure = NambuStructure(rand_mv(rng, R4, 3, max_degree=2))
    top = rand_poly(rng, R3, max_degree=3, allow_zero=False)
    weighted = VolumeSpec.weighted(R4, rand_poly(rng, R4, max_degree=2))
    annihilator = rand_form(rng, R4, 1, max_degree=2)
    for k in range(4):
        forms = TruncatedBasis.build(R4, FORM, k, bound)
        _assert_stencil_matches_oracle(forms, lambda form, k=k: sharp(structure, k, form))
        if k < 3:
            _assert_stencil_matches_oracle(
                forms, lambda form, k=k: sharp(structure, k + 1, ext_d(form)))
    for k in range(1, 5):
        fields = TruncatedBasis.build(R4, MULTIVECTOR, k, bound)
        _assert_stencil_matches_oracle(fields, lambda field: delta(weighted, field))
        _assert_stencil_matches_oracle(fields, lambda field: contract_form(annihilator, field))
    _assert_stencil_matches_oracle(TruncatedBasis.build(R3, FORM, 1, bound),
                                   lambda form: np_cocycle_check_top(top, form))
    _assert_stencil_matches_oracle(TruncatedBasis.build(R3, FORM, 0, bound),
                                   lambda g: ext_d(g).scale(top))


@pytest.mark.parametrize("bound", [0, 1, 3])
def test_second_order_mapping_breaks_the_stencil_guard(bound):
    scalars = TruncatedBasis.build(R3, FORM, 0, bound)

    def second_derivative(g):
        return GradedTensor.from_scalar(R3, FORM, g.scalar_value().diff(0).diff(0))

    with pytest.raises(RuntimeError, match="not of first order"):
        TruncatedOperator.build(scalars, second_derivative)
    # a first-order operator with a non-constant symbol passes the guard
    _assert_stencil_matches_oracle(
        scalars, lambda g: GradedTensor.from_scalar(R3, FORM, x2 * x3 * g.scalar_value().diff(0)))


def _assert_composed_matches_probed(structure):
    # the stencil composed from d's and the bundle map's equals the probed
    # one, term for term and in the same order, so the rows keep their order
    chart = structure.chart
    for k in range(structure.order):
        domain = TruncatedBasis.build(chart, FORM, k, 0)
        sharp_after_d = composed(bundle_map(structure, k + 1), FirstOrderMap(ext_d))
        for idx in domain.indices:
            built = sharp_after_d.stencil(domain, idx)
            probed = _first_order_stencil(
                domain, lambda form: sharp(structure, k + 1, ext_d(form)), idx)
            for part, expected in zip((built.base, *built.symbols),
                                      (probed.base, *probed.symbols), strict=True):
                assert list(part.items()) == list(expected.items())
            assert built.blocked == probed.blocked


@pytest.mark.parametrize("name", ["regular_r3", "regular_r4", "singular_r3"])
def test_composed_sharp_after_d_matches_the_probed_stencil(name):
    structure = parse_model((MODELS / f"{name}.nmb").read_text(encoding="utf-8")).structure()
    _assert_composed_matches_probed(structure)


@given(st.integers(0, 2**32 - 1), st.booleans())
@settings(max_examples=20, deadline=None)
def test_composed_sharp_after_d_matches_on_random_structures(seed, top_order):
    rng = random.Random(seed)
    if top_order:
        tensor = GradedTensor(R3, MULTIVECTOR, 3, {
            (0, 1, 2): rand_poly(rng, R3, max_degree=3, allow_zero=False)})
    else:
        tensor = rand_mv(rng, R4, 3, max_degree=0)
    _assert_composed_matches_probed(NambuStructure(tensor))


def test_composing_after_a_map_with_a_symbol_is_an_invariant_error():
    # d is not function-linear, so d after d cannot be read off d's stencils
    with pytest.raises(InvariantError, match="not function-linear"):
        TruncatedOperator.build(TruncatedBasis.build(R3, FORM, 0, 1),
                                composed(FirstOrderMap(ext_d), FirstOrderMap(ext_d)))


@pytest.mark.parametrize("bound", [0, 2])
def test_order_zero_columns_are_the_base_shifted(bound):
    # sharp and a contraction are function-linear: every symbol is zero
    structure = singular_r3()
    annihilator = dx(R3, 1).scale(x2) + dx(R3, 3)
    cases = [(TruncatedBasis.build(R3, FORM, k, bound),
              FirstOrderMap(lambda form, k=k: sharp(structure, k, form))) for k in range(4)]
    cases.append((TruncatedBasis.build(R3, MULTIVECTOR, 2, bound),
                  FirstOrderMap(lambda field: contract_form(annihilator, field))))
    for domain, mapping in cases:
        _assert_stencil_matches_oracle(domain, mapping)
        assert not any(any(mapping.stencil(domain, idx).symbols) for idx in domain.indices)


@pytest.mark.parametrize("bound", [1, 2, 4])
def test_a_fill_that_interleaves_components_is_regrouped(bound):
    # f da - df ^ a on the singular structure: the fill of e_1 lists dx1^dx2
    # and dx1^dx3 in the base, then dx1^dx2 in the x2 symbol and dx1^dx3 in
    # the x3 symbol, so columns with a_2, a_3 > 0 are regrouped
    f = singular_r3().top_coefficient()
    forms = TruncatedBasis.build(R3, FORM, 1, bound)
    cocycle = FirstOrderMap(lambda form: np_cocycle_check_top(f, form))
    _assert_stencil_matches_oracle(forms, cocycle)
    assert not any(cocycle.stencil(forms, (i,)).blocked for i in range(3))


def _shared_cases():
    """(variance, degree, maker of a fresh mapping) on R^3 and R^4."""
    singular, regular = singular_r3(), regular_r4()
    f = singular.top_coefficient()
    return [(R3, MULTIVECTOR, 2, lambda: lambda field: delta(STD3, field)),
            (R4, MULTIVECTOR, 3, lambda: lambda field: delta(STD4, field)),
            (R3, FORM, 1, lambda: lambda form: np_cocycle_check_top(f, form)),
            (R3, FORM, 1, lambda: lambda form: sharp(singular, 2, ext_d(form))),
            (R4, FORM, 1, lambda: lambda form: sharp(regular, 1, form))]


@pytest.mark.parametrize("bounds", [(1, 2), (2, 1), (0, 3)])
def test_a_map_shared_across_bounds_builds_what_fresh_maps_build(bounds):
    # the same rows, label and entry order included, and the mapping runs
    # only in the first build, on the stencil probes
    for chart, variance, degree, fresh in _shared_cases():
        calls = []
        mapping = fresh()

        def counted(tensor, mapping=mapping):
            calls.append(tensor)
            return mapping(tensor)

        shared = FirstOrderMap(counted)
        m = chart.dimension
        for step, bound in enumerate(bounds):
            domain = TruncatedBasis.build(chart, variance, degree, bound)
            assert _numbered_rows(TruncatedOperator.build(domain, shared)) == \
                _numbered_rows(TruncatedOperator.build(domain, fresh()))
            probes = len(domain.indices) * (1 + m + m * (m + 1) // 2)
            assert len(calls) == (probes if step == 0 else 0)
            calls.clear()


@pytest.mark.parametrize("bounds", [(0, 3), (3, 0), (2, 2)])
def test_a_shared_second_order_map_fails_its_guard_at_every_build(bounds):
    def second_derivative(g):
        return GradedTensor.from_scalar(R3, FORM, g.scalar_value().diff(0).diff(0))

    shared = FirstOrderMap(second_derivative)
    for bound in bounds:
        with pytest.raises(InvariantError, match="not of first order"):
            TruncatedOperator.build(TruncatedBasis.build(R3, FORM, 0, bound), shared)


def test_duality_calls_each_shared_map_once_per_probe(monkeypatch):
    # d runs on the forms of both complexes at bound b and at b + 1, and the
    # degree-1 bundle map at b and b + 1; each map builds each index's
    # stencil once, and each bundle probe is mapped once
    import nambu.truncation as truncation
    stencils, bundle_probes = [], []
    first_order_stencil = truncation._first_order_stencil

    def recording_stencil(domain, mapping, idx):
        stencils.append((mapping, domain.variance, idx))
        return first_order_stencil(domain, mapping, idx)

    def recording_sharp(structure, degree, form):
        bundle_probes.append(form)
        return sharp(structure, degree, form)

    monkeypatch.setattr(truncation, "_first_order_stencil", recording_stencil)
    monkeypatch.setattr(truncation, "sharp", recording_sharp)
    report = duality_report(regular_r4(), STD4, 2)
    assert report.holds
    for built in (stencils, bundle_probes):
        assert built and max(Counter(built).values()) == 1
    # d ran on the forms of every degree below the chart dimension
    assert {len(idx) for mapping, _, idx in stencils if mapping is ext_d} == {0, 1, 2, 3}


def _counting_stencils(monkeypatch):
    import nambu.truncation as truncation
    indices = []
    first_order_stencil = truncation._first_order_stencil

    def counted(domain, mapping, idx):
        indices.append(idx)
        return first_order_stencil(domain, mapping, idx)

    monkeypatch.setattr(truncation, "_first_order_stencil", counted)
    return indices


def test_foliated_calls_each_shared_map_once_per_probe(monkeypatch):
    # sharp after d, d and the bundle map run at bound b and at b - 1; each
    # probe is mapped once, so each index has one stencil per map
    import nambu.cohomology as cohomology
    import nambu.truncation as truncation
    d_probes, bundle_probes = [], []

    def recording_d(form):
        d_probes.append(form)
        return ext_d(form)

    def recording_sharp(structure, degree, form):
        bundle_probes.append(form)
        return sharp(structure, degree, form)

    monkeypatch.setattr(cohomology, "ext_d", recording_d)
    monkeypatch.setattr(truncation, "sharp", recording_sharp)
    indices = _counting_stencils(monkeypatch)
    outcome = foliated_cohomology_dim(regular_r4(), 2, 4)
    assert (outcome.dimension, outcome.previous_dimension) == (0, 0)
    for probes in (d_probes, bundle_probes):
        assert probes and max(Counter(probes).values()) == 1
    # d runs on the 2-forms (in sharp after d) and on the 1-forms
    assert {form.degree for form in d_probes} == {1, 2}
    # sharp after d is composed from d's stencils of the 6 two-form indices
    # and the degree-3 bundle map's of the 4 three-form indices, and probes
    # nothing itself; with the degree-2 bundle map's 6 and d's 4 one-form
    # indices that is 20 (16 while sharp after d probed its own 6)
    assert len(indices) == 20


def test_duality_keeps_one_wedge_map_per_annihilator(monkeypatch):
    # the reduced annihilators at b and b + 1 share their forms, and so
    # their wedges' stencils, across the two bounds and every degree
    import nambu.cohomology as cohomology
    wedged = []

    def recording_wedge(form, chain):
        wedged.append((form, chain))
        return wedge(form, chain)

    monkeypatch.setattr(cohomology, "wedge", recording_wedge)
    indices = _counting_stencils(monkeypatch)
    assert duality_report(regular_r4(), STD4, 4).holds
    assert len(wedged) == len(set(wedged)) == 210
    # sharp after d reads the stencils of d and of the bundle maps, which the
    # report builds anyway, so its 1 + 4 + 6 indices of the 0-, 1- and
    # 2-forms are no longer probed: 44, not 55
    assert len(indices) == 44


def test_duality_maps_each_d_probe_once(monkeypatch):
    # sharp after d reads d's stencils, so no probe goes through d twice
    # (390 calls on 225 probes while sharp after d probed its own)
    import nambu.cohomology as cohomology
    probes = []

    def recording_d(form):
        probes.append(form)
        return ext_d(form)

    monkeypatch.setattr(cohomology, "ext_d", recording_d)
    assert duality_report(regular_r4(), STD4, 4).holds
    assert len(probes) == len(set(probes)) == 225


@pytest.mark.parametrize("structure", [singular_r3(), regular_r4()],
                         ids=["singular_r3", "regular_r4"])
def test_canonical_builds_only_the_sharp_kernels_it_reads(structure, monkeypatch):
    # degree 0 is unconstrained, so only the chains one degree up at b + 1
    # need annihilators; the top degree has no chains above it
    import nambu.cohomology as cohomology
    built = []
    sharp_kernel = cohomology._sharp_kernel

    def recording(bundle, domain):
        built.append((domain.degree, domain.coefficient_bound))
        return sharp_kernel(bundle, domain)

    monkeypatch.setattr(cohomology, "_sharp_kernel", recording)
    volume = VolumeSpec.standard(structure.chart)
    canonical_homology_dim(structure, volume, 0, 3)
    assert built == [(1, 4)]
    built.clear()
    canonical_homology_dim(structure, volume, structure.order, 3)
    assert built == [(1, 3)]


def test_non_polynomial_image_is_rejected():
    forms = TruncatedBasis.build(R3, FORM, 1, 1)
    with pytest.raises(ValueError, match="not a polynomial"):
        TruncatedOperator.build(forms, lambda form: form.scale(R3.scalar(1) / (1 + x1 * x1)))


def test_operator_coordinates_are_strict():
    low = TruncatedBasis.build(R3, FORM, 0, 2)
    high = TruncatedBasis.build(R3, FORM, 1, 1)
    operator = TruncatedOperator.build(low, ext_d)
    assert operator.coordinates_in(high) == [
        high.to_coordinates(ext_d(basis_tensor(low, j))) for j in range(len(low))]
    narrow = TruncatedBasis.build(R3, FORM, 1, 0)
    with pytest.raises(InvariantError, match="exceeds the coefficient bound 0"):
        operator.coordinates_in(narrow)
    # the basis itself still reports a tensor outside it as a usage error
    with pytest.raises(ValueError, match="exceeds the coefficient bound 0"):
        narrow.to_coordinates(ext_d(basis_tensor(low, len(low) - 1)))


def test_d_after_d_is_the_zero_matrix():
    low = TruncatedBasis.build(R3, FORM, 0, 3)
    mid = TruncatedBasis.build(R3, FORM, 1, 3)
    high = TruncatedBasis.build(R3, FORM, 2, 3)
    d0 = _operator_oracle(low, mid, ext_d)
    d1 = _operator_oracle(mid, high, ext_d)
    assert matmul(d1, d0).rank() == 0


# -- kernel bases ------------------------------------------------------------------

def test_kernel_empty_for_singular_r3():
    for bound in (0, 2, 4):
        assert ker_sharp_basis(singular_r3(), 1, bound) == []

def test_kernel_of_r4_degree_one():
    basis = ker_sharp_basis(regular_r4(), 1, 0)
    assert basis == [dx(R4, 4)]

def test_kernel_of_r4_degree_two():
    basis = ker_sharp_basis(regular_r4(), 2, 0)
    assert basis == [dx(R4, 1, 4), dx(R4, 2, 4), dx(R4, 3, 4)]

def test_kernel_members_annihilate():
    structure = regular_r4()
    for form in ker_sharp_basis(structure, 2, 1):
        assert sharp(structure, 2, form).is_zero()


# -- foliated cohomology -------------------------------------------------------------

def test_foliated_h1_singular_r3_vanishes():
    for bound in range(2, 7):
        result = foliated_cohomology_dim(singular_r3(), 1, bound)
        assert result.dimension == 0
        assert result.stabilized

def test_foliated_h0_regular_r3_constants():
    result = foliated_cohomology_dim(regular_r3(), 0, 3)
    assert result.dimension == 1

def test_foliated_h1_regular_r4_leafwise_poincare():
    result = foliated_cohomology_dim(regular_r4(), 1, 3)
    assert result.dimension == 0

def test_foliated_full_window_regular_r3():
    for k in range(4):
        expected = 1 if k == 0 else 0
        assert foliated_cohomology_dim(regular_r3(), k, 4).dimension == expected

def test_foliated_degree_out_of_range():
    with pytest.raises(ValueError):
        foliated_cohomology_dim(regular_r3(), 4, 2)


# -- the top-order cocycle condition --------------------------------------------------

def test_cocycle_check_differential_of_coefficient():
    assert np_cocycle_check_top(R2SQ, differential(R3, R2SQ)).is_zero()

def test_cocycle_check_coboundary():
    g = x1 * x2
    alpha = differential(R3, g).scale(R3.scalar(R2SQ))
    assert np_cocycle_check_top(R2SQ, alpha).is_zero()

def test_cocycle_check_nonzero_residual():
    residual = np_cocycle_check_top(R2SQ, dx(R3, 1))
    expected = GradedTensor(R3, FORM, 2, {(0, 1): 2 * x2, (0, 2): 2 * x3})
    assert residual == expected


def test_np_h1_top_dimension_window():
    for bound in range(2, 7):
        report = np_h1_top(R2SQ, bound)
        assert report.dimension == 1

def test_np_h1_top_representative_is_class_of_df():
    report = np_h1_top(R2SQ, 4)
    assert len(report.representatives) == 1
    representative = report.representatives[0]
    # membership solve: representative = c*df + f*dg exactly, with c != 0
    chart = R3
    candidates = [differential(chart, R2SQ)]
    f_scalar = chart.scalar(R2SQ)
    for exponent in monomials_up_to(3, 3):
        if sum(exponent) == 0:
            continue
        mono = Polynomial.monomial(chart.coordinates, exponent)
        candidates.append(differential(chart, mono).scale(f_scalar))
    solution, certificate = solve_in_span(candidates, representative)
    assert solution is not None
    assert solution[0] != 0

def test_np_h1_top_regular_volume_vanishes():
    one = Polynomial.constant(R3.coordinates, 1)
    assert np_h1_top(one, 4).dimension == 0

def test_np_h1_top_df_never_a_coboundary():
    # the obstruction pairing: f*dg never equals d(f) at any bound
    chart = R3
    f_scalar = chart.scalar(R2SQ)
    for bound in (2, 4, 6):
        candidates = []
        for exponent in monomials_up_to(3, bound + 1):
            if sum(exponent) == 0:
                continue
            mono = Polynomial.monomial(chart.coordinates, exponent)
            candidates.append(differential(chart, mono).scale(f_scalar))
        solution, certificate = solve_in_span(candidates, differential(chart, R2SQ))
        assert solution is None
        assert certificate

def test_np_h1_top_bound_precondition():
    with pytest.raises(ValueError):
        np_h1_top(R2SQ, 0)

def test_h1_top_cocycle_operator_matches_sympy():
    # the operator np_h1_top eliminates for singular_r3 at bound 7: 489x360,
    # the 495 rows of the 2-forms of coefficient degree <= 8 less 6 zero rows
    domain = TruncatedBasis.build(R3, FORM, 1, 7)
    operator = TruncatedOperator.build(domain, lambda form: np_cocycle_check_top(R2SQ, form))
    assert (operator.matrix.rows, operator.matrix.cols) == (489, 360)
    assert_elimination_matches_sympy(operator.matrix)


# -- certificates checked without elimination ------------------------------------

MODELS = Path(__file__).resolve().parent.parent / "models"


def _record_labelled_systems(monkeypatch):
    """Keep every (rows by label, column count, target, outcome) that the
    certified solve sees."""
    import nambu.truncation as truncation
    solve = truncation._certified_solve
    systems = []

    def recording(operator, target):
        outcome = solve(operator, target)
        rows = dict(zip(operator.labels, operator.matrix.row_dicts()))
        systems.append((rows, operator.matrix.cols, target, outcome))
        return outcome

    monkeypatch.setattr(truncation, "_certified_solve", recording)
    return systems


def test_labelled_certificates_hold_on_bundled_models(monkeypatch):
    systems = _record_labelled_systems(monkeypatch)
    for path in sorted(MODELS.glob("*.nmb")):
        model = parse_model(path.read_text(encoding="utf-8"))
        structure = model.structure()
        for name, entry in model.bindings.items():
            if entry.kind != "volume":
                continue
            for bound in (2, 5):
                modular_potential(structure, model.volume(name), bound)
                subcomplex_check(structure, model.volume(name), bound)
    certified = 0
    for rows, width, target, (solution, certificate) in systems:
        labels = set(target).union(rows)
        if certificate is None:
            assert len(solution) == width
            for label in labels:
                image = sum((solution[j] * c for j, c in rows.get(label, {}).items()),
                            Fraction(0))
                assert image == target.get(label, 0)
            continue
        certified += 1
        weights = dict(certificate)
        assert len(weights) == len(certificate) and set(weights) <= labels
        assert all(weight != 0 for weight in weights.values())
        for j in range(width):
            assert sum(w * rows.get(label, {}).get(j, 0) for label, w in weights.items()) == 0
        assert sum(w * target.get(label, 0) for label, w in weights.items()) != 0
    assert len(systems) == 16 and 0 < certified < len(systems)


KEYED_OPERATORS = {
    "sharp on singular_r3": (TruncatedBasis.build(R3, FORM, 1, 1),
                             lambda form: sharp(singular_r3(), 1, form)),
    "d on 0-forms": (TruncatedBasis.build(R3, FORM, 0, 2), ext_d),
}


def _aliases(operator):
    """Labels past the key radix whose digits, carried, spell a row's key:
    (I, a + radix e_j - e_(j+1)), and (I', a + radix e_last) for the index I'
    ranked just below I."""
    radix, indices = operator.space.radix, operator.space.indices
    out = []
    for idx, exponent in operator.labels:
        for j in range(len(exponent) - 1):
            if exponent[j + 1]:
                out.append((idx, tuple(e + radix * (k == j) - (k == j + 1)
                                       for k, e in enumerate(exponent))))
        if indices.index(idx):
            out.append((indices[indices.index(idx) - 1],
                        exponent[:-1] + (exponent[-1] + radix,)))
    return out


@st.composite
def keyed_systems(draw):
    """An operator and a target: a combination of its columns plus terms at
    labels of its rows, at labels no row holds, at an index that no image
    holds and at exponents at or past the key radix, some of which would
    alias a row's key."""
    name = draw(st.sampled_from(sorted(KEYED_OPERATORS)))
    operator = TruncatedOperator.build(*KEYED_OPERATORS[name])
    radix = operator.space.radix
    indices = sorted({idx for idx, _ in operator.labels})
    exponents = st.tuples(*[st.integers(0, radix + 1)] * 3)
    labels = st.one_of(st.sampled_from(operator.labels), st.sampled_from(_aliases(operator)),
                       st.tuples(st.sampled_from(indices + [(0, 1, 2)]), exponents))
    coefficients = st.fractions(-3, 3, max_denominator=3).filter(bool)
    target = {}
    for j, c in draw(st.dictionaries(st.integers(0, operator.matrix.cols - 1), coefficients,
                                     max_size=3)).items():
        for label, row in zip(operator.labels, operator.matrix.row_dicts()):
            if j in row:
                target[label] = target.get(label, 0) + c * row[j]
    target.update(draw(st.dictionaries(labels, coefficients, max_size=4)))
    return operator, {label: c for label, c in target.items() if c}


@given(keyed_systems())
@settings(max_examples=60, deadline=None)
def test_keyed_certified_solve_matches_the_labelled_oracle(system):
    # the solution, the certificate's labels and their order are those of
    # the system numbered by labels: the target's first, then each column's
    operator, target = system
    rows = list(zip(operator.labels, operator.matrix.row_dicts()))
    columns = [{label: row[j] for label, row in rows if j in row}
               for j in range(operator.matrix.cols)]
    assert _certified_solve(operator, target) == solve_labelled(columns, target)


# -- canonical homology -----------------------------------------------------------------

def test_canonical_h2_singular_r3_vanishes():
    for bound in range(2, 7):
        assert canonical_homology_dim(singular_r3(), STD3, 2, bound) == 0

def test_canonical_h1_singular_r3():
    assert canonical_homology_dim(singular_r3(), STD3, 1, 4) == 0

def test_canonical_h2_regular_r3():
    assert canonical_homology_dim(regular_r3(), STD3, 2, 4) == 0

def test_canonical_interior_r4():
    assert canonical_homology_dim(regular_r4(), STD4, 1, 3) == 0
    assert canonical_homology_dim(regular_r4(), STD4, 2, 3) == 0

def test_canonical_volume_restrictions():
    weighted = VolumeSpec.weighted(R3, x1)
    with pytest.raises(ValueError):
        canonical_homology_dim(singular_r3(), weighted, 2, 3)
    scaled = VolumeSpec(R3, x1, R3.zero_polynomial())
    with pytest.raises(ValueError):
        canonical_homology_dim(singular_r3(), scaled, 2, 3)

def test_canonical_constant_coefficient_volume_matches_standard():
    doubled = VolumeSpec(R3, Polynomial.constant(R3.coordinates, 2),
                         R3.zero_polynomial())
    assert canonical_homology_dim(singular_r3(), doubled, 2, 3) == \
        canonical_homology_dim(singular_r3(), STD3, 2, 3)

def test_canonical_boundary_that_is_not_a_cycle_is_an_invariant_error():
    with mock.patch("nambu.cohomology.ext_d", sign_flipped_d):
        with pytest.raises(InvariantError, match="escapes the cocycle space"):
            canonical_homology_dim(singular_r3(), STD3, 1, 1)


# -- subcomplex check ----------------------------------------------------------------

def test_subcomplex_no_for_singular_r3():
    for bound in range(0, 9):
        report = subcomplex_check(singular_r3(), STD3, bound)
        assert not report.is_subcomplex
        assert report.certificate

def test_subcomplex_yes_for_r4_with_zero_witness():
    report = subcomplex_check(regular_r4(), STD4, 2)
    assert report.is_subcomplex
    assert report.witness is not None and report.witness.is_zero()

def test_subcomplex_yes_for_weighted_r3():
    volume = VolumeSpec.weighted(R3, x1)
    report = subcomplex_check(regular_r3(), volume, 2)
    assert report.is_subcomplex
    witness = report.witness
    assert witness is not None
    structure = regular_r3()
    from nambu.modular import modular_tensor
    assert sharp(structure, 1, witness) == modular_tensor(structure, volume)


# -- decomposition lemmas ---------------------------------------------------------------

y1, y2 = variables("x1 x2")


def test_naka_pair_radial_example():
    p = y1 + (y1 ** 2 + y2 ** 2) * y1
    q = y2 + (y1 ** 2 + y2 ** 2) * y2
    result = naka_pair(p, q)
    assert result.applicable
    assert (result.a, result.b) == (1, 0)
    assert result.p_tilde == y1
    assert result.q_tilde == y2

def test_naka_pair_rotational_example():
    result = naka_pair(-y2, y1)
    assert result.applicable
    assert (result.a, result.b) == (0, -1)
    assert result.p_tilde.is_zero()
    assert result.q_tilde.is_zero()

def test_naka_pair_zero():
    zero = Polynomial.zero(("x1", "x2"))
    result = naka_pair(zero, zero)
    assert result.applicable
    assert (result.a, result.b) == (0, 0)

def test_naka_pair_not_applicable():
    result = naka_pair(y1, y1)
    assert not result.applicable
    assert result.hypothesis_residual is not None

def test_naka_pair_randomized_forward_compositions():
    rng = random.Random(97)
    chart2 = Chart.of("x1 x2")
    radius = y1 ** 2 + y2 ** 2
    for _ in range(20):
        a = Fraction(rng.randint(-3, 3))
        b = Fraction(rng.randint(-3, 3))
        potential = rand_poly(rng, chart2, max_degree=3)
        pt, qt = potential.diff(0), potential.diff(1)
        p = a * y1 + b * y2 + radius * pt
        q = -b * y1 + a * y2 + radius * qt
        result = naka_pair(p, q)
        assert result.applicable
        rebuilt_p = result.a * y1 + result.b * y2 + radius * result.p_tilde
        rebuilt_q = -result.b * y1 + result.a * y2 + radius * result.q_tilde
        assert rebuilt_p == p and rebuilt_q == q
        assert result.p_tilde.diff(1) == result.q_tilde.diff(0)


z1, z2, z3 = variables("x1 x2 x3")
RADIUS3 = z1 ** 2 + z2 ** 2 + z3 ** 2


def test_naka_triple_linear_example():
    result = naka_triple(z1, z2, z3)
    assert result.applicable
    assert result.a == 1
    assert all(t.is_zero() for t in result.tildes)

def test_naka_triple_pure_tilde_example():
    result = naka_triple(RADIUS3 * z2, RADIUS3 * z1, Polynomial.zero(z1.variables))
    assert result.applicable
    assert result.a == 0
    at, bt, ct = result.tildes
    assert (at, bt) == (z2, z1)
    assert ct.is_zero()

def test_naka_triple_scaled_linear():
    result = naka_triple(2 * z1, 2 * z2, 2 * z3)
    assert result.applicable
    assert result.a == 2

def test_naka_triple_not_applicable():
    result = naka_triple(z1, z1, z1)
    assert not result.applicable
    assert result.failed_relation

def test_naka_triple_names_the_a_for_b_variant():
    # the first two relations and the variant of the third with A x3 in
    # place of B x3 hold; the third itself does not, because A != B
    a_poly = -z1 ** 2 * RADIUS3
    b_poly = (z2 ** 2 + z3 ** 2) * RADIUS3
    c_poly = 4 * z2 * z3 * RADIUS3
    result = naka_triple(a_poly, b_poly, c_poly)
    assert not result.applicable
    assert result.failed_relation == "third (only its A-for-B variant holds)"

def test_naka_triple_randomized_forward_compositions():
    rng = random.Random(101)
    for _ in range(20):
        a = Fraction(rng.randint(-3, 3))
        potential = rand_poly(rng, R3, max_degree=3)
        at, bt, ct = potential.diff(0), potential.diff(1), potential.diff(2)
        inputs = [a * z1 + RADIUS3 * at, a * z2 + RADIUS3 * bt, a * z3 + RADIUS3 * ct]
        result = naka_triple(*inputs)
        assert result.applicable
        rat, rbt, rct = result.tildes
        assert result.a * z1 + RADIUS3 * rat == inputs[0]
        assert result.a * z2 + RADIUS3 * rbt == inputs[1]
        assert result.a * z3 + RADIUS3 * rct == inputs[2]
        assert rat.diff(1) == rbt.diff(0)
        assert rat.diff(2) == rct.diff(0)
        assert rbt.diff(2) == rct.diff(1)


@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3]))
@settings(max_examples=25, deadline=None)
def test_radial_split_matches_the_labelled_system_oracle(seed, m):
    # P = a x + b (x2, -x1) + r^2 dg with deg g <= 4; rotation only on the plane
    rng = random.Random(seed)
    chart = Chart(("x1", "x2", "x3")[:m])
    xs, radius = coords(chart), radius_squared(chart)
    rotation = m == 2
    scalars = [rand_fraction(rng) for _ in range(1 + rotation)]
    g = rand_poly(rng, chart, max_degree=4)
    polys = [scalars[0] * x + radius * g.diff(i) for i, x in enumerate(xs)]
    if rotation:
        polys[0] = polys[0] + scalars[1] * xs[1]
        polys[1] = polys[1] - scalars[1] * xs[0]
    assert all(relation.is_zero() for relation in _radial_relations(polys))
    split = _radial_split(polys, rotation)
    assert split == oracle_radial_split(polys, rotation)
    assert split == (scalars, [g.diff(i) for i in range(m)])


def test_radial_split_solves_in_integers_on_integral_inputs(monkeypatch):
    # every entry that reaches the elimination is an int, and the answers are
    # the known ones and the labelled system's
    rng = random.Random(89)
    cases = []
    for m in (2, 3, 2, 3):
        chart = Chart(("x1", "x2", "x3")[:m])
        xs, radius = coords(chart), radius_squared(chart)
        g = 6 * rand_poly(rng, chart, max_degree=4)
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        polys = [a * x + radius * g.diff(i) for i, x in enumerate(xs)]
        if m == 2:
            polys = [polys[0] + b * xs[1], polys[1] - b * xs[0]]
        split = ([a, b][:4 - m], [g.diff(i) for i in range(m)])
        assert oracle_radial_split(polys, m == 2) == split
        cases.append((polys, split))
    solved = []
    solve = ExactMatrix.solve

    def recording(matrix, rhs):
        solved.append([v for row in matrix.row_dicts() for v in row.values()] + list(rhs))
        return solve(matrix, rhs)

    monkeypatch.setattr(ExactMatrix, "solve", recording)
    radius2 = y1 ** 2 + y2 ** 2
    pair = naka_pair(y1 + radius2 * y1, y2 + radius2 * y2)
    assert (pair.a, pair.b, pair.p_tilde, pair.q_tilde) == (1, 0, y1, y2)
    triple = naka_triple(3 * z1 + RADIUS3 * z2 * z3, 3 * z2 + RADIUS3 * z1 * z3,
                         3 * z3 + RADIUS3 * z1 * z2)
    assert (triple.a, triple.tildes) == (3, (z2 * z3, z1 * z3, z1 * z2))
    for polys, split in cases:
        assert _radial_split(polys, len(polys) == 2) == split
    assert len(solved) == 2 + len(cases)
    assert all(type(v) is int for entries in solved for v in entries)


@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3]))
@settings(max_examples=25, deadline=None)
def test_radial_relations_match_the_expanded_oracle(seed, m):
    # the sign too, so the failed relation that naka-triple names cannot drift
    rng = random.Random(seed)
    chart = Chart(("x1", "x2", "x3")[:m])
    polys = [rand_poly(rng, chart, max_degree=3) for _ in range(m)]
    assert _radial_relations(polys) == oracle_radial_relations(polys)


def test_dimension_window_stability():
    # positive-degree dimensions are non-negative and constant across the
    # window for every acceptance structure
    cases = [
        (singular_r3(), STD3),
        (regular_r3(), STD3),
        (regular_r4(), STD4),
    ]
    for structure, volume in cases:
        n = structure.order
        for degree in range(1, n + 1):
            foliated = [foliated_cohomology_dim(structure, degree, b).dimension
                        for b in (2, 3, 4)]
            assert all(d >= 0 for d in foliated)
            assert len(set(foliated)) == 1, (structure, degree, foliated)
        for degree in range(0, n):
            canonical = [canonical_homology_dim(structure, volume, degree, b)
                         for b in (2, 3, 4)]
            assert all(d >= 0 for d in canonical)
            assert len(set(canonical)) == 1, (structure, degree, canonical)


def test_basic_function_corner_growth():
    # Degree-zero foliated classes are the functions constant along leaves.
    # With a transverse direction that space is all polynomials in the
    # transverse coordinate, so its truncation grows as bound+1 instead of
    # stabilizing; the dual-degree canonical homology counts the same
    # functions, which is why the duality table still matches row by row.
    for bound in (2, 3, 4):
        transverse = bound + 1
        assert foliated_cohomology_dim(regular_r4(), 0, bound).dimension == transverse
        assert canonical_homology_dim(regular_r4(), STD4, 3, bound) == transverse
    # with no transverse direction the corner is just the constants
    for structure in (singular_r3(), regular_r3()):
        for bound in (2, 3, 4):
            assert foliated_cohomology_dim(structure, 0, bound).dimension == 1
            assert canonical_homology_dim(structure, STD3, 3, bound) == 1


@pytest.mark.parametrize("m, bounds", [(4, range(4)), (5, range(4)), (6, range(3))],
                         ids=["m4", "m5", "m6"])
def test_regular_normal_form_matches_the_leafwise_poincare_lemma(m, bounds):
    # e1^e2^e3 on R^m with std: by the leafwise polynomial Poincare lemma only
    # the functions of the m - 3 transverse coordinates survive, foliated in
    # degree 0 and canonical in degree 3, and at bound b there are
    # C(b + m - 3, m - 3) monomials in them
    chart = Chart.of([f"x{i}" for i in range(1, m + 1)])
    structure = NambuStructure(GradedTensor.basis(chart, MULTIVECTOR, (0, 1, 2)))
    complexes = _Complexes(structure, VolumeSpec.standard(chart))
    for bound in bounds:
        transverse = math.comb(bound + m - 3, m - 3)
        assert [complexes.foliated(k, bound) for k in range(4)] == [transverse, 0, 0, 0]
        assert [complexes.canonical(k, bound) for k in range(4)] == [0, 0, 0, transverse]


# -- independent oracles for the truncated engines ------------------------------------------

def _de_rham_dim(chart, degree, bound):
    """Truncated polynomial de Rham dimension, via plain exterior derivative."""
    domain = TruncatedBasis.build(chart, FORM, degree, bound)
    if degree < chart.dimension:
        codomain = TruncatedBasis.build(chart, FORM, degree + 1, bound)
        closed = len(_operator_oracle(domain, codomain, ext_d).nullspace())
    else:
        closed = len(domain)
    exact_rank = 0
    if degree >= 1:
        previous = TruncatedBasis.build(chart, FORM, degree - 1, bound + 1)
        exact_rank = _operator_oracle(previous, domain, ext_d).rank()
    return closed - exact_rank


def test_canonical_homology_matches_de_rham_oracle():
    # On a 3-chart with trivial annihilator the boundary is the exterior
    # derivative conjugated through the volume, so homology in degree k must
    # equal de Rham cohomology in degree m-k; the oracle never touches the
    # tangency or boundary machinery.
    for structure in (singular_r3(), regular_r3()):
        for degree in (1, 2, 3):
            for bound in (2, 3):
                expected = _de_rham_dim(R3, 3 - degree, bound)
                assert canonical_homology_dim(structure, STD3, degree, bound) == expected


def _leafwise_dim(degree, bound):
    """Truncated leafwise cohomology of the 4-chart normal form, built from
    scratch: forms in the first three differentials with 4-variable
    coefficients, differentiated along the leaf directions only."""
    import itertools
    from fractions import Fraction
    from nambu.truncation import monomials_up_to as monos

    leaf_indices = list(itertools.combinations(range(3), degree))
    lower_indices = list(itertools.combinations(range(3), degree - 1)) if degree else []
    upper_indices = list(itertools.combinations(range(3), degree + 1))

    def basis(indices, b):
        return [(idx, mono) for idx in indices for mono in monos(4, b)]

    def d_matrix(source_indices, target_indices, source_bound, target_bound):
        source = basis(source_indices, source_bound)
        target = basis(target_indices, target_bound)
        position = {element: i for i, element in enumerate(target)}
        from nambu.algebra import ExactMatrix, Polynomial
        rows = [{} for _ in target]
        from nambu.exterior import merge_indices
        for j, (idx, mono) in enumerate(source):
            coeff = Polynomial.monomial(("x1", "x2", "x3", "x4"), mono)
            for axis in range(3):
                partial = coeff.diff(axis)
                if partial.is_zero():
                    continue
                merged = merge_indices((axis,), idx)
                if merged is None:
                    continue
                sign, key = merged
                for exponent, value in partial.terms.items():
                    row = rows[position[(key, exponent)]]
                    total = row.get(j, 0) + (value if sign > 0 else -value)
                    if total:
                        row[j] = total
                    else:
                        row.pop(j, None)
        return ExactMatrix(len(target), len(source), rows)

    if degree < 3:
        closed = len(d_matrix(leaf_indices, upper_indices, bound, bound).nullspace())
    else:
        closed = len(basis(leaf_indices, bound))
    exact_rank = 0
    if degree >= 1:
        exact_rank = d_matrix(lower_indices, leaf_indices, bound + 1, bound).rank()
    return closed - exact_rank


def test_foliated_matches_leafwise_oracle_r4():
    structure = regular_r4()
    for degree in range(4):
        for bound in (2, 3):
            expected = _leafwise_dim(degree, bound)
            assert foliated_cohomology_dim(structure, degree, bound).dimension == expected


def _naive_rank(vectors):
    """Rank by plain Gaussian elimination on the vectors taken as rows."""
    rows = [list(v) for v in vectors]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            factor = rows[r][col] / rows[rank][col]
            rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _greedy_rank_extension(base, candidates):
    """Reference: re-rank the span once per candidate, keeping those that grow it."""
    current = list(base)
    chosen = []
    for pos, vec in enumerate(candidates):
        if _naive_rank(current + [vec]) > _naive_rank(current):
            chosen.append(pos)
            current.append(vec)
    return _naive_rank(base), chosen


sparse_entries = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)),
                           st.fractions(-3, 3, max_denominator=4))


@st.composite
def column_sets(draw):
    length = draw(st.integers(0, 5))
    column = st.lists(sparse_entries, min_size=length, max_size=length)
    return length, draw(st.lists(column, max_size=4)), draw(st.lists(column, max_size=6))


F = Fraction


@given(column_sets())
@example((3, [], [[F(1), F(0), F(0)], [F(2), F(0), F(0)], [F(0), F(1), F(0)]]))
@example((3, [[F(1), F(0), F(0)], [F(0), F(0), F(0)]], []))
@example((2, [], []))
@settings(max_examples=80, deadline=None)
def test_span_rank_extension_matches_greedy_rerank(case):
    length, base, candidates = case

    def sparse(vectors):
        return [{i: v for i, v in enumerate(vec) if v != 0} for vec in vectors]

    assert _span_rank_extension(sparse(base), sparse(candidates), length) == \
        _greedy_rank_extension(base, candidates)


def test_annihilates_is_the_containment_check():
    matrix = dense([[1, -1], [2, -2]])
    assert _annihilates(matrix, [])
    assert _annihilates(matrix, [{0: F(1), 1: F(1)}, {0: F(-3), 1: F(-3)}])
    assert not _annihilates(matrix, [{0: F(1), 1: F(1)}, {0: F(1)}])


@pytest.mark.parametrize("rows, vectors, expected", [
    # fractional entries whose products cancel
    ([[F(1, 2), F(1, 3)]], [{0: F(2, 3), 1: F(-1)}], True),
    ([[1, 1, -2], [F(1, 4), F(-1, 12), 0]], [{0: F(1, 2), 1: F(3, 2), 2: F(1)}], True),
    # a row denominator off the vectors' support does not enter the product
    ([[F(1, 7), F(1, 2), F(-1, 3)]], [{1: F(2, 3), 2: F(1)}, {}], True),
    # non-zero products of fractional entries, in a later vector or row
    ([[F(1, 2), F(1, 3)]], [{0: F(2, 3), 1: F(-1)}, {0: F(1, 2), 1: F(1, 3)}], False),
    ([[F(1, 3), 0], [0, 1]], [{0: F(1)}], False),
    ([[1, 0], [F(5, 6), F(-1, 2)]], [{1: F(1, 5)}], False),
])
def test_annihilates_clears_denominators_exactly(rows, vectors, expected):
    matrix = dense(rows)
    fraction_product = not any(oracle_apply(matrix, vectors))
    assert fraction_product == expected
    assert _annihilates(matrix, vectors) == expected


def test_annihilates_rejects_vectors_longer_than_the_rows():
    with pytest.raises(ValueError, match="row index"):
        _annihilates(dense([[1, 1]]), [{2: F(1)}])


@st.composite
def contained_systems(draw):
    """A random C and B inside ker C: rational combinations of its kernel."""
    length = draw(st.integers(0, 8))
    rows = draw(st.lists(st.lists(sparse_entries, min_size=length, max_size=length),
                         max_size=6))
    cocycle = ExactMatrix(len(rows), length,
                          [{j: v for j, v in enumerate(row) if v} for row in rows])
    kernel = cocycle.nullspace()
    boundaries = []
    for _ in range(draw(st.integers(0, len(kernel) + 2))):
        weights = draw(st.lists(sparse_entries, min_size=len(kernel), max_size=len(kernel)))
        total: dict[int, Fraction] = {}
        for weight, vector in zip(weights, kernel):
            for i, v in vector.items():
                total[i] = total.get(i, F(0)) + weight * v
        boundaries.append({i: v for i, v in total.items() if v})
    return cocycle, boundaries, length


@given(contained_systems())
@settings(max_examples=150, deadline=None)
def test_complement_kernel_matches_the_full_nullspace_oracle(system):
    cocycle, boundaries, length = system
    boundary_rank, kernel = _complement_kernel(cocycle, boundaries)
    dimension, cocycles, coboundaries, _ = oracle_quotient(cocycle, boundaries, length)
    assert (len(kernel), boundary_rank + len(kernel), boundary_rank) == \
        (dimension, cocycles, coboundaries)
    for vector in kernel:
        for row in cocycle.row_dicts():
            assert sum(v * vector.get(j, 0) for j, v in row.items()) == 0
    assert matrix_from_columns(boundaries + kernel, length).rank() == \
        matrix_from_columns(boundaries, length).rank() + dimension


def test_complement_kernel_checks_containment_first():
    cocycle = dense([[1, -1]])
    with pytest.raises(RuntimeError, match="escapes the cocycle space"):
        _complement_kernel(cocycle, [{0: F(1)}])
    assert _complement_kernel(cocycle, [{0: F(1, 2), 1: F(1, 2)}]) == (1, [])


@st.composite
def integer_systems(draw):
    """A random sparse integer C, up to 12 x 12, and B inside ker C: integer
    combinations of its nullspace basis, with zero vectors and repeats."""
    height, length = draw(st.integers(0, 12)), draw(st.integers(0, 12))
    entries = st.sampled_from([0, 0, 0, 1, -1, 2, -3])
    rows = draw(st.lists(st.lists(entries, min_size=length, max_size=length),
                         min_size=height, max_size=height))
    cycles = ExactMatrix(height, length, [{j: v for j, v in enumerate(row) if v} for row in rows])
    kernel = cycles.nullspace()
    weights = st.lists(st.integers(-2, 2), min_size=len(kernel), max_size=len(kernel))
    boundaries = []
    for weight in draw(st.lists(weights | st.just([0] * len(kernel)), max_size=len(kernel) + 2)):
        total: dict[int, Fraction] = {}
        for w, vector in zip(weight, kernel):
            for i, v in vector.items():
                total[i] = total.get(i, 0) + w * v
        boundaries.append({i: v for i, v in total.items() if v})
    if boundaries:
        boundaries += map(dict, draw(st.lists(st.sampled_from(boundaries), max_size=2)))
    return cycles, boundaries


@given(integer_systems())
@settings(max_examples=200, deadline=None)
def test_complement_kernel_matches_the_renumbering_oracle(system):
    # emptying the pivot columns of B in C gives the renumbered kernel, in order
    cycles, boundaries = system
    assert _complement_kernel(cycles, boundaries) == \
        oracle_complement_kernel(cycles, boundaries)


def _h1_top_system(coefficient, bound):
    """The domain, cocycle matrix and coboundary vectors np_h1_top reduces."""
    chart = Chart(coefficient.variables)
    deg_f = max(coefficient.total_degree(), 0)
    domain = TruncatedBasis.build(chart, FORM, 1, bound)
    cocycle = TruncatedOperator.build(
        domain, lambda form: np_cocycle_check_top(coefficient, form)).matrix
    generators = TruncatedBasis.build(chart, FORM, 0, bound + 1 - deg_f)
    coboundaries = TruncatedOperator.build(
        generators, lambda g: ext_d(g).scale(coefficient)).coordinates_in(domain)[1:]
    return domain, cocycle, coboundaries


@pytest.mark.parametrize("bound", range(4, 9))
@pytest.mark.parametrize("coefficient", [
    R2SQ, x1 ** 3, x1 * x2 * x3, x1, x1 ** 2 * x2 + x3 ** 3, Polynomial.constant(R3.coordinates, 1),
], ids=["r2", "x1^3", "x1x2x3", "x1", "x1^2x2+x3^3", "1"])
def test_np_h1_top_matches_the_full_nullspace_oracle(coefficient, bound):
    report = np_h1_top(coefficient, bound)
    domain, cocycle, coboundaries = _h1_top_system(coefficient, bound)
    dimension, cocycles, boundary_rank, kernel = oracle_quotient(
        cocycle, coboundaries, len(domain))
    assert (report.dimension, report.cocycle_dimension, report.coboundary_dimension) == \
        (dimension, cocycles, boundary_rank)
    assert report.representatives == tuple(domain.from_coordinates(v) for v in kernel)


# -- duality -------------------------------------------------------------------------------

def _assert_quotients_match_nullity_minus_rank(structure, bound, volume=None):
    volume = volume or VolumeSpec.standard(structure.chart)
    for degree in range(structure.order + 1):
        assert _Complexes(structure).foliated(degree, bound) == \
            oracle_foliated_dimension(structure, degree, bound)
        assert canonical_homology_dim(structure, volume, degree, bound) == \
            oracle_canonical_dimension(structure, volume, degree, bound)


@pytest.mark.parametrize("bound", range(4))
@pytest.mark.parametrize("structure", [regular_r3(), regular_r4(), singular_r3()],
                         ids=["regular_r3", "regular_r4", "singular_r3"])
def test_quotient_dimensions_match_nullity_minus_rank(structure, bound):
    _assert_quotients_match_nullity_minus_rank(structure, bound)


def _jacobian_r4(power):
    """i(d phi)(e1^e2^e3^e4) for phi = (x1^(p+1) + ... + x4^(p+1)) / (p+1),
    p = ``power``: an order-3 structure on R^4 with coefficients of degree p."""
    ys = [x ** power for x in coords(R4)]
    return NambuStructure(GradedTensor(R4, MULTIVECTOR, 3, {
        (1, 2, 3): ys[0], (0, 2, 3): -ys[1], (0, 1, 3): ys[2], (0, 1, 2): -ys[3]}))


def _mixed_r4():
    """(1 + x1^2) @2^@3^@4 + x2 @1^@3^@4, whose annihilators are not constant."""
    y1, y2 = coords(R4)[:2]
    return NambuStructure(GradedTensor(R4, MULTIVECTOR, 3, {
        (1, 2, 3): 1 + y1 * y1, (0, 2, 3): y2}))


def _beyond_top_order_and_constant():
    """Structures whose annihilators are not constant, or whose chart exceeds
    the order by two, with the volume each is checked under."""
    doubled = VolumeSpec(R4, Polynomial.constant(R4.coordinates, 2), R4.zero_polynomial())
    return [(_jacobian_r4(1), doubled), (_jacobian_r4(2), STD4),
            (_mixed_r4(), STD4),
            (NambuStructure(GradedTensor.basis(R5, MULTIVECTOR, (0, 1, 2))),
             VolumeSpec.standard(R5))]


@pytest.mark.parametrize("bound", range(4))
@pytest.mark.parametrize("structure, volume", _beyond_top_order_and_constant(),
                         ids=["linear_jacobian", "quadratic_jacobian", "mixed_r4", "regular_r5"])
def test_tangency_quotient_dimensions_match_nullity_minus_rank(structure, volume, bound):
    _assert_quotients_match_nullity_minus_rank(structure, bound, volume)
    # duality pairs foliated k with canonical m - k, which sit in other rows
    # when the chart exceeds the order; each row still reads its own degrees
    n = structure.order
    assert [(row.foliated_dimension, row.canonical_dimension)
            for row in duality_report(structure, volume, bound).rows] == [
        (_Complexes(structure).foliated(degree, bound),
         canonical_homology_dim(structure, volume, n - degree, bound))
        for degree in range(n + 1)]


@pytest.mark.parametrize("bound", range(4))
@pytest.mark.parametrize("structure, volume", [
    (singular_r3(), STD3), (regular_r3(), STD3), (regular_r4(), STD4),
    _beyond_top_order_and_constant()[0], _beyond_top_order_and_constant()[3]],
    ids=["singular_r3", "regular_r3", "regular_r4", "linear_jacobian", "regular_r5"])
def test_duality_drains_every_shared_d(monkeypatch, structure, volume, bound):
    # a shared d is held for two reads; an unread hold outlives its row
    import nambu.cohomology as cohomology
    made = []

    class Recording(_Complexes):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(cohomology, "_Complexes", Recording)
    try:
        duality_report(structure, volume, bound)
    except ValueError as error:
        # singular_r3 has no h1-top at bound 0, checked before any quotient
        assert "below deg(f) - 1" in str(error)
        assert made == []
        return
    held = [vectors for key, vectors in made[0]._made.items() if key[0] == "shared d"]
    assert len(made) == 1 and held and not any(held)


def test_linear_jacobian_canonical_dimensions():
    structure, volume = _beyond_top_order_and_constant()[0]
    assert [canonical_homology_dim(structure, volume, degree, 2)
            for degree in range(4)] == [2, 0, 0, 1]


@pytest.mark.parametrize("structure", [
    singular_r3(), regular_r3(), regular_r4(), _jacobian_r4(1), _mixed_r4()],
    ids=["singular_r3", "regular_r3", "regular_r4", "linear_jacobian", "mixed_r4"])
def test_held_sharp_kernels_are_the_coordinates_of_ker_sharp_basis(structure):
    complexes = _Complexes(structure)
    for degree in range(structure.order + 1):
        for bound in range(5):
            domain = TruncatedBasis.build(structure.chart, FORM, degree, bound)
            assert complexes._kernel(domain) == [
                domain.to_coordinates(form)
                for form in ker_sharp_basis(structure, degree, bound)]


@pytest.mark.parametrize("structure", [regular_r4(), _mixed_r4()],
                         ids=["regular_r4", "mixed_r4"])
def test_quotients_leave_the_held_sharp_kernels_unchanged(structure):
    # foliated's boundaries for _quotient end with the held vectors
    complexes = _Complexes(structure, STD4)
    held = {}
    for degree in range(structure.order + 1):
        for bound in (2, 3):
            domain = TruncatedBasis.build(structure.chart, FORM, degree, bound)
            kernel = complexes._kernel(domain)
            held[domain] = kernel, [dict(vector) for vector in kernel]
    assert any(kernel for kernel, _ in held.values())
    for degree in range(structure.order + 1):
        complexes.foliated(degree, 2)
        complexes.canonical(degree, 2)
        complexes.foliated(degree, 3)
    for domain, (kernel, copied) in held.items():
        assert complexes._kernel(domain) is kernel
        assert kernel == copied


top_coefficients = st.dictionaries(
    st.sampled_from(monomials_up_to(3, 2)),
    st.fractions(min_value=-3, max_value=3, max_denominator=2).filter(bool),
    min_size=1, max_size=3)


@given(top_coefficients, st.integers(0, 2))
@settings(max_examples=25, deadline=None)
def test_top_order_quotient_dimensions_match_nullity_minus_rank(terms, bound):
    coefficient = Polynomial(R3.coordinates, terms)
    structure = NambuStructure(GradedTensor(R3, MULTIVECTOR, 3, {(0, 1, 2): coefficient}))
    _assert_quotients_match_nullity_minus_rank(structure, bound)


def test_duality_fails_for_singular_r3():
    report = duality_report(singular_r3(), STD3, 4)
    assert not report.holds
    assert report.verdict == "duality FAILS"
    row1 = report.rows[1]
    assert row1.np_dimension == 1
    assert row1.foliated_dimension == 0
    assert row1.canonical_dimension == 0

def test_duality_holds_regular_r3():
    report = duality_report(regular_r3(), STD3, 4)
    assert report.holds
    for row in report.rows:
        assert row.np_dimension is not None
        assert row.np_dimension == row.canonical_dimension == row.foliated_dimension

def test_duality_holds_regular_r4():
    report = duality_report(regular_r4(), STD4, 4)
    assert report.holds
    for row in report.rows:
        assert row.np_dimension == row.canonical_dimension == row.foliated_dimension

@pytest.mark.parametrize("structure, volume", [(singular_r3(), STD3), (regular_r4(), STD4)])
def test_duality_builds_each_operator_once(monkeypatch, structure, volume):
    # an operator is named by its domain and the images of the domain's basis
    build = TruncatedOperator.build.__func__
    seen = []

    def recording_build(cls, domain, mapping):
        images = tuple(mapping(basis_tensor(domain, j)) for j in range(len(domain)))
        seen.append((domain, images))
        return build(cls, domain, mapping)

    monkeypatch.setattr(TruncatedOperator, "build", classmethod(recording_build))
    duality_report(structure, volume, 2)
    assert len(seen) == len(set(seen))
    degree_one = TruncatedBasis.build(structure.chart, FORM, 1, 2)
    sharp_images = tuple(sharp(structure, 1, basis_tensor(degree_one, j))
                         for j in range(len(degree_one)))
    assert seen.count((degree_one, sharp_images)) == 1


# -- invariance under a linear change of coordinates --------------------------------------

def _answers(structure, volume, bound):
    """What every report says at one bound, with a usage error as an answer:
    h1-top's three dimensions, the duality rows and verdict, the feasibility
    of the potential and of the subcomplex, and the foliated and canonical
    dimensions at each degree."""
    def attempt(compute):
        try:
            return compute()
        except ValueError as error:
            return str(error)

    def h1_top():
        report = np_h1_top(structure.top_coefficient(), bound)
        return report.dimension, report.cocycle_dimension, report.coboundary_dimension

    def duality():
        report = duality_report(structure, volume, bound)
        return report.rows, report.verdict

    degrees = range(structure.order + 1)
    return (attempt(h1_top) if structure.is_top_order else None, attempt(duality),
            modular_potential(structure, volume, bound).feasible,
            subcomplex_check(structure, volume, bound).is_subcomplex,
            [foliated_cohomology_dim(structure, k, bound) for k in degrees],
            [attempt(lambda k=k: canonical_homology_dim(structure, volume, k, bound))
             for k in degrees])


INVARIANCE_CASES = {
    "singular_r3": (singular_r3(), STD3), "regular_r3": (regular_r3(), STD3),
    "regular_r3_W": (regular_r3(), VolumeSpec.weighted(R3, x1)),
    "regular_r4": (regular_r4(), STD4)}


@functools.cache
def _original_answers(case, bound):
    return _answers(*INVARIANCE_CASES[case], bound)


@st.composite
def unimodular(draw, size):
    """An integer matrix with det +-1 and entries in -2..2: a signed
    permutation, then row operations r_i += c r_j that keep the entries in
    range."""
    order = draw(st.permutations(range(size)))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=size, max_size=size))
    matrix = [[signs[i] * int(j == order[i]) for j in range(size)] for i in range(size)]
    steps = st.tuples(st.integers(0, size - 1), st.integers(0, size - 1),
                      st.sampled_from((1, -1, 2, -2)))
    for i, j, c in draw(st.lists(steps, max_size=6)):
        row = [a + c * b for a, b in zip(matrix[i], matrix[j])]
        if i != j and max(map(abs, row)) <= 2:
            matrix[i] = row
    return matrix


@st.composite
def invertible(draw, size):
    """A ``unimodular`` matrix with each row scaled by a non-zero rational, so
    that the pulled-back coefficients may be Fractions."""
    scales = draw(st.lists(st.sampled_from((1, -1, Fraction(1, 2), Fraction(-5, 7), 3,
                                            Fraction(2, 3))), min_size=size, max_size=size))
    return [[d * a for a in row] for d, row in zip(scales, draw(unimodular(size)))]


@pytest.mark.parametrize("case", INVARIANCE_CASES)
@given(data=st.data(), bound=st.integers(0, 3))
@settings(max_examples=25, deadline=None)
def test_reports_do_not_depend_on_linear_coordinates(case, data, bound):
    # x = A y keeps every coefficient degree, so each truncated space maps
    # onto its pull-back and every dimension and feasibility is the same
    structure, volume = INVARIANCE_CASES[case]
    matrix = data.draw(invertible(structure.chart.dimension), label="A")
    assert _answers(*pull_back(structure, volume, matrix), bound) == \
        _original_answers(case, bound)


WITNESS_WEIGHTS = {"x1": x1, "x1^2 + x2*x3 - x3": x1 * x1 + x2 * x3 - x3,
                   "x1*x2*x3": x1 * x2 * x3}


@pytest.mark.parametrize("weight", WITNESS_WEIGHTS.values(), ids=WITNESS_WEIGHTS)
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_witnesses_transform_with_linear_coordinates(weight, data):
    # for f = 1 sharp is injective on 1-forms, and g -> sharp(dg) kills only
    # the constants, which the solve sets to 0: so under x = A y the potential
    # is exactly p(A y) and the witness exactly sum_i w_i(A y) sum_j A_ij dy_j
    volume = VolumeSpec.weighted(R3, weight)
    matrix = data.draw(unimodular(3), label="A")
    pulled = pull_back(regular_r3(), volume, matrix)
    potential = modular_potential(regular_r3(), volume, 3).potential
    assert modular_potential(*pulled, 3).potential == compose_linear(potential, matrix)
    witness = subcomplex_check(regular_r3(), volume, 3).witness
    composed = [compose_linear(witness.component((i,)), matrix) for i in range(3)]
    assert subcomplex_check(*pulled, 3).witness == sum(
        (GradedTensor.basis(R3, FORM, (j,)).scale(composed[i] * a)
         for i, row in enumerate(matrix) for j, a in enumerate(row)),
        GradedTensor.zero(R3, FORM, 1))


# -- form-represented cochains and the chain map -----------------------------------------

def test_cochain_value_matches_pairing():
    structure = singular_r3()
    alpha = dx(R3, 1)
    args = [dx(R3, 1, 2)]
    value = form_cochain_value(structure, alpha, args)
    assert value == pair(alpha, sharp(structure, 2, args[0]))

def test_chain_map_identity_random():
    # coboundary of the cochain of a form equals the cochain of its derivative
    rng = random.Random(103)
    for structure in (singular_r3(), regular_r4()):
        n = structure.order
        chart = structure.chart
        for k in (1, 2):
            for _ in range(12):
                form = rand_form(rng, chart, k, max_degree=2)
                args = [rand_form(rng, chart, n - 1, max_degree=2) for _ in range(k + 1)]
                lhs = form_cochain_coboundary(structure, form, args)
                rhs = form_cochain_value(structure, ext_d(form), args)
                assert lhs == rhs
