"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single CRITERION line so a run of this module doubles as
the acceptance report.  Time budgets are asserted where the criterion
states one.  All symbolic checks are exact: zero tolerance means exact
equality of rational coefficients.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

from nambu.algebra import Polynomial
from nambu.cohomology import (
    duality_report,
    naka_pair,
    naka_triple,
    np_h1_top,
    subcomplex_check,
)
from nambu.exterior import (
    FORM,
    MULTIVECTOR,
    GradedTensor,
    apply_vector,
    contract_form,
    differential,
    ext_d,
    lie_form,
    lie_mv,
    pair,
)
from nambu.flows import FlowConfig, conservation_report, integrate_hamiltonian
from nambu.modular import (
    VolumeSpec,
    basic_volume,
    check_basic,
    delta,
    divergence,
    flat,
    is_tangent,
    modular_potential,
    modular_tensor,
)
from nambu.structures import hamiltonian_vf, leibniz_bracket, sharp
from nambu.truncation import monomials_up_to, solve_in_span
from support import (
    R3,
    R4,
    coords,
    radius_squared,
    rand_form,
    rand_mv,
    rand_poly,
    rand_vector_field,
    regular_r3,
    regular_r4,
    singular_r3,
)

x1, x2, x3 = coords(R3)
R2SQ = radius_squared(R3)
STD3 = VolumeSpec.standard(R3)
STD4 = VolumeSpec.standard(R4)


def dx(chart, *indices):
    return GradedTensor.basis(chart, FORM, tuple(i - 1 for i in indices))


def ee(chart, *indices):
    return GradedTensor.basis(chart, MULTIVECTOR, tuple(i - 1 for i in indices))


def report(number: int, description: str):
    print(f"CRITERION {number:02d} PASS: {description}")


def random_volume(rng, chart, allow_u=True, allow_weight=True):
    u = Polynomial.constant(chart.coordinates, 1)
    w = chart.zero_polynomial()
    if allow_u and rng.random() < 0.4:
        u = rand_poly(rng, chart, max_degree=1, allow_zero=False)
    if allow_weight and rng.random() < 0.4:
        w = rand_poly(rng, chart, max_degree=2)
    return VolumeSpec(chart, u, w)


def test_criterion_01_section7_golden_values():
    started = time.perf_counter()
    structure = singular_r3()
    assert hamiltonian_vf(structure, x1, x2) == ee(R3, 3).scale(R2SQ)
    assert hamiltonian_vf(structure, x1, x3) == ee(R3, 2).scale(-R2SQ)
    assert hamiltonian_vf(structure, x2, x3) == ee(R3, 1).scale(R2SQ)
    expected = (ee(R3, 1, 2).scale(2 * x3) - ee(R3, 1, 3).scale(2 * x2)
                + ee(R3, 2, 3).scale(2 * x1))
    assert modular_tensor(structure, STD3) == expected
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    report(1, f"Hamiltonian fields and modular tensor match exactly ({elapsed:.2f}s)")


def test_criterion_02_modular_potential_infeasible_all_bounds():
    started = time.perf_counter()
    structure = singular_r3()
    for bound in range(0, 9):
        outcome = modular_potential(structure, STD3, bound)
        assert not outcome.feasible
        assert outcome.certificate, f"missing certificate at bound {bound}"
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    report(2, f"potential infeasible with certificates for bounds 0..8 ({elapsed:.2f}s)")


def test_criterion_03_truncated_first_cohomology():
    started = time.perf_counter()
    reference = differential(R3, R2SQ)
    f_scalar = R3.scalar(R2SQ)
    for bound in range(2, 7):
        outcome = np_h1_top(R2SQ, bound)
        assert outcome.dimension == 1, f"dimension {outcome.dimension} at bound {bound}"
        assert len(outcome.representatives) == 1
        # membership solve: representative = c * d(f) + f * dg with c != 0
        candidates = [reference]
        for exponent in monomials_up_to(3, bound + 1 - 2):
            if sum(exponent) == 0:
                continue
            mono = Polynomial.monomial(R3.coordinates, exponent)
            candidates.append(differential(R3, mono).scale(f_scalar))
        solution, _ = solve_in_span(candidates, outcome.representatives[0])
        assert solution is not None and solution[0] != 0
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    report(3, f"H1 = 1 at bounds 2..6 with representative ~ d(f) ({elapsed:.2f}s)")


def test_criterion_04_duality_failure_singular():
    outcome = duality_report(singular_r3(), STD3, 4)
    row = outcome.rows[1]
    assert row.np_dimension == 1
    assert row.canonical_dimension == 0
    assert row.foliated_dimension == 0
    assert not outcome.holds
    assert outcome.verdict == "duality FAILS"
    report(4, "singular example: NP H1 = 1, canonical H2 = 0, foliated H1 = 0, FAILS")


def test_criterion_05_regular_duality_sanity():
    for structure, volume, label in ((regular_r3(), STD3, "3-chart"),
                                     (regular_r4(), STD4, "4-chart")):
        started = time.perf_counter()
        outcome = duality_report(structure, volume, 4)
        elapsed = time.perf_counter() - started
        assert outcome.holds, f"duality failed on the regular {label}"
        for row in outcome.rows:
            assert row.np_dimension == row.foliated_dimension == row.canonical_dimension
        assert elapsed < 10.0
    report(5, "regular structures: all compared dimensions agree, verdict holds")


def test_criterion_06_identity_suites():
    started = time.perf_counter()
    rng = random.Random(2024)
    n_instances = 50

    # boundary contraction rule: i(a) delta(P) = div(i(a)P) + (-1)^k i(da)P
    for _ in range(n_instances):
        chart = rng.choice([R3, R4])
        volume = random_volume(rng, chart)
        k = rng.randint(1, 3)
        p = rand_mv(rng, chart, k, max_degree=3)
        alpha = rand_form(rng, chart, k - 1, max_degree=3)
        lhs = pair(alpha, delta(volume, p))
        term = pair(ext_d(alpha), p)
        if k % 2:
            term = -term
        assert lhs == divergence(volume, contract_form(alpha, p)) + term

    # flat/Lie compatibility: L_X flat(P) = flat(L_X P) + div(X) flat(P)
    for _ in range(n_instances):
        chart = rng.choice([R3, R4])
        volume = random_volume(rng, chart, allow_weight=False)
        x = rand_vector_field(rng, chart, max_degree=3)
        p = rand_mv(rng, chart, rng.randint(1, 3), max_degree=3)
        lhs = lie_form(x, flat(volume, p).body)
        rhs = (flat(volume, lie_mv(x, p)).body
               + flat(volume, p).body.scale(divergence(volume, x)))
        assert lhs == rhs

    # divergence of the image field: div(sharp a) = i(a) delta(L) + (-1)^{n-1} i(da)L
    structure = singular_r3()
    for _ in range(n_instances):
        volume = random_volume(rng, R3)
        alpha = rand_form(rng, R3, 2, max_degree=3)
        lhs = divergence(volume, sharp(structure, 2, alpha))
        boundary = delta(volume, structure.tensor)
        tail = contract_form(ext_d(alpha), structure.tensor).scalar_value()
        assert lhs == pair(alpha, boundary) + tail

    # boundary of the image: delta(sharp_k b) = (-1)^{n-1} sharp_{k+1}(db) + i(b)M
    for _ in range(n_instances):
        struct = rng.choice([singular_r3(), regular_r3(), regular_r4()])
        chart = struct.chart
        volume = random_volume(rng, chart)
        k = rng.randint(0, struct.order - 1)
        beta = rand_form(rng, chart, k, max_degree=3)
        tensor = modular_tensor(struct, volume)
        lhs = delta(volume, sharp(struct, k, beta))
        rhs = sharp(struct, k + 1, ext_d(beta)) + contract_form(beta, tensor)
        assert lhs == rhs

    # anchor identity: sharp of the bracket is the commutator of the sharps
    for _ in range(n_instances):
        struct = rng.choice([singular_r3(), regular_r3(), regular_r4()])
        n = struct.order
        a = rand_form(rng, struct.chart, n - 1, max_degree=3)
        b = rand_form(rng, struct.chart, n - 1, max_degree=3)
        lhs = sharp(struct, n - 1, leibniz_bracket(struct, a, b))
        rhs = lie_mv(sharp(struct, n - 1, a), sharp(struct, n - 1, b))
        assert lhs == rhs

    # Leibniz identity of the bracket
    for _ in range(n_instances):
        struct = rng.choice([singular_r3(), regular_r4()])
        n = struct.order
        a, b, c = (rand_form(rng, struct.chart, n - 1, max_degree=2) for _ in range(3))
        lhs = leibniz_bracket(struct, a, leibniz_bracket(struct, b, c))
        rhs = (leibniz_bracket(struct, leibniz_bracket(struct, a, b), c)
               + leibniz_bracket(struct, b, leibniz_bracket(struct, a, c)))
        assert lhs == rhs

    # center property on the regular 4-chart: annihilated forms bracket to
    # zero against every basis form and against a random form
    struct4 = regular_r4()
    basis_two_forms = [GradedTensor.basis(R4, FORM, combo)
                       for combo in [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]]
    for _ in range(n_instances):
        components = {}
        for i in range(3):
            components[(i, 3)] = rand_poly(rng, R4, max_degree=3)
        alpha = GradedTensor(R4, FORM, 2, components)
        assert sharp(struct4, 2, alpha).is_zero()
        for beta in basis_two_forms:
            assert leibniz_bracket(struct4, alpha, beta).is_zero()
        assert leibniz_bracket(struct4, alpha,
                               rand_form(rng, R4, 2, max_degree=3)).is_zero()

    # volume change: with nu' = f nu and scaling P -> P/f the boundaries commute
    for _ in range(n_instances):
        chart = rng.choice([R3, R4])
        base = random_volume(rng, chart, allow_u=True, allow_weight=False)
        f = rand_poly(rng, chart, max_degree=2, allow_zero=False)
        rescaled = VolumeSpec(chart, base.coefficient * f, chart.zero_polynomial())
        p = rand_mv(rng, chart, rng.randint(1, 3), max_degree=2)
        scaled = p.scale(chart.scalar(1) / chart.scalar(f))
        lhs = delta(rescaled, scaled)
        rhs = delta(base, p).scale(chart.scalar(1) / chart.scalar(f))
        assert lhs == rhs

    # tangency preservation under the boundary
    for _ in range(n_instances):
        struct = rng.choice([singular_r3(), regular_r4()])
        chart = struct.chart
        volume = VolumeSpec.standard(chart)
        if struct.chart is R4:
            components = {}
            for combo in [(0, 1), (0, 2), (1, 2)]:
                components[combo] = rand_poly(rng, R4, max_degree=3)
            p = GradedTensor(R4, MULTIVECTOR, 2, components)
        else:
            p = rand_mv(rng, chart, rng.randint(1, 3), max_degree=3)
        assert is_tangent(struct, p, 2)
        image = delta(volume, p)
        if image.degree >= 1:
            assert is_tangent(struct, image, 2)

    # modular cocycle identity
    for _ in range(n_instances):
        struct = rng.choice([singular_r3(), regular_r4()])
        chart = struct.chart
        volume = random_volume(rng, chart)
        n = struct.order
        alpha = rand_form(rng, chart, n - 1, max_degree=2)
        beta = rand_form(rng, chart, n - 1, max_degree=2)
        tensor = modular_tensor(struct, volume)
        lhs = apply_vector(sharp(struct, n - 1, alpha), pair(beta, tensor))
        mid = apply_vector(sharp(struct, n - 1, beta), pair(alpha, tensor))
        tail = pair(leibniz_bracket(struct, alpha, beta), tensor)
        assert lhs - mid - tail == chart.scalar(0)

    # the boundary squares to zero
    for _ in range(n_instances):
        chart = rng.choice([R3, R4])
        volume = random_volume(rng, chart)
        k = rng.randint(2, 3)
        p = rand_mv(rng, chart, k, max_degree=3)
        assert delta(volume, delta(volume, p)).is_zero()

    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    report(6, f"11 identity suites x {n_instances} exact instances ({elapsed:.2f}s)")


def test_criterion_07_subcomplex_both_directions():
    structure = singular_r3()
    for bound in range(0, 9):
        outcome = subcomplex_check(structure, STD3, bound)
        assert not outcome.is_subcomplex
        assert outcome.certificate
    outcome = subcomplex_check(regular_r4(), STD4, 2)
    assert outcome.is_subcomplex and outcome.witness is not None
    weighted = VolumeSpec.weighted(R3, x1)
    outcome = subcomplex_check(regular_r3(), weighted, 2)
    assert outcome.is_subcomplex and outcome.witness is not None
    assert sharp(regular_r3(), 1, outcome.witness) == \
        modular_tensor(regular_r3(), weighted)
    report(7, "subcomplex: no for the singular example (D <= 8), yes with witnesses")


def test_criterion_08_basic_volume_normal_form():
    structure = regular_r4()
    mu = basic_volume(structure, STD4, R4.zero_polynomial())
    assert mu.body == dx(R4, 4)
    assert mu.weight.is_zero()
    family = [R4.coordinate_polynomial(i) for i in range(4)]
    assert check_basic(structure, mu, family).passed
    report(8, "basic volume of the 4-chart normal form is dx4 and checks out")


def test_criterion_09_decomposition_lemmas():
    from nambu.algebra import variables
    y1, y2 = variables("x1 x2")
    radius2 = y1 ** 2 + y2 ** 2
    listed = [
        (y1 + radius2 * y1, y2 + radius2 * y2, (Fraction(1), Fraction(0))),
        (-y2, y1, (Fraction(0), Fraction(-1))),
        (Polynomial.zero(("x1", "x2")), Polynomial.zero(("x1", "x2")),
         (Fraction(0), Fraction(0))),
    ]
    for p, q, (a, b) in listed:
        outcome = naka_pair(p, q)
        assert outcome.applicable and (outcome.a, outcome.b) == (a, b)

    z1, z2, z3 = coords(R3)
    radius3 = radius_squared(R3)
    triples = [
        ((z1, z2, z3), Fraction(1)),
        ((radius3 * z2, radius3 * z1, Polynomial.zero(R3.coordinates)), Fraction(0)),
        ((2 * z1, 2 * z2, 2 * z3), Fraction(2)),
    ]
    for (a_in, b_in, c_in), a_expected in triples:
        outcome = naka_triple(a_in, b_in, c_in)
        assert outcome.applicable and outcome.a == a_expected

    rng = random.Random(555)
    chart2_names = ("x1", "x2")
    for _ in range(20):
        a = Fraction(rng.randint(-3, 3))
        b = Fraction(rng.randint(-3, 3))
        potential = Polynomial(chart2_names, {
            (rng.randint(0, 3), rng.randint(0, 3)): Fraction(rng.randint(-3, 3))
            for _ in range(3)})
        pt, qt = potential.diff(0), potential.diff(1)
        p = a * y1 + b * y2 + radius2 * pt
        q = -b * y1 + a * y2 + radius2 * qt
        outcome = naka_pair(p, q)
        assert outcome.applicable
        assert outcome.a * y1 + outcome.b * y2 + radius2 * outcome.p_tilde == p
        assert -outcome.b * y1 + outcome.a * y2 + radius2 * outcome.q_tilde == q
    for _ in range(20):
        a = Fraction(rng.randint(-3, 3))
        potential = rand_poly(rng, R3, max_degree=3)
        tilde = (potential.diff(0), potential.diff(1), potential.diff(2))
        inputs = [a * z + radius3 * t for z, t in zip((z1, z2, z3), tilde)]
        outcome = naka_triple(*inputs)
        assert outcome.applicable
        for z, t, original in zip((z1, z2, z3), outcome.tildes, inputs):
            assert outcome.a * z + radius3 * t == original
    report(9, "decomposition lemmas: listed examples and 20+20 random round trips")


def test_criterion_10_flow_cross_check():
    started = time.perf_counter()
    structure = singular_r3()
    hams = (x1 * x1 + x2 * x2, x3)
    config = FlowConfig(start=(1.0, 0.0, 0.0), step=1e-3, steps=1000)
    trajectory = integrate_hamiltonian(structure, hams, config)
    outcome = conservation_report(trajectory, structure, hams, tolerance=1e-8)
    assert outcome.hamiltonian_drifts[0] <= 1e-8
    assert outcome.hamiltonian_drifts[1] <= 1e-8

    def drift(step, steps):
        cfg = FlowConfig(start=(1.0, 0.0, 0.0), step=step, steps=steps)
        path = integrate_hamiltonian(structure, hams, cfg)
        return conservation_report(path, structure, hams).hamiltonian_drifts[0]

    # fourth-order ratio, measured where truncation error dominates the
    # double-precision noise floor
    ratio = drift(0.1, 10) / drift(0.05, 20)
    assert 8 <= ratio <= 32
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    report(10, f"drifts <= 1e-8 and halving ratio {ratio:.1f} in [8, 32] ({elapsed:.2f}s)")
