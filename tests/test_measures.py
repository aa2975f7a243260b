import json
import math

import numpy as np
import pytest

from superposition import (
    BlockPartition,
    DensityMatrix,
    RoofOptions,
    apply,
    block_projectors,
    build_basis,
    coefficients_of,
    constant_overlap_basis,
    convex_roof,
    delta_map,
    example1_optimal_state,
    free_state,
    gamma_example1,
    m_delta,
    m_l1,
    m_l1_pure,
    m_l1_roof,
    m_rank,
    m_rank_pure,
    m_rel_ent,
    m_rel_ent_roof,
    m_robustness,
    m_robustness_generalized,
    m_weight,
    m_weight_generalized,
    max_measure_value,
    random_density,
    random_free,
    real_dual_kraus,
    relative_entropy,
    rho_x,
    state_from_coefficients,
)
from superposition.basis import matrix_from_json
from superposition.errors import (
    ComplexBasis,
    ComplexCoefficients,
    DimensionMismatch,
    ParameterOutOfRange,
)
from superposition.qstate import CoefficientMatrix, PureState, random_pure

BASIS2 = constant_overlap_basis(2, 0.5)

# grid-oracle values for the rho(x) family at mu = 0.5 (simplex/feasibility
# grids at step 1e-3)
RHO_X_ORACLE = {
    # x: (rel_ent, robustness, weight)
    0.10: (0.0191740638, 0.0909090909, 0.2727272727),
    0.25: (0.1045381558, 0.2000000000, 0.6000000000),
    0.40: (0.2493584722, 0.2857142857, 0.8571428571),
    -0.30: (0.3355022208, 1.2857142857, 0.4285714286),
}


def test_l1_closed_form_on_rho_x():
    # off-diagonal coefficients are x/(1+2*mu*x) each
    for mu in (-0.25, 0.0, 0.5):
        for x in (-0.3, 0.1, 0.25):
            rho, basis = rho_x(x, mu)
            want = 2 * abs(x) / (1 + 2 * mu * x)
            assert abs(m_l1(rho, basis).value - want) < 1e-10


def test_dimension_mismatch_raises_in_every_measure():
    rho, basis = random_density(3, 3, 0), BASIS2
    opts = RoofOptions(ensemble_size_cap=1, restarts=1)
    calls = [m_l1, m_weight, m_robustness, m_rel_ent, m_delta,
             lambda r, b: m_l1_roof(r, b, opts), lambda r, b: m_rank(r, b, opts),
             lambda r, b: m_rel_ent_roof(r, b, opts),
             lambda r, b: convex_roof(r, b, lambda phi: m_l1_pure(phi, b), opts)]
    for call in calls:
        with pytest.raises(DimensionMismatch):
            call(rho, basis)


def test_l1_zero_on_free():
    for seed in range(5):
        assert m_l1(random_free(BASIS2, seed), BASIS2).value < 1e-12


def test_variational_measures_match_frozen_oracles():
    for x, (re, rob, wgt) in RHO_X_ORACLE.items():
        rho, basis = rho_x(x, 0.5)
        assert abs(m_rel_ent(rho, basis).value - re) < 1e-3
        assert abs(m_robustness(rho, basis).value - rob) < 1e-3
        assert abs(m_weight(rho, basis).value - wgt) < 1e-3


def test_variational_measures_vanish_on_free():
    basis = constant_overlap_basis(3, 0.4)
    for seed in range(3):
        rho = random_free(basis, seed)
        assert m_rel_ent(rho, basis).value < 1e-6
        assert m_robustness(rho, basis).value < 1e-6
        assert m_weight(rho, basis).value < 1e-6


def test_rel_ent_certificate_reproduces_value():
    rho, basis = rho_x(0.25, 0.5)
    res = m_rel_ent(rho, basis)
    sigma = free_state(basis, res.certificate)
    assert abs(relative_entropy(rho, sigma) - res.value) < 1e-6


def test_rel_ent_converged_when_line_search_stops_at_the_optimum():
    # here no step size decreases the value after 12 iterations, with a
    # Frank-Wolfe gap of about 2e-7: the optimum, not a stall
    rng = np.random.default_rng(5073)
    V = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    res = m_rel_ent(random_density(8, 8, 1073), build_basis(V / np.linalg.norm(V, axis=0)))
    assert res.converged


def test_robustness_certificate():
    rho, basis = rho_x(0.25, 0.5)
    res = m_robustness(rho, basis)
    s = res.certificate["s"]
    sigma = free_state(basis, res.certificate["q"])
    tau = res.certificate["tau"]
    mix = (rho.matrix + s * tau.matrix) / (1 + s)
    assert np.max(np.abs(mix - sigma.matrix)) < 1e-6


@pytest.mark.parametrize("d, state_seed, basis_seed, certified", [
    (4, 102, 202, 12867.702916),   # cond(V) ~ 194
    (8, 5807, 1807, 2705.893592),  # cond(V) ~ 89
])
def test_robustness_on_ill_conditioned_bases(d, state_seed, basis_seed, certified):
    # the certified values are tight between the returned value and the
    # dual bound Tr(ZR) - 1 from the unit-diagonal rescaling of
    # (diag y - R)^-1; a barrier path that creeps along the boundary
    # returns values far above them
    rng = np.random.default_rng(basis_seed)
    V = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    basis = build_basis(V / np.linalg.norm(V, axis=0))
    value = m_robustness(random_density(d, d, state_seed), basis).value
    assert abs(value - certified) <= 1e-6 * certified


def test_barrier_path_step_count():
    # predictor-corrector path: the fully centred path (every stage to a
    # Newton decrement of 1e-14, no tangent step) took 1001 steps here
    basis = constant_overlap_basis(3, 0.5)
    steps = sum(m(random_density(3, 3, s), basis).iterations
                for s in range(10) for m in (m_weight, m_robustness))
    assert steps <= 1001 // 2


def test_weight_certificate():
    rho, basis = rho_x(0.25, 0.5)
    res = m_weight(rho, basis)
    w = res.certificate["w"]
    tau = res.certificate["tau"]
    V = basis.vectors
    rebuilt = (V * w) @ V.conj().T + res.value * tau.matrix
    assert np.max(np.abs(rebuilt - rho.matrix)) < 1e-6


def test_relative_entropy_support():
    rho = PureState(np.array([1.0, 0.0])).density()
    sigma = PureState(np.array([0.0, 1.0])).density()
    assert math.isinf(relative_entropy(rho, sigma))
    assert relative_entropy(rho, rho) < 1e-10
    # base-2 sanity: S(pure || maximally mixed) = 1 bit at d=2
    mixed = DensityMatrix(np.eye(2) / 2)
    assert abs(relative_entropy(rho, mixed) - 1.0) < 1e-10


def test_rank_pure():
    basis = constant_overlap_basis(3, 0.3)
    assert m_rank_pure(PureState(basis.vectors[:, 1]), basis).value == 0.0
    v = basis.vectors[:, 0] + basis.vectors[:, 1]
    phi = PureState(v / np.linalg.norm(v))
    assert abs(m_rank_pure(phi, basis).value - 1.0) < 1e-12


def test_gamma_example1_matches_closed_form():
    for mu in (-0.5, 0.0, 0.5):
        for x in (-0.3, 0.0, 0.25, 0.45):
            phi, res = gamma_example1(x, mu)
            assert abs(res.value - 2 * abs(x) / (1 + 2 * mu * x)) < 1e-9


def test_example1_optimal_state_maps_to_rho_x():
    rho, basis = rho_x(0.25, 0.5)
    phi = example1_optimal_state(0.25, 0.5)
    from superposition import example1_channel

    out = apply(example1_channel(basis), phi.density())
    assert np.max(np.abs(out.matrix - rho.matrix)) < 1e-9


def test_delta_map_fixed_points():
    rho, basis = rho_x(0.25, 0.5)  # real coefficient matrix
    assert np.max(np.abs(delta_map(rho, basis).matrix - rho.matrix)) < 1e-10
    assert m_delta(rho, basis).value < 1e-10


def test_delta_positive_on_complex_coefficients():
    R = np.array([[0.5, 0.2j], [-0.2j, 0.5]])
    R = R / np.trace(R @ BASIS2.gram).real
    rho = state_from_coefficients(CoefficientMatrix(entries=R, basis=BASIS2), BASIS2)
    assert m_delta(rho, BASIS2).value > 1e-3
    out = delta_map(rho, BASIS2)
    # the image has real coefficients, so it is a fixed point
    assert m_delta(out, BASIS2).value < 1e-10


def test_delta_requires_real_basis():
    v0 = np.array([1.0, 0.0])
    v1 = np.array([0.6j, 0.8])
    basis = build_basis(np.stack([v0, v1], axis=1))
    rho = random_density(2, 2, 0)
    with pytest.raises(ComplexBasis):
        delta_map(rho, basis)


def test_real_dual_kraus_complete_and_commuting():
    rng = np.random.default_rng(7)
    for d, mu in ((2, 0.5), (3, 0.3)):
        basis = constant_overlap_basis(d, mu)
        cs = [rng.standard_normal((d, d)) for _ in range(3)]
        chan = real_dual_kraus(basis, cs)
        assert chan.completeness_defect < 1e-10
        for seed in range(5):
            rho = random_density(d, d, seed)
            lhs = delta_map(apply(chan, rho), basis)
            terms = [K @ delta_map(rho, basis).matrix @ K.conj().T
                     for K in chan.operators]
            assert np.max(np.abs(lhs.matrix - sum(terms))) < 1e-8


def test_real_dual_kraus_rejects_complex():
    basis = constant_overlap_basis(2, 0.5)
    with pytest.raises(ComplexCoefficients):
        real_dual_kraus(basis, [np.array([[1.0, 1j], [0, 1.0]])])


def test_max_measure_value_l1_closed_form():
    # max over unit states of the pure l1 value is 1/(1-mu) at d=2
    for mu in (0.0, 0.25, 0.5):
        basis = constant_overlap_basis(2, mu)
        got = max_measure_value(basis, lambda phi: m_l1_pure(phi, basis),
                                restarts=8, seed=0)
        assert abs(got - 1 / (1 - mu)) < 1e-6


def test_max_measure_value_rejects_empty_budgets():
    def measure(phi):
        raise AssertionError("evaluated with an empty budget")

    for kwargs in ({"restarts": 0}, {"restarts": -3}, {"max_evals": 0}):
        with pytest.raises(ParameterOutOfRange, match="at least 1"):
            max_measure_value(BASIS2, measure, **kwargs)


def test_every_result_serializes():
    rho = random_density(2, 2, 1)
    opts = RoofOptions(restarts=2)
    results = [fn(rho, BASIS2) for fn in (m_l1, m_rel_ent, m_robustness, m_weight, m_delta)]
    results += [fn(rho, BASIS2, opts) for fn in (m_l1_roof, m_rank, m_rel_ent_roof)]
    results.append(convex_roof(rho, BASIS2, lambda phi: m_l1_pure(phi, BASIS2), opts))
    results.append(gamma_example1(0.25, 0.5)[1])
    rho3 = random_density(3, 3, 1)
    proj = block_projectors(constant_overlap_basis(3, 0.5), BlockPartition(((0,), (1, 2))))
    weight = m_weight_generalized(rho3, proj)
    robustness = m_robustness_generalized(rho3, proj)
    for r in results + [weight, robustness]:
        payload = json.loads(json.dumps(r.to_json()))
        assert payload["value"] == r.value
    # the block certificates come back as the complex matrices they are
    for r, key in ((weight, "B"), (robustness, "C")):
        got = matrix_from_json(r.to_json()["certificate"][key])
        assert np.array_equal(got, r.certificate[key])


def test_monotone_under_free_channels():
    from superposition import random_free_channel

    basis = constant_overlap_basis(2, 0.5)
    for seed in range(5):
        rho = random_density(2, 2, seed)
        chan = random_free_channel(basis, seed)
        out = apply(chan, rho)
        assert m_l1(out, basis).value <= m_l1(rho, basis).value + 1e-9
        assert m_weight(out, basis).value <= m_weight(rho, basis).value + 1e-6
