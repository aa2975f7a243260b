import numpy as np
import pytest

from superposition import (
    RoofOptions,
    constant_overlap_basis,
    convex_roof,
    m_l1,
    m_l1_pure,
    m_l1_roof,
    m_rank,
    m_rank_pure,
    m_rel_ent,
    m_rel_ent_roof,
    m_weight,
    random_density,
    random_free,
    rho_x,
)
from superposition import measures
from superposition.harness import CAMPAIGN_ROOF_OPTS
from superposition.errors import NotIsometry
from superposition.measures import (
    ROOF_GAP,
    _l1_value_grad,
    _rel_ent_value_grad,
    ensemble_warm_start,
)
from superposition.qstate import DensityMatrix, PureState, random_isometry, weighted_eigvecs

FAST = RoofOptions(ensemble_size_cap=2, restarts=6)
# the axiom campaigns' roof settings: cap r, 8 restarts, 1200 evaluations
CAMPAIGN = RoofOptions(ensemble_size_cap=1, **CAMPAIGN_ROOF_OPTS)


def test_roof_closed_form_on_rho_x_family():
    for mu in (-0.5, 0.0, 0.5):
        for x in (-0.45, -0.2, 0.0, 0.25, 0.45):
            rho, basis = rho_x(x, mu)
            res = m_l1_roof(rho, basis, FAST)
            want = 2 * abs(x) / (1 + 2 * mu * x)
            assert abs(res.value - want) < 1e-6
            # a start meets the m_l1 bound, so no start is searched
            assert res.value - m_l1(rho, basis).value <= ROOF_GAP
            assert res.iterations <= 6 and res.converged


def test_stacked_search_matches_single_start_searches(monkeypatch):
    # a rank-2 state at d = 3, cap r: 2x2 starts, the 3x2 free-leaning start
    # and a 4-row extra start, searched together in stacks of one shape each
    searched = []
    search = measures._stacked_riemannian_descent

    def recording(value_grad, starts):
        found = search(value_grad, starts)
        searched.append((value_grad, starts, found))
        return found

    monkeypatch.setattr(measures, "_stacked_riemannian_descent", recording)
    rho, basis = random_density(3, 2, 5), constant_overlap_basis(3, 0.5)
    opts = RoofOptions(ensemble_size_cap=1, extra_starts=(random_isometry(4, 2, 1),),
                       **CAMPAIGN_ROOF_OPTS)
    res = m_l1_roof(rho, basis, opts)
    (value_grad, starts, found), = searched
    assert sorted({T0.shape for T0 in starts}) == [(2, 2), (3, 2), (4, 2)]
    assert len({evals for _, _, evals in found}) > 1
    for T0, (T, val, evals) in zip(starts, found):
        (T1, val1, evals1), = search(value_grad, [T0])
        assert np.array_equal(T, T1) and val == val1 and evals == evals1
    # the report is the lowest search value, the cost of its end point
    Cc = basis.biorthogonal_duals.conj().T @ weighted_eigvecs(rho)
    assert res.value == min(float(_l1_value_grad(Cc @ T.T)[0]) for T, _, _ in found)


def test_roof_reports_cheapest_not_penalized_winner():
    # the identity start's search reaches 2.5292770932, the lowest of the
    # eight search values, and the report is its end point
    rho = random_density(3, 2, 3513416644)
    basis = constant_overlap_basis(3, 0.5)
    res = m_l1_roof(rho, basis, CAMPAIGN)
    assert res.value < 2.5292771
    avg = sum(p * m_l1_pure(phi, basis) for p, phi in res.certificate.members)
    assert abs(avg - res.value) < 1e-9


def test_roof_certificate_equal_weights():
    rho, basis = rho_x(0.25, 0.5)
    res = m_l1_roof(rho, basis, FAST)
    probs = sorted(p for p, _ in res.certificate.members)
    assert len(probs) == 2
    assert abs(probs[0] - 0.5) < 1e-6


def test_roof_certificate_reproduces_value():
    rho, basis = rho_x(0.3, 0.5)
    res = m_l1_roof(rho, basis, FAST)
    avg = sum(p * m_l1_pure(phi, basis) for p, phi in res.certificate.members)
    assert abs(avg - res.value) < 1e-9
    rebuilt = res.certificate.density()
    assert np.max(np.abs(rebuilt - rho.matrix)) < 1e-9


def test_roof_dominates_l1():
    # convexity of the pure-state l1 value makes the roof an upper bound
    for d in (2, 3):
        basis = constant_overlap_basis(d, 0.5)
        opts = RoofOptions(ensemble_size_cap=1, restarts=6)
        for seed in range(10):
            rho = random_density(d, d, seed)
            assert m_l1_roof(rho, basis, opts).value >= m_l1(rho, basis).value - 1e-6


def test_roof_vanishes_on_free():
    for d in (2, 3):
        basis = constant_overlap_basis(d, 0.5)
        opts = RoofOptions(ensemble_size_cap=1, restarts=4)
        for seed in range(5):
            assert m_l1_roof(random_free(basis, seed), basis, opts).value < 1e-6
    # the free-leaning start is exact, so the search stops at the start checks
    for d in (3, 4):
        basis = constant_overlap_basis(d, 0.5)
        for seed in range(3):
            res = m_l1_roof(random_free(basis, seed), basis, CAMPAIGN)
            assert res.value <= 1e-9
            assert res.iterations <= 8 and res.converged


def test_roof_pure_state_is_plain_value():
    basis = constant_overlap_basis(2, 0.5)
    from superposition.qstate import random_pure

    phi = random_pure(2, 3)
    res = m_l1_roof(phi.density(), basis, FAST)
    assert abs(res.value - m_l1_pure(phi, basis)) < 1e-9


def test_rank_roof():
    rho, basis = rho_x(0.25, 0.5)
    opts = RoofOptions(restarts=4, max_evals=800)
    # the rank cost's gradient is zero, so every search stops at its start
    # and never finds the measure-zero decompositions with a basis-aligned
    # member: the reported value is 1 bit
    assert abs(m_rank(rho, basis, opts).value - 1.0) < 1e-9
    assert m_rank(random_free(basis, 0), basis, opts).value == 0.0
    # the free-leaning start is searched even with a single restart
    assert m_rank(random_free(basis, 0), basis, RoofOptions(restarts=1)).value == 0.0
    for d in (3, 4):
        basis = constant_overlap_basis(d, 0.5)
        for seed in range(3):
            res = m_rank(random_free(basis, seed), basis, CAMPAIGN)
            assert res.value == 0.0
            assert res.iterations <= 8 and res.converged


def test_rank_roof_certificate_reproduces_value():
    # the stacked member count follows m_rank_pure's tolerance rule
    basis = constant_overlap_basis(3, 0.5)
    for rank, seed in ((3, 11), (2, 12)):
        rho = random_density(3, rank, seed)
        res = m_rank(rho, basis, CAMPAIGN)
        assert np.max(np.abs(res.certificate.density() - rho.matrix)) < 1e-9
        avg = sum(p * m_rank_pure(phi, basis).value for p, phi in res.certificate.members)
        assert abs(avg - res.value) < 1e-12
        # the start checks, then one evaluation per start: a zero gradient
        # stops every search at its start
        assert res.iterations <= 2 * CAMPAIGN.restarts


def test_rel_ent_roof_dominates_rel_ent():
    rho, basis = rho_x(0.25, 0.5)
    opts = RoofOptions(ensemble_size_cap=2, restarts=3, max_evals=800)
    roof = m_rel_ent_roof(rho, basis, opts).value
    assert roof >= m_rel_ent(rho, basis).value - 1e-6


def test_rel_ent_value_grad_is_envelope_gradient():
    # two d = 2 coefficient matrices as one stack, and one d = 3 matrix
    rng = np.random.default_rng(4)
    for d, shape in ((2, (2, 2, 2)), (3, (3, 3))):
        basis = constant_overlap_basis(d, 0.5)
        X = 0.5 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        val, G = _rel_ent_value_grad(X, basis)
        for k, Xk in enumerate(X.reshape(-1, d, d)):
            raw = basis.vectors @ Xk
            p = np.sum(np.abs(raw) ** 2, axis=0)
            want = sum(p[m] * m_rel_ent(PureState(raw[:, m] / np.sqrt(p[m])).density(),
                                        basis, max_iter=400).value for m in range(d))
            assert abs(np.ravel(val)[k] - want) < 1e-12
        # d f / d Re X = 2 Re G and d f / d Im X = 2 Im G for G = d f / d conj(X)
        h = 1e-6
        for idx in np.ndindex(X.shape):
            for unit, part in ((1.0, G[idx].real), (1j, G[idx].imag)):
                step = np.zeros(X.shape, dtype=complex)
                step[idx] = h * unit
                fd = (_rel_ent_value_grad(X + step, basis)[0]
                      - _rel_ent_value_grad(X - step, basis)[0]) / (2 * h)
                assert abs(np.sum(fd) - 2 * part) <= 1e-4 * max(abs(2 * part), 1.0)


def test_rel_ent_roof_certificate_reproduces_value():
    # the stacked gradient search needs 613 evaluations; the derivative-free
    # search it replaced took 1821
    basis = constant_overlap_basis(2, 0.5)
    rho = random_density(2, 2, 1)
    res = m_rel_ent_roof(rho, basis, CAMPAIGN)
    assert res.iterations <= 1000
    assert np.max(np.abs(res.certificate.density() - rho.matrix)) < 1e-9
    avg = sum(p * m_rel_ent(phi.density(), basis, max_iter=400).value
              for p, phi in res.certificate.members)
    assert abs(avg - res.value) < 1e-9


def test_generic_convex_roof_agrees_with_l1_fast_path():
    rho, basis = rho_x(0.25, 0.5)
    res = convex_roof(rho, basis, lambda phi: m_l1_pure(phi, basis),
                      RoofOptions(ensemble_size_cap=2, restarts=4, max_evals=2000))
    assert abs(res.value - 0.4) < 1e-3


def test_member_filter_restricts_decompositions():
    rho, basis = rho_x(0.25, 0.5)
    # forbid every member: the search cannot do better than the rejection
    # cost, signalling an empty feasible set
    opts = RoofOptions(ensemble_size_cap=2, restarts=2, max_evals=300,
                       member_filter=lambda phi: False)
    assert m_l1_roof(rho, basis, opts).value > 1e3
    assert m_rel_ent_roof(rho, basis, opts).value > 1e3


def test_ensemble_warm_start_is_isometry():
    rho, basis = rho_x(0.25, 0.5)
    res = m_l1_roof(rho, basis, FAST)
    T = ensemble_warm_start(rho, res.certificate.members)
    assert np.max(np.abs(T.conj().T @ T - np.eye(T.shape[1]))) < 1e-8
    # seeding with the optimal ensemble reproduces the optimal value
    seeded = m_l1_roof(rho, basis,
                       RoofOptions(ensemble_size_cap=2, restarts=1,
                                   extra_starts=(T,)))
    assert abs(seeded.value - res.value) < 1e-8
    # the derivative-free search starts from the same list
    generic = convex_roof(rho, basis, lambda phi: m_l1_pure(phi, basis),
                          RoofOptions(ensemble_size_cap=2, restarts=1,
                                      extra_starts=(T,)))
    assert abs(generic.value - res.value) < 1e-8


def test_malformed_extra_start_is_rejected():
    # rank 2: a 3 x 1 start cannot be an isometry of the eigen-decomposition
    rho, basis = random_density(3, 2, 5), constant_overlap_basis(3, 0.5)
    with pytest.raises(NotIsometry):
        m_l1_roof(rho, basis, RoofOptions(extra_starts=(np.eye(3, 1),)))


def test_rank_roof_matches_weight_on_qubit():
    # at d=2 the best rank ensemble puts maximal weight on basis-aligned
    # members, so the value coincides with the weight measure; the search,
    # which stops at its starts on a cost with zero gradient, cannot reach
    # those measure-zero points and gives 1 instead
    # -- document the upper-bound relation only
    rho, basis = rho_x(0.25, 0.5)
    opts = RoofOptions(restarts=4, max_evals=800)
    assert m_rank(rho, basis, opts).value >= m_weight(rho, basis).value - 1e-6
