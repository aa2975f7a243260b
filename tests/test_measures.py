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
from superposition import measures, solvers
from superposition.basis import matrix_from_json
from superposition.errors import (
    ComplexBasis,
    ComplexCoefficients,
    DimensionMismatch,
    ParameterOutOfRange,
)
from superposition.qstate import CoefficientMatrix, PureState, random_pure
from superposition.solvers import MIRROR_FLOOR, MIRROR_GAP, mirror_descent_simplex

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


# The exponentiated-gradient descent that m_rel_ent ran before its Newton
# steps, one step size per value and gradient evaluation, with its stall rule
# (5 improvements in a row below _ORACLE_STALL end it as converged), and
# m_rel_ent's value-and-gradient of that time: the reference that the Newton
# solve must match or beat.
_ORACLE_STALL = 1e-11


def _one_trial_mirror_descent(f_grad, d, max_iter=2000):
    q = np.full(d, 1.0 / d)
    val, g = f_grad(q)
    eta = 1.0
    stall = 0
    it = 0
    for it in range(1, max_iter + 1):
        step = g - g.min()
        while eta > 1e-14:
            trial = q * np.exp(-eta * step)
            trial = np.maximum(trial, MIRROR_FLOOR)
            trial /= trial.sum()
            tval, tg = f_grad(trial)
            if tval <= val + 1e-15:
                break
            eta *= 0.5
        else:
            return q, val, it, float(g @ q - g.min()) <= MIRROR_GAP
        improvement = val - tval
        q, val, g = trial, tval, tg
        eta = min(eta * 2.0, 1e3)
        if improvement < _ORACLE_STALL:
            stall += 1
            if stall >= 5:
                return q, val, it, True
        else:
            stall = 0
    return q, val, it, stall >= 5


def _one_trial_rel_ent_f_grad(rho, basis):
    V = basis.vectors
    lr = np.clip(np.linalg.eigvalsh(rho.matrix), 0.0, None)
    const = float(np.sum(lr[lr > 1e-10] * np.log(lr[lr > 1e-10])))

    def f_grad(q):
        f_grad.calls += 1
        s, U = np.linalg.eigh((V * q) @ V.conj().T)
        s = np.clip(s, 1e-300, None)
        A = U.conj().T @ rho.matrix @ U
        val = const - float(np.sum(np.diag(A).real * np.log(s)))
        ls = np.log(s)
        diff = s[:, None] - s[None, :]
        L = np.where(np.abs(diff) > 1e-14,
                     (ls[:, None] - ls[None, :]) / np.where(np.abs(diff) > 1e-14, diff, 1.0),
                     1.0 / s[:, None])
        B = U.conj().T @ V
        g = -np.einsum("ai,ab,bi->i", B, L * A.T, B.conj()).real
        return val, g

    f_grad.calls = 0
    return f_grad


def _random_complex_basis(d, seed):
    rng = np.random.default_rng(seed)
    V = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return build_basis(V / np.linalg.norm(V, axis=0))


def _rel_ent_grid():
    for d in (2, 3):
        for mu in (1.0 / (1 - d) + 1e-3, 0.5, 1.0 - 1e-3):
            basis = constant_overlap_basis(d, mu)
            for seed in (0, 1):
                yield random_density(d, d, seed), basis
                yield random_pure(d, seed).density(), basis
    for d in (4, 6, 8):
        for seed in (0, 1):
            yield random_density(d, d, 100 + seed), _random_complex_basis(d, 200 + seed)
    yield random_pure(2, 20).density(), constant_overlap_basis(2, 0.5)  # reference: 2000 iterations
    yield random_density(8, 8, 1073), _random_complex_basis(8, 5073)  # reference: no decrease


def test_rel_ent_converges_no_higher_than_the_exponentiated_gradient_reference():
    for rho, basis in _rel_ent_grid():
        res = m_rel_ent(rho, basis)
        f_grad = _one_trial_rel_ent_f_grad(rho, basis)
        _, val, _, _ = _one_trial_mirror_descent(f_grad, basis.dimension)
        assert res.value <= max(val / math.log(2.0), 0.0) + 1e-9
        _, g = f_grad(res.certificate)
        assert res.converged and g @ res.certificate - g.min() <= MIRROR_GAP
        assert res.iterations <= 30


@pytest.mark.parametrize("scale", [1.0, 3.0])
def test_mirror_descent_reaches_closed_form_minimizer(scale):
    # scale * sum_i q_i log(q_i / p_i) is least at q = p; at scale 3 the
    # first step sizes overshoot, so the backtracking is exercised
    p = np.random.default_rng(17).dirichlet(np.ones(5))

    def values(Q):
        return scale * np.sum(Q * np.log(Q / p), axis=1), Q

    def gradient(Q, j):
        return scale * (np.log(Q[j] / p) + 1.0), scale * np.diag(1.0 / Q[j])

    q, val, it, converged = mirror_descent_simplex(values, gradient, 5)
    assert converged and np.abs(q - p).max() < 1e-9


def _rel_ent_kernels(monkeypatch, rho, basis):
    """The values and gradient callables that m_rel_ent hands its solver."""
    kernels = {}

    def grab(values, gradient, d, **kwargs):
        kernels.update(values=values, gradient=gradient)
        return [(np.full(d, 1.0 / d), 0.0, 0, True)]

    monkeypatch.setattr(measures, "mirror_descent_simplex", grab)
    m_rel_ent(rho, basis)
    return kernels["values"], kernels["gradient"]


@pytest.mark.parametrize("d", range(2, 9))
def test_rel_ent_hessian_matches_central_differences_of_its_gradient(d, monkeypatch):
    # uniform q on a constant-overlap basis gives sigma a (d-1)-fold
    # eigenvalue, so the divided differences there are their limits
    cases = [(random_density(d, d, 70 + d), _random_complex_basis(d, 80 + d),
              0.5 / d + 0.5 * np.random.default_rng(d).dirichlet(np.ones(d))),
             (random_density(d, d, 90 + d), constant_overlap_basis(d, 0.3), np.full(d, 1.0 / d))]
    for rho, basis, q in cases:
        values, gradient = _rel_ent_kernels(monkeypatch, rho, basis)

        def grad_at(x):
            return gradient(values(x[None])[1], 0)

        g, H = grad_at(q)
        h = 1e-6
        fd = np.array([(grad_at(q + h * e)[0] - grad_at(q - h * e)[0]) / (2 * h)
                       for e in np.eye(d)]).T
        assert np.abs(H - H.T).max() == 0.0
        assert np.abs(H - fd).max() <= 1e-6 * np.abs(H).max()


def test_mirror_descent_falls_back_where_the_newton_step_fails():
    # a linear objective has H = 0, so its KKT matrix is singular at zero
    # damping and every step is a damped one
    c = np.array([0.3, -0.2, 0.5, 0.1, -0.1])

    def values(Q):
        return Q @ c, Q

    def gradient(Q, j):
        return c.copy(), np.zeros((5, 5))

    q, val, it, converged = mirror_descent_simplex(values, gradient, 5)
    assert converged and np.abs(q - np.eye(5)[1]).max() < 1e-9 and val <= c.min() + 1e-9


def _linear_objective(c, H):
    """values and gradient of q.c, with the Hessian H reported."""
    return (lambda Q: (Q @ c, Q)), (lambda Q, j: (c.copy(), H))


def test_mirror_descent_carries_its_damping_from_step_to_step():
    # damping restarted at 1 every iteration takes 242 iterations here
    c = np.array([0.3, -0.2, 0.5, 0.1, -0.1])
    q, val, it, converged = mirror_descent_simplex(*_linear_objective(c, np.zeros((5, 5))), 5)
    assert converged and it <= 20


def test_mirror_descent_stops_unconverged_where_no_damping_gives_a_step():
    # a NaN Hessian makes the KKT solve unusable at every damping
    c = np.array([0.3, -0.2, 0.5])
    q, val, it, converged = mirror_descent_simplex(*_linear_objective(c, np.full((3, 3), np.nan)), 3)
    assert not converged and it == 1 and np.array_equal(q, np.full(3, 1.0 / 3))


@pytest.mark.parametrize("basis", [constant_overlap_basis(3, 0.5)]
                         + [_random_complex_basis(d, d) for d in (2, 3, 4, 6, 8)],
                         ids=["constant d=3"] + [f"random d={d}" for d in (2, 3, 4, 6, 8)])
def test_rel_ent_of_a_basis_state_is_zero(basis):
    # the optimum q = e_1 lies on the simplex's boundary
    res = m_rel_ent(PureState(basis.vectors[:, 0]).density(), basis)
    assert res.converged and res.value <= 1e-9


@pytest.mark.parametrize("d", [2, 3, 4, 6, 8])
def test_rel_ent_of_every_basis_state_of_random_bases_is_zero(d):
    # the optimum q = e_k is a vertex; the weights that fall towards zero
    # must not take sigma's eigenvalues, and its gradient, to overflow
    for seed in range(300, 310):
        basis = _random_complex_basis(d, seed)
        for k in range(d):
            res = m_rel_ent(PureState(basis.vectors[:, k]).density(), basis)
            assert res.converged and res.value <= 1e-9, (seed, k)


def test_rel_ent_stacks_its_eigh_calls(monkeypatch):
    eigh = np.linalg.eigh
    counts = {"eigh": 0, "mirror": 0}

    def counting_eigh(a, *args, **kwargs):
        counts["eigh"] += 1
        return eigh(a, *args, **kwargs)

    def counting_mirror(*args, **kwargs):
        counts["mirror"] += 1
        return mirror_descent_simplex(*args, **kwargs)

    cases = [(random_density(d, d, 40 + d), _random_complex_basis(d, 50 + d)) for d in (2, 3, 4)]
    f_grad_calls = 0
    for rho, basis in cases:
        f_grad = _one_trial_rel_ent_f_grad(rho, basis)
        _one_trial_mirror_descent(f_grad, basis.dimension)
        f_grad_calls += f_grad.calls
    # the kernel is reached as np.linalg.eigh and the solver as measures'
    # module global, where the benchmark's tracer wraps them
    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    monkeypatch.setattr(measures, "mirror_descent_simplex", counting_mirror)
    for rho, basis in cases:
        m_rel_ent(rho, basis)
    assert counts["mirror"] == len(cases)
    assert 1 <= counts["eigh"] < 0.6 * f_grad_calls


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


def test_barrier_path_asks_no_gradient_at_zero_weight(monkeypatch):
    # the objective's gradient c comes from the problem, so no grad_hess
    # (one inv and one Hessian gather) is spent at t = 0 just to read it
    weights = []
    grad_hess = solvers.LogDetBarrier.grad_hess

    def recording(self, x, t, owner=0):
        weights.append(np.min(t))
        return grad_hess(self, x, t, owner)

    monkeypatch.setattr(solvers.LogDetBarrier, "grad_hess", recording)
    basis = constant_overlap_basis(3, 0.5)
    measures._m_weight_many([random_density(3, 3, s) for s in range(3)], basis)
    m_robustness(random_density(3, 3, 0), basis)
    m_weight_generalized(random_density(4, 4, 0),
                         block_projectors(constant_overlap_basis(4, 0.5),
                                          BlockPartition(((0, 1), (2, 3)))))
    assert weights and min(weights) > 0.0


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
    # a seed that numpy would reject only once a random start is drawn
    for seed in (-1, 1.5, "0"):
        with pytest.raises(ParameterOutOfRange, match="seed must be an integer >= 0"):
            max_measure_value(BASIS2, measure, seed=seed)
    for kwargs in ({"restarts": 1.5}, {"max_evals": 40.0}):
        with pytest.raises(ParameterOutOfRange, match="must be an integer at least 1"):
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


def _stacked_cases():
    """(basis, states) groups for the many-state forms: constant-overlap
    bases at d = 2, 3 near both endpoints, each with full-rank, pure,
    rank-deficient and free states; random_pure(2, 20), whose rel-ent solve
    runs all 2000 iterations; random_density(8, 8, 1073), where no rel-ent
    step decreases; and the cond(V) ~ 194 robustness case."""
    for d in (2, 3):
        for mu in (1.0 / (1 - d) + 1e-3, 0.5, 1.0 - 1e-3):
            basis = constant_overlap_basis(d, mu)
            states = [random_density(d, d, s) for s in range(3)] + [
                random_pure(d, 1).density(), random_density(d, d - 1, 4), random_free(basis, 5)]
            if (d, mu) == (2, 0.5):
                states.append(random_pure(2, 20).density())
            yield basis, states
    yield _random_complex_basis(8, 5073), [random_density(8, 8, s) for s in (1073, 1, 2)]
    yield _random_complex_basis(4, 202), [random_density(4, 4, s) for s in (102, 3, 4)]


def _same_certificate(a, b):
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_certificate(a[k], b[k]) for k in a)
    if isinstance(a, DensityMatrix):
        return np.array_equal(a.matrix, b.matrix)
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return repr(a) == repr(b)


@pytest.mark.parametrize("many, one", [(measures._m_rel_ent_many, m_rel_ent),
                                       (measures._m_weight_many, m_weight),
                                       (measures._m_robustness_many, m_robustness)])
def test_many_state_forms_equal_one_state_calls(many, one):
    solved_together = 0
    for basis, states in _stacked_cases():
        results = many(states, basis)
        assert len(results) == len(states)
        for rho, res in zip(states, results):
            alone = one(rho, basis)
            assert repr(res.value) == repr(alone.value)
            assert _same_certificate(res.certificate, alone.certificate)
            assert (res.iterations, res.converged) == (alone.iterations, alone.converged)
            solved_together += 1
    assert solved_together == 6 * 6 + 1 + 3 + 3


def test_barrier_stack_with_some_infeasible_trial_points(monkeypatch):
    # near the Gram-singular endpoint some members' trial points leave the
    # domain while others' stay in it, so a stacked Cholesky raises and the
    # members are told apart; every member must still follow its lone path
    basis = constant_overlap_basis(3, 1.0 - 1e-3)
    R = np.stack([coefficients_of(random_density(3, 3, s), basis).entries for s in range(8)])
    mixed = []
    neg_log_det = solvers._neg_log_det

    def recording(F):
        out = neg_log_det(F)
        mixed.append(np.isinf(out).any() and np.isfinite(out).any())
        return out

    monkeypatch.setattr(solvers, "_neg_log_det", recording)
    for solve in (solvers.max_weight_diagonal, solvers.min_dominating_diagonal):
        for (x, iters), (x1, iters1) in zip(solve(R), [solve(Ri) for Ri in R]):
            assert np.array_equal(x, x1) and iters == iters1
    assert any(mixed)


def test_lone_barrier_solves_never_reach_the_stacked_kernels(monkeypatch):
    # _drive gives a lone problem the one-point kernels: through the
    # stacked ones a lone weight or robustness solve takes ~1.8x as long
    stacked = []
    for name in ("_solve_many", "_neg_log_det"):
        kernel = getattr(solvers, name)
        monkeypatch.setattr(solvers, name,
                            lambda *args, name=name, kernel=kernel: stacked.append(name)
                            or kernel(*args))
    basis = constant_overlap_basis(3, 0.5)
    rho = random_density(3, 3, 1)
    proj = block_projectors(basis, BlockPartition(((0,), (1, 2))))
    for fn in (m_weight, m_robustness):
        assert fn(rho, basis).iterations > 0
    for fn in (m_weight_generalized, m_robustness_generalized):
        assert fn(rho, proj).iterations > 0
    assert stacked == []
    # a stack of two does reach them
    measures._m_weight_many([rho, random_density(3, 3, 2)], basis)
    assert set(stacked) == {"_solve_many", "_neg_log_det"}


def test_neg_log_det_tells_apart_members_cholesky_rejects():
    # the second member is indefinite by less than eigvalsh's cut, so the
    # stacked Cholesky of the kept members raises and they go one at a time
    F = np.array([np.diag([2.0, 3.0]), np.diag([1.0, -1e-13]), np.diag([1.0, -1.0]),
                  np.diag([4.0, 0.5])])[:, None].astype(complex)
    out = solvers._neg_log_det(F)
    assert out[1] == out[2] == np.inf
    assert out[0] == solvers._neg_log_det(F[:1])[0] == pytest.approx(-math.log(6.0))
    assert out[3] == solvers._neg_log_det(F[3:])[0] == pytest.approx(-math.log(2.0))


def test_drive_sends_a_singular_solve_none_in_its_own_problem_only():
    # a stacked solve raises if one matrix is singular; the kernel then
    # solves one at a time and answers None to that problem alone, the
    # reply a lone problem gets too
    def path(H):
        x = yield "solve", H, np.ones(2)
        return "singular" if x is None else x

    Hs = [np.eye(2), np.zeros((2, 2)), np.array([[2.0, 1.0], [1.0, 3.0]])]
    one = {"solve": solvers._solve_or_none}
    alone = [solvers._drive([path(H)], one, None)[0] for H in Hs]
    together = solvers._drive([path(H) for H in Hs], one, {"solve": solvers._solve_many})
    assert alone[1] == together[1] == "singular"
    assert np.array_equal(alone[0], together[0]) and np.array_equal(alone[2], together[2])


def _solve_site(path):
    """Where a suspended barrier or simplex path waits for a solve reply:
    newton (_newton_stage), tangent or polish (_barrier_path) or kkt
    (_newton_direction)."""
    while path.gi_yieldfrom is not None:
        path = path.gi_yieldfrom
    name = path.gi_code.co_name
    if name == "_barrier_path":  # k counts the polish steps
        return "polish" if "k" in path.gi_frame.f_locals else "tangent"
    return {"_newton_stage": "newton", "_newton_direction": "kkt"}[name]


def _singular_solve(monkeypatch, name, site, problem):
    """Wrap the path generator solvers.<name> so that the problem-th path
    made (0-based) sends a zero matrix with its first solve request at
    site, so that the solve kernel answers it None.  Returns the log that
    the run fills: the last grad_hess request before it, the original and
    the sent request, the reply and the request that follows."""
    make = getattr(solvers, name)
    made = iter(range(3))  # a run makes at most three paths
    log = {}

    def rigged(*args):
        path, mine, reply = make(*args), next(made) == problem, None
        while True:
            try:
                ask = path.send(reply)
            except StopIteration as stop:
                return stop.value
            if mine and "reply" in log and "next" not in log:
                log["next"] = ask
            elif mine and ask[0] == "grad_hess" and "sent" not in log:
                log["grad_hess"] = ask
            elif mine and ask[0] == "solve" and "sent" not in log and _solve_site(path) == site:
                log["asked"], ask = ask, ("solve", np.zeros_like(ask[1]), ask[2])
                log["sent"] = ask
            reply = yield ask
            if mine and ask is log.get("sent"):
                log["reply"] = reply

    monkeypatch.setattr(solvers, name, rigged)
    return log


def _assert_fallback(site, log):
    kind, *args = log["next"]
    assert log["reply"] is None
    if site in ("newton", "polish"):  # a step along -g, the solve's b
        x = log["grad_hess"][1]
        assert kind == "parts" and np.array_equal(args[0], x + log["asked"][2])
    elif site == "tangent":  # skipped: the next stage starts where this one ended
        _, x, t = log["grad_hess"]
        assert kind == "grad_hess" and args[0] is x and args[1] == t * solvers.BARRIER_SHRINK
    else:  # the same KKT system, damped on its diagonal
        damped = args[0] - log["asked"][1]
        d = len(damped) - 1
        assert kind == "solve" and np.array_equal(args[1], log["asked"][2])
        assert np.array_equal(damped, np.diag(np.diag(damped)))
        assert (np.diag(damped)[:d] > 0).all() and damped[d, d] == 0.0


@pytest.mark.parametrize("site", ["newton", "tangent", "polish", "kkt"])
def test_a_singular_solve_takes_its_fallback_alone_and_in_a_stack(monkeypatch, site):
    # the failing problem gets the same bits lone and in a stack of three,
    # and the other two get those of their lone runs without a failure
    basis = constant_overlap_basis(3, 0.5)
    rhos = [random_density(3, 3, s) for s in range(3)]
    if site == "kkt":
        name = "_mirror_path"

        def solve(states):
            return [(r.value, r.certificate, r.iterations, r.converged)
                    for r in measures._m_rel_ent_many(states, basis)]
        problems = rhos
    else:
        name = "_barrier_path"

        def solve(R):
            return [tuple(found) for found in solvers.max_weight_diagonal(np.stack(R))]
        problems = [coefficients_of(rho, basis).entries for rho in rhos]

    def same(a, b):
        return all(np.array_equal(u, v) for u, v in zip(a, b))

    plain = [solve([p])[0] for p in problems]
    for fails in range(3):
        with monkeypatch.context() as m:
            log = _singular_solve(m, name, site, 0)
            alone = solve([problems[fails]])[0]
        _assert_fallback(site, log)
        assert not same(alone, plain[fails])
        with monkeypatch.context() as m:
            log = _singular_solve(m, name, site, fails)
            together = solve(problems)
        _assert_fallback(site, log)
        assert same(together[fails], alone)
        assert all(same(together[i], plain[i]) for i in range(3) if i != fails)


def test_drive_takes_a_problem_that_returns_before_its_first_request():
    # a problem may be done on entry, as a roof start whose projected
    # gradient is already below gtol; lone or among others it returns its
    # value and the others run on
    def path(H):
        if H is None:
            return "done"
        return (yield "solve", H, np.ones(2))

    one = {"solve": np.linalg.solve}
    many = {"solve": solvers._solve_many}
    assert solvers._drive([path(None)], one, None) == ["done"]
    assert solvers._drive([path(None), path(None)], one, many) == ["done", "done"]
    first, done, last = solvers._drive([path(np.eye(2)), path(None), path(2 * np.eye(2))],
                                       one, many)
    assert done == "done"
    assert np.array_equal(first, np.ones(2)) and np.array_equal(last, 0.5 * np.ones(2))
