import math

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
from superposition.errors import NotIsometry, ParameterOutOfRange
from superposition.measures import (
    ROOF_GAP,
    _l1_value_grad,
    _rank_value_grad,
    _rel_ent_value_grad,
    _seeded_isometry,
    ensemble_warm_start,
)
from superposition.qstate import (
    DensityMatrix,
    PureState,
    ensemble_from_isometry,
    random_isometry,
    weighted_eigvecs,
)

FAST = RoofOptions(ensemble_size_cap=2, restarts=6)
# the axiom campaigns' roof settings: cap r, 8 restarts
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
    # and a 4-row extra start, zero-padded to 4 rows and searched in one stack
    events, cost_grads, starts, found = [], [], [], []
    search, l1_value_grad = measures._stacked_riemannian_descent, _l1_value_grad

    def recording(value_grad, T, val, G):
        events.append("search")
        cost_grads.append(value_grad)
        starts.extend(T)
        found.extend(search(value_grad, T, val, G))
        return found[-len(T):]

    monkeypatch.setattr(measures, "_stacked_riemannian_descent", recording)
    monkeypatch.setattr(measures, "_l1_value_grad",
                        lambda X: events.append("cost") or l1_value_grad(X))
    rho, basis = random_density(3, 2, 5), constant_overlap_basis(3, 0.5)
    opts = RoofOptions(ensemble_size_cap=1, extra_starts=(random_isometry(4, 2, 1),),
                       **CAMPAIGN_ROOF_OPTS)
    res = m_l1_roof(rho, basis, opts)
    # one start check, then one search, whose trials make the other calls
    assert events[:2] == ["cost", "search"] and events.count("search") == 1
    (cost_grad,) = cost_grads
    rows = [int(T0.any(axis=1).sum()) for T0 in starts]
    assert {T0.shape for T0 in starts} == {(4, 2)} and rows == [2, 3, 4] + [2] * 6
    assert len({evals for _, _, evals in found}) > 1
    Cc = basis.biorthogonal_duals.conj().T @ weighted_eigvecs(rho)
    for T0, n, (T, val, evals) in zip(starts, rows, found):
        (T1, val1, evals1), = search(cost_grad, T0[None], *cost_grad(T0[None]))
        assert np.array_equal(T, T1) and val == val1 and evals == evals1
        # the padded rows stay exactly zero, so the members are the start's
        assert not T[n:].any()
        assert len(ensemble_from_isometry(rho, T).members) <= n
    # the report is the lowest search value, the cost of its end point
    costs = [float(_l1_value_grad(Cc @ T.T)[0]) for T, _, _ in found]
    assert res.value == min(costs)
    assert len(res.certificate.members) <= rows[costs.index(res.value)]


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
    # the free-leaning start is exact, so the search stops at the start
    # checks, on the gradient and on the derivative-free path alike
    for d in (3, 4):
        basis = constant_overlap_basis(d, 0.5)
        for seed in range(3):
            rho = random_free(basis, seed)
            for res in (m_l1_roof(rho, basis, CAMPAIGN),
                        convex_roof(rho, basis, lambda phi: m_l1_pure(phi, basis), CAMPAIGN)):
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
        # one evaluation per start, the start check, which is also the
        # search's first step: a zero gradient stops every search there
        assert res.iterations <= CAMPAIGN.restarts


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_rank_roof_certificate_is_the_same_for_padded_and_lone_start_costs(monkeypatch, seed):
    # every start of a rank-deficient d = 4 state costs 2 bits up to
    # rounding, which differs between the padded start stack and each start
    # costed alone at its own shape; equal costs must compare equal, so
    # that both ways pick the same (earliest) start
    rho, basis = random_density(4, 3, seed), constant_overlap_basis(4, 0.5)
    search = measures._stacked_riemannian_descent
    seen = []

    def spy(cost_grad, T0, val0, G0):
        seen.append((cost_grad, T0))
        return search(cost_grad, T0, val0, G0)

    monkeypatch.setattr(measures, "_stacked_riemannian_descent", spy)
    res = m_rank(rho, basis, CAMPAIGN)
    (cost_grad, T0), = seen
    starts = [T[np.abs(T).sum(axis=1) > 0] for T in T0]  # without their zero rows
    alone = [float(cost_grad(S)[0]) for S in starts]
    assert max(alone) - min(alone) < 1e-12 and res.value == min(alone)
    first = alone.index(min(alone))
    assert res.certificate.to_json() == ensemble_from_isometry(rho, starts[first]).to_json()


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


def test_l1_value_grad_is_real_gradient():
    # G = d f / d Re X + i d f / d Im X, twice d f / d conj(X); the roof
    # values depend on this scale through the descent's first step
    rng = np.random.default_rng(11)
    X = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    assert np.min(np.abs(X)) > 1e-2
    _, G = _l1_value_grad(X)
    h = 1e-6
    for idx in np.ndindex(X.shape):
        for unit, part in ((1.0, G[idx].real), (1j, G[idx].imag)):
            step = np.zeros(X.shape, dtype=complex)
            step[idx] = h * unit
            fd = (_l1_value_grad(X + step)[0] - _l1_value_grad(X - step)[0]) / (2 * h)
            assert abs(fd - part) <= 1e-6 * max(abs(part), 1.0)


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


def test_pattern_search_takes_its_start_cost_from_the_engine(monkeypatch):
    # the engine has costed every start, so no pattern search evaluates
    # its start again: the first point each one retracts is a step from it
    rho, basis = random_density(3, 3, 0), constant_overlap_basis(3, 0.5)
    pattern_search, retract, firsts = measures._pattern_search, measures._retract, []

    def spy(fun, T0, *args):
        points = []
        monkeypatch.setattr(measures, "_retract", lambda M: points.append(M) or retract(M))
        found = pattern_search(fun, T0, *args)
        monkeypatch.setattr(measures, "_retract", retract)
        firsts.append(np.array_equal(points[0], T0))
        return found

    monkeypatch.setattr(measures, "_pattern_search", spy)
    opts = RoofOptions(ensemble_size_cap=3, restarts=8, max_evals=200)
    convex_roof(rho, basis, lambda phi: m_l1_pure(phi, basis), opts)
    assert firsts == [False] * 8


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


def test_roof_options_below_one_are_rejected():
    for kwargs in ({"restarts": 0}, {"restarts": -5}, {"max_evals": 0},
                   {"ensemble_size_cap": 0}, {"ensemble_size_cap": -1},
                   {"seed": -1}, {"seed": 1.5}):
        with pytest.raises(ParameterOutOfRange):
            RoofOptions(**kwargs)
    assert RoofOptions(ensemble_size_cap=1, restarts=1, max_evals=1).restarts == 1
    assert RoofOptions(seed=np.int64(3)).seed == 3


def test_roof_options_counts_must_be_integers():
    for kwargs in ({"restarts": 2.5}, {"max_evals": 100.0}, {"ensemble_size_cap": 1.5},
                   {"restarts": "4"}):
        with pytest.raises(ParameterOutOfRange, match="must be an integer at least 1"):
            RoofOptions(**kwargs)
    assert RoofOptions(restarts=np.int64(3), ensemble_size_cap=np.int32(2)).restarts == 3


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


@pytest.mark.parametrize("case", ["within_gap", "tie_outside_gap"])
def test_roof_reports_earliest_search_within_gap(monkeypatch, case):
    # the roof is well above m_l1 here, so no start meets the bound and all
    # eight starts are searched; two search results are then overwritten
    rho, basis = random_density(3, 3, 0), constant_overlap_basis(3, 0.5)
    lower = m_l1(rho, basis).value
    search = measures._stacked_riemannian_descent
    searched = []

    def rigged(value_grad, T, val, G):
        found = search(value_grad, T, val, G)
        if case == "within_gap":  # both within ROOF_GAP: the earlier wins
            rigged_values = {2: lower + 8e-10, 4: lower + 1e-10}
        else:  # two equal lowest values outside the gap: the earlier wins
            low = 0.5 * (lower + min(val for _, val, _ in found))
            rigged_values = {2: low, 4: low}
        found = [(T, rigged_values.get(i, val), evals)
                 for i, (T, val, evals) in enumerate(found)]
        searched.append(found)
        return found

    monkeypatch.setattr(measures, "_stacked_riemannian_descent", rigged)
    res = m_l1_roof(rho, basis, CAMPAIGN)
    (found,) = searched
    T, val, _ = found[2]
    assert res.value == val and res.converged
    assert res.iterations == len(found) + sum(evals for _, _, evals in found)
    want = ensemble_from_isometry(rho, T).members
    assert len(res.certificate.members) == len(want)
    for (p, phi), (q, psi) in zip(res.certificate.members, want):
        assert p == q and np.array_equal(phi.vector, psi.vector)


# each roof's value_grad on a basis
VALUE_GRADS = {
    "l1": lambda basis: _l1_value_grad,
    "rank": lambda basis: lambda X: _rank_value_grad(X, basis.vectors, 1e-6),
    "rel_ent": lambda basis: lambda X: _rel_ent_value_grad(X, basis),
}


@pytest.mark.parametrize("cost", sorted(VALUE_GRADS))
@pytest.mark.parametrize("d, cap", [(2, 1), (2, None), (3, 1), (3, None)])
def test_stacked_start_checks_equal_per_start_costs(monkeypatch, cost, d, cap):
    # the start check is one cost call on every start zero-padded to the
    # largest row count; rank 2 at d = 3 puts the 3 x 2 free-leaning start
    # beside the 2 x 2 (cap r) or 4 x 2 (cap r^2) others, and cap r^2 does
    # so at d = 2
    rho, basis = random_density(d, 2, 3), constant_overlap_basis(d, 0.5)
    opts = RoofOptions(ensemble_size_cap=cap, **CAMPAIGN_ROOF_OPTS)
    value_grad = VALUE_GRADS[cost](basis)
    calls, searched = [], []

    def recording(X):
        calls.append(value_grad(X))
        return calls[-1]

    def no_search(value_grad, T, val, G):  # records the starts, searches none
        searched.append(T)
        return [(T0, 1.0, 0) for T0 in T]

    # lower = -1 keeps every start check short of the bound, lower = inf
    # lets the first start meet it
    monkeypatch.setattr(measures, "_stacked_riemannian_descent", no_search)
    measures._roof_engine(rho, basis, opts, value_grad=recording, lower=math.inf)
    assert len(calls) == 1 and not searched
    calls.clear()
    measures._roof_engine(rho, basis, opts, value_grad=recording, lower=-1.0)
    (starts,), ((val, _),) = searched, calls
    assert starts.shape == (CAMPAIGN_ROOF_OPTS["restarts"], max(d, 2 if cap else 4), 2)
    Cc = basis.biorthogonal_duals.conj().T @ weighted_eigvecs(rho)
    assert val.tolist() == [float(value_grad(Cc @ T0.T)[0]) for T0 in starts]


@pytest.mark.parametrize("cost, d, seed", [("l1", 3, 0), ("rank", 3, 0), ("rel_ent", 2, 1)])
def test_each_start_stack_is_evaluated_once(cost, d, seed):
    # no start meets the roof's lower bound on these states, so every start
    # is searched; the start checks are the searches' first evaluations, so
    # no stack, of starts or of trial points, reaches value_grad twice
    rho, basis = random_density(d, d, seed), constant_overlap_basis(d, 0.5)
    value_grad = VALUE_GRADS[cost](basis)
    calls = []

    def recording(X):
        assert not any(np.array_equal(X, Y) for Y in calls)
        calls.append(X.copy())
        return value_grad(X)

    lower = m_l1(rho, basis).value if cost == "l1" else 0.0
    res = measures._roof_engine(rho, basis, CAMPAIGN, value_grad=recording, lower=lower)
    assert res.value - lower > ROOF_GAP


def test_seeded_starts_are_cached_read_only():
    T = _seeded_isometry(4, 2, 7919 + 3)
    assert T is _seeded_isometry(4, 2, 7919 + 3)
    want = random_isometry(4, 2, 7919 + 3)
    assert T.dtype == want.dtype and np.array_equal(T, want)
    with pytest.raises(ValueError):
        T[0, 0] = 0.0


@pytest.mark.parametrize("roof", [m_l1_roof, m_rank])
def test_cached_starts_give_the_same_roof_cold_and_warm(roof):
    rho, basis = random_density(3, 3, 4), constant_overlap_basis(3, 0.5)

    def run():
        res = roof(rho, basis, CAMPAIGN)
        return (res.value, res.iterations, res.converged,
                [(p, phi.vector.tolist()) for p, phi in res.certificate.members])

    _seeded_isometry.cache_clear()
    cold = run()
    assert _seeded_isometry.cache_info().misses > 0
    assert run() == cold
    _seeded_isometry.cache_clear()
    assert run() == cold


def test_extra_start_does_not_displace_a_random_start():
    # an extra start must add to the random starts, not take the place of
    # one: here the last random start finds 1.5762727700813386, and with it
    # displaced by the identity passed again the roof was 1.5825793801390444
    rho, basis = random_density(3, 3, 9), constant_overlap_basis(3, 0.5)
    for restarts in (8, 9):
        base = m_l1_roof(rho, basis, RoofOptions(restarts=restarts))
        more = m_l1_roof(rho, basis, RoofOptions(restarts=restarts,
                                                 extra_starts=(np.eye(9, 3),)))
        assert more.value <= base.value == 1.5762727700813386


def _more_effort_cases():
    for roof, ds, restarts in ((m_l1_roof, (2, 3), 4), (m_rank, (2, 3), 4),
                               (m_rel_ent_roof, (2,), 2)):
        for d in ds:
            for seed in range(2):
                yield roof, d, seed, restarts


@pytest.mark.parametrize("roof, d, seed, restarts", list(_more_effort_cases()))
def test_more_effort_never_gives_a_worse_roof(roof, d, seed, restarts):
    # an extra start or a higher restart count only adds starts, and every
    # winner is the least value found, so no roof rises by more than the
    # ROOF_GAP within which values tie
    rho, basis = random_density(d, d, 50 + seed), constant_overlap_basis(d, 0.5)
    r = d
    base = roof(rho, basis, RoofOptions(ensemble_size_cap=1, restarts=restarts, seed=seed))
    extra = random_isometry(r + 1, r, 77 + seed)
    for opts in (RoofOptions(ensemble_size_cap=1, restarts=restarts + 1, seed=seed),
                 RoofOptions(ensemble_size_cap=1, restarts=restarts, seed=seed,
                             extra_starts=(extra,)),
                 RoofOptions(ensemble_size_cap=1, restarts=restarts, seed=seed,
                             extra_starts=(np.eye(r, r),))):
        assert roof(rho, basis, opts).value <= base.value + ROOF_GAP


# The roof descent as it was when it tried one step size per stacked call:
# the reference that the paired trials must reproduce bit for bit.  Each
# start's result also names the rule that stopped it.
def _one_trial_descent(value_grad, T, val, G, max_iter=400, gtol=1e-10):
    found, idx = [None] * len(T), np.arange(len(T))
    PG = measures._project_stiefel_tangent(T, G)
    evals, iters, stall = np.zeros_like(idx), np.zeros_like(idx), np.zeros_like(idx)
    step = np.ones(len(T))
    stop = np.linalg.norm(PG, axis=(-2, -1)) < gtol
    why = np.full(len(T), "gtol")
    while True:
        if stop.any():
            for j in np.flatnonzero(stop):
                found[idx[j]] = (T[j], float(val[j]), int(evals[j]), str(why[j]))
            keep = ~stop
            T, val, PG, step, stall = T[keep], val[keep], PG[keep], step[keep], stall[keep]
            idx, evals, iters, why = idx[keep], evals[keep], iters[keep], why[keep]
            if not idx.size:
                return found
        cand = measures._retract(T - step[:, None, None] * PG)
        cval, cG = value_grad(cand)
        evals += 1
        ok = cval < val - 1e-14
        stall = np.where(ok, np.where(val - cval < 1e-11, stall + 1, 0), stall)
        iters += ok
        val = np.where(ok, cval, val)
        T = np.where(ok[:, None, None], cand, T)
        PG = np.where(ok[:, None, None], measures._project_stiefel_tangent(cand, cG), PG)
        step = np.where(ok, np.minimum(step * 2.0, 10.0), step * 0.5)
        stop = np.where(ok, (stall >= 5) | (iters >= max_iter)
                        | (np.linalg.norm(PG, axis=(-2, -1)) < gtol), step <= 1e-13)
        why = np.select([~ok, stall >= 5, iters >= max_iter], ["floor", "stall", "max_iter"],
                        "gtol")


def _descent_stacks(monkeypatch, rho, basis, opts, value_grad):
    """(value_grad, T, val, G) of every stack the roof engine hands to its
    descent, every start searched (lower = -1 keeps each short of the bound)."""
    stacks = []

    def recording(*args):
        stacks.append(args)
        return [(T0, 1.0, 0) for T0 in args[1]]

    monkeypatch.setattr(measures, "_stacked_riemannian_descent", recording)
    measures._roof_engine(rho, basis, opts, value_grad=value_grad, lower=-1.0)
    monkeypatch.undo()
    return stacks


def _paired_cases():
    for d in (2, 3):
        for cap in (1, None):
            for seed in (0, 1):
                yield "l1", d, cap, seed, CAMPAIGN_ROOF_OPTS["restarts"]
    yield "rel_ent", 2, 1, 0, 4


def test_paired_descent_equals_one_trial_at_a_time_reference(monkeypatch):
    search = measures._stacked_riemannian_descent
    stops = []
    for cost, d, cap, seed, restarts in _paired_cases():
        rho, basis = random_density(d, d, seed), constant_overlap_basis(d, 0.5)
        opts = RoofOptions(ensemble_size_cap=cap, restarts=restarts)
        for args in _descent_stacks(monkeypatch, rho, basis, opts, VALUE_GRADS[cost](basis)):
            for max_iter in (400, 3):
                monkeypatch.setattr(measures, "STIEFEL_MAX_ITER", max_iter)
                want = _one_trial_descent(*args, max_iter=max_iter)
                got = search(*args)
                assert len(got) == len(want)
                for (T, val, evals), (T0, val0, evals0, why) in zip(got, want):
                    assert np.array_equal(T, T0) and val == val0 and evals == evals0
                    stops.append((max_iter, why))
    # every stop rule of the ladder is met: the step floor, the stall rule
    # and, at the small cap, max_iter
    assert {"floor", "stall"} <= {why for max_iter, why in stops if max_iter == 400}
    assert (3, "max_iter") in stops


def test_paired_descent_halves_the_value_grad_calls(monkeypatch):
    # one d = 3 l1 roof search, every start searched: the paired ladder
    # makes at most 0.7x the one-trial loop's value_grad calls, with the
    # same result
    rho, basis = random_density(3, 3, 0), constant_overlap_basis(3, 0.5)
    opts = RoofOptions(ensemble_size_cap=1, **CAMPAIGN_ROOF_OPTS)
    search = measures._stacked_riemannian_descent
    runs = []
    for descent in (search, lambda *args: [f[:3] for f in _one_trial_descent(*args)]):
        calls = []

        def counting(X):
            calls.append(len(X))
            return _l1_value_grad(X)

        monkeypatch.setattr(measures, "_stacked_riemannian_descent", descent)
        res = measures._roof_engine(rho, basis, opts, value_grad=counting, lower=-1.0)
        runs.append((len(calls), res))
    (paired, res), (one_trial, ref) = runs
    assert paired <= 0.7 * one_trial
    assert (res.value, res.iterations, res.converged) == (ref.value, ref.iterations,
                                                         ref.converged)


def test_stack_rows_get_the_bits_they_get_alone():
    # the paired descent rests on this: each row of a 2k-row stack of
    # _retract, _l1_value_grad or _rel_ent_value_grad is bit-identical to
    # the row computed alone
    rng = np.random.default_rng(3)
    basis = constant_overlap_basis(2, 0.5)
    kernels = [(measures._retract, (4, 2)), (_l1_value_grad, (3, 9)),
               (lambda X: _rel_ent_value_grad(X, basis), (2, 4))]
    for kernel, shape in kernels:
        M = rng.standard_normal((8, *shape)) + 1j * rng.standard_normal((8, *shape))
        stacked = kernel(M)
        for j in range(len(M)):
            alone = kernel(M[j:j + 1])
            if isinstance(stacked, tuple):
                assert all(np.array_equal(s[j], a[0]) for s, a in zip(stacked, alone))
            else:
                assert np.array_equal(stacked[j], alone[0])
