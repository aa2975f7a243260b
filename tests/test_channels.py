import numpy as np
import pytest

from superposition import (
    FreeKrausSpec,
    PureState,
    apply,
    apply_selective,
    build_basis,
    build_free_kraus,
    compose,
    constant_overlap_basis,
    cyclic_preparation_channel,
    example1_channel,
    free_state,
    is_superposition_free,
    make_channel,
    permutation_mixture_channel,
    random_free_channel,
    random_density,
    rho_x,
)
from superposition.errors import (
    InvalidProbabilities,
    NotTracePreserving,
    WrongDimension,
)


def test_make_channel_checks_completeness():
    K = np.eye(2) * 0.5
    with pytest.raises(NotTracePreserving):
        make_channel([K])
    chan = make_channel([np.eye(2) / np.sqrt(2), np.eye(2) / np.sqrt(2)])
    assert chan.completeness_defect < 1e-12


def test_make_channel_copies_the_callers_operators():
    ops = [np.eye(2, dtype=complex) / np.sqrt(2), np.eye(2, dtype=complex) / np.sqrt(2)]
    chan = make_channel(ops)
    for caller, kept in zip(ops, chan.operators):
        assert caller.flags.writeable
        assert not kept.flags.writeable
        assert not np.shares_memory(caller, kept)

def test_example1_channel_structure():
    basis = constant_overlap_basis(2, 0.5)
    chan = example1_channel(basis)
    assert chan.completeness_defect < 1e-10
    # first branch is the rescaled identity
    assert np.max(np.abs(chan.operators[0] - np.eye(2) / np.sqrt(2))) < 1e-10
    assert is_superposition_free(chan, basis)
    with pytest.raises(WrongDimension):
        example1_channel(constant_overlap_basis(3, 0.5))


def test_cyclic_preparation_prepares_free_state():
    for d in (2, 3, 4, 5):
        for mu in (0.0, 0.3, -0.2):
            basis = constant_overlap_basis(d, mu)
            rng = np.random.default_rng(10 * d + int(10 * mu))
            p = rng.exponential(size=d)
            p /= p.sum()
            chan = cyclic_preparation_channel(basis, p)
            start = PureState(basis.vectors[:, 0]).density()
            out = apply(chan, start)
            target = free_state(basis, p)
            assert np.max(np.abs(out.matrix - target.matrix)) < 1e-9
            assert is_superposition_free(chan, basis)


def test_cyclic_preparation_validates_probabilities():
    basis = constant_overlap_basis(2, 0.5)
    with pytest.raises(InvalidProbabilities):
        cyclic_preparation_channel(basis, [0.7, 0.7])


def test_cyclic_preparation_needs_constant_overlap():
    v0 = np.array([1.0, 0.0, 0.0])
    v1 = np.array([0.5, np.sqrt(0.75), 0.0])
    v2 = np.array([0.0, 0.2, np.sqrt(1 - 0.04)])
    basis = build_basis(np.stack([v0, v1, v2], axis=1))
    with pytest.raises(NotTracePreserving):
        cyclic_preparation_channel(basis, [0.3, 0.3, 0.4])


def test_permutation_mixture_trace_preserving():
    basis = constant_overlap_basis(3, 0.4)
    chan = permutation_mixture_channel(basis, [[1, 2, 0], [0, 2, 1]], [0.6, 0.4])
    assert chan.completeness_defect < 1e-10
    assert is_superposition_free(chan, basis)
    rho = random_density(3, 3, 0)
    out = apply(chan, rho)
    assert abs(np.trace(out.matrix) - 1) < 1e-10


def test_free_channels_preserve_free_states():
    basis = constant_overlap_basis(3, 0.5)
    from superposition import is_free, random_free

    for seed in range(10):
        chan = random_free_channel(basis, seed)
        rho = random_free(basis, seed + 100)
        assert is_free(apply(chan, rho), basis, tol=1e-8)


def test_is_superposition_free_detects_non_free():
    basis = constant_overlap_basis(2, 0.5)
    H = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    chan = make_channel([H])
    assert not is_superposition_free(chan, basis)


def test_selective_outcomes_sum_to_channel():
    rho, basis = rho_x(0.25, 0.5)
    chan = example1_channel(basis)
    outcomes = apply_selective(chan, rho)
    assert abs(sum(p for p, _ in outcomes) - 1) < 1e-10
    total = sum(p * out.matrix for p, out in outcomes)
    assert np.max(np.abs(total - apply(chan, rho).matrix)) < 1e-10


def test_compose():
    basis = constant_overlap_basis(2, 0.5)
    a = example1_channel(basis)
    b = cyclic_preparation_channel(basis, [0.5, 0.5])
    ab = compose(a, b)
    rho = random_density(2, 2, 3)
    direct = apply(a, apply(b, rho))
    assert np.max(np.abs(apply(ab, rho).matrix - direct.matrix)) < 1e-10


def test_build_free_kraus_dyadic_form():
    basis = constant_overlap_basis(2, 0.5)
    # identity map: coefficients 1/xi_k with f = id sum to V V^-1 = I
    spec = FreeKrausSpec(index_map=(0, 1),
                         coefficients=(1 / basis.xi[0], 1 / basis.xi[1]))
    chan = build_free_kraus(basis, [spec])
    assert np.max(np.abs(chan.operators[0] - np.eye(2))) < 1e-10


def test_channel_serialization():
    basis = constant_overlap_basis(2, 0.5)
    chan = example1_channel(basis)
    payload = chan.to_json()
    assert payload["metadata"]["trace_preserving"] is True
    assert len(payload["operators"]) == 2
