import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnlight.errors import ValidationError
from cnlight.hilbert import (
    AtomicConfig,
    BasisState,
    Kind,
    build_sector_basis,
    excitation_number,
    sector_dimension,
)

ALL_KINDS = [Kind.XI, Kind.V, Kind.LAMBDA]


def make_config(kind, **kw):
    return AtomicConfig(kind=kind, **kw)


class TestAtomicConfig:
    def test_weights_per_kind(self):
        assert (make_config(Kind.XI).lambda2, make_config(Kind.XI).lambda3) == (1, 2)
        assert (make_config(Kind.V).lambda2, make_config(Kind.V).lambda3) == (1, 1)
        assert (make_config(Kind.LAMBDA).lambda2,
                make_config(Kind.LAMBDA).lambda3) == (0, 1)

    def test_forbidden_couplings_rejected(self):
        with pytest.raises(ValidationError):
            make_config(Kind.XI, mu13=0.5)
        with pytest.raises(ValidationError):
            make_config(Kind.V, mu23=0.5)
        with pytest.raises(ValidationError):
            make_config(Kind.LAMBDA, mu12=0.5)

    @pytest.mark.parametrize(
        "name", ["mu12", "mu23", "delta12", "delta13", "delta23"]
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_couplings_and_detunings_rejected(self, name, value):
        with pytest.raises(ValidationError):
            make_config(Kind.XI, **{name: value})

    def test_analytic_detuning_conditions(self):
        assert make_config(Kind.XI, delta12=0.4, delta23=-0.4).has_analytic_detuning
        assert not make_config(Kind.XI, delta12=0.4).has_analytic_detuning
        assert make_config(Kind.V, delta12=0.3, delta13=0.3).has_analytic_detuning
        assert make_config(Kind.LAMBDA, delta13=0.2,
                           delta23=0.2).has_analytic_detuning

    def test_level_frequencies_ladder(self):
        # omega1 = 0; the ladder stacks Omega + detunings step by step
        cfg = make_config(Kind.XI, delta12=0.25, delta23=-0.25)
        w1, w2, w3 = cfg.level_frequencies
        assert w1 == 0.0
        assert w2 == pytest.approx(1.25)
        assert w3 == pytest.approx(2.0)   # 2*Omega + d12 + d23


class TestBasisState:
    def test_populations(self):
        s = BasisState(nu=2, na=1, q=1, r=0)
        assert s.populations == (0, 1, 0)

    def test_label_bounds(self):
        with pytest.raises(ValidationError):
            BasisState(nu=0, na=1, q=0, r=1)   # r > q
        with pytest.raises(ValidationError):
            BasisState(nu=-1, na=1, q=1, r=1)

    def test_excitation_examples(self):
        s = BasisState(nu=2, na=1, q=1, r=0)
        assert excitation_number(make_config(Kind.XI), s) == 3
        assert excitation_number(make_config(Kind.LAMBDA), s) == 2
        ground = BasisState(nu=0, na=1, q=1, r=1)
        for kind in ALL_KINDS:
            assert excitation_number(make_config(kind), ground) == 0


class TestBuildSectorBasis:
    def test_one_atom_ladder_m3(self):
        basis = build_sector_basis(make_config(Kind.XI), 1, 3)
        assert [(s.nu, s.q, s.r) for s in basis.states] == [
            (1, 0, 0), (2, 1, 0), (3, 1, 1)
        ]
        assert basis.complete

    def test_two_atom_dimension(self):
        basis = build_sector_basis(make_config(Kind.XI), 2, 4)
        assert len(basis) == 6 == sector_dimension(2)
        assert basis.complete

    def test_small_lambda_sector_incomplete(self):
        basis = build_sector_basis(make_config(Kind.LAMBDA), 1, 0)
        assert [(s.nu, s.q, s.r) for s in basis.states] == [(0, 1, 0), (0, 1, 1)]
        assert not basis.complete

    def test_vacuum_sector_is_just_the_ground_state(self):
        # the all-ground state carries m = 0, so no sector with m >= 0 is empty
        basis = build_sector_basis(make_config(Kind.XI), 1, 0)
        assert [(s.nu, s.q, s.r) for s in basis.states] == [(0, 1, 1)]

    def test_negative_m_rejected(self):
        with pytest.raises(ValidationError):
            build_sector_basis(make_config(Kind.XI), 1, -1)

    def test_index_lookup(self):
        basis = build_sector_basis(make_config(Kind.XI), 2, 5)
        for i, s in enumerate(basis.states):
            assert basis.index(s.q, s.r) == i

    def test_index_missing_label(self):
        # m=1 ladder sector lacks the doubly-excited (0, 0) state
        basis = build_sector_basis(make_config(Kind.XI), 1, 1)
        assert len(basis) == 2
        with pytest.raises(KeyError):
            basis.index(0, 0)


@given(
    kind=st.sampled_from(ALL_KINDS),
    na=st.integers(min_value=1, max_value=4),
    m=st.integers(min_value=0, max_value=12),
)
@settings(max_examples=150, deadline=None)
def test_sector_members_all_carry_m(kind, na, m):
    cfg = make_config(kind)
    basis = build_sector_basis(cfg, na, m)
    for s in basis.states:
        assert excitation_number(cfg, s) == m
        assert s.nu >= 0
        assert sum(s.populations) == na


@given(
    kind=st.sampled_from(ALL_KINDS),
    na=st.integers(min_value=1, max_value=4),
    m=st.integers(min_value=0, max_value=12),
)
@settings(max_examples=150, deadline=None)
def test_sector_dimension_rule(kind, na, m):
    cfg = make_config(kind)
    basis = build_sector_basis(cfg, na, m)
    full = sector_dimension(na)
    if m >= cfg.lambda3 * na:
        assert len(basis) == full
    else:
        assert len(basis) < full
    # ordering is reproducible and lexicographic in (q, r)
    labels = [(s.q, s.r) for s in basis.states]
    assert labels == sorted(labels)
    again = build_sector_basis(cfg, na, m)
    assert again.states == basis.states


@given(st.integers(min_value=1, max_value=50))
def test_dimension_formula(na):
    assert sector_dimension(na) == (na + 1) * (na + 2) // 2
