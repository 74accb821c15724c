"""Passage orchestration: exit-time searches, read-off fields, chained passes."""

import math

import numpy as np
import pytest

from cnlight import dynamics, protocol
from cnlight.analytic_core import balanced_coupling, switching_time
from cnlight.dynamics import CONSTANT_SCHEDULE, CouplingSchedule
from cnlight.errors import (
    MinimumNotFoundError,
    NonPureFieldError,
    TargetUnreachableError,
    ValidationError,
)
from cnlight.hilbert import AtomicConfig, Kind
from cnlight.observables import FieldDensityMatrix, pure_field
from cnlight.protocol import (
    REFERENCE_CATS,
    SCAN_STEP,
    PassSpec,
    ProtocolSpec,
    _golden_min,
    _read_off,
    _scan_and_refine,
    _state_from_field,
    find_tof_for_cat,
    first_passage,
    reference_config,
    run_protocol,
    subsequent_passage,
)

REF = reference_config()
DETUNED = AtomicConfig(
    kind=Kind.XI, mu12=1.0, mu23=math.sqrt(2.0), delta12=0.1, delta23=-0.05
)


def two_fock_field(nu1, nu2, theta, xi=0.0):
    nu_max = max(nu1, nu2)
    vec = np.zeros(nu_max + 1, dtype=complex)
    vec[nu1] = math.cos(theta)
    vec[nu2] = math.sin(theta) * np.exp(1j * xi)
    return FieldDensityMatrix(rho=np.outer(vec, vec.conj()))


def spy_on_integrate(monkeypatch):
    """Record the end time of every integrate call, in call order.

    Reported passes call protocol.integrate; search probes off the exact
    paths call dynamics.integrate from SectorPropagator.  One list holds
    both.
    """
    calls = []
    real = dynamics.integrate

    def spy(initial, config, schedule, t_end, *args, **kwargs):
        calls.append(float(t_end))
        return real(initial, config, schedule, t_end, *args, **kwargs)

    monkeypatch.setattr(protocol, "integrate", spy)
    monkeypatch.setattr(dynamics, "integrate", spy)
    return calls


# ---------------------------------------------------------------------------
# scan-and-refine search


def two_wells(x):
    """A broad shallow well at 0.7 and a narrow deep one at 1.0."""
    return (-0.5 * math.exp(-(((x - 0.7) / 0.2) ** 2))
            - math.exp(-(((x - 1.0) / 0.005) ** 2)))


class TestScanAndRefine:
    def test_grid_point_wins_over_a_worse_refinement(self):
        grid = np.array([0.0, 0.5, 1.0, 1.5, 2.0])
        # golden section on the bracket [0.5, 1.5] slides into the broad well
        x_golden, f_golden = _golden_min(two_wells, 0.5, 1.5, 1e-6)
        assert x_golden == pytest.approx(0.7, abs=1e-3)
        x, f = _scan_and_refine(two_wells, grid, 1e-6)
        assert x == 1.0
        assert f == two_wells(1.0) < f_golden

    def test_refinement_wins_on_one_well(self):
        grid = np.arange(0.0, 2.0001, 0.25)
        x, f = _scan_and_refine(lambda x: (x - 0.8) ** 2, grid, 1e-8)
        assert x == pytest.approx(0.8, abs=1e-6)
        assert f < 1e-10

    def test_batch_scan_supplies_the_grid_values(self):
        grid = np.array([0.0, 0.5, 1.0, 1.5, 2.0])
        seen = []

        def scan(g):
            seen.append(g)
            return [two_wells(float(t)) for t in g]

        x, _ = _scan_and_refine(two_wells, grid, 1e-6, scan)
        assert x == 1.0
        assert len(seen) == 1 and seen[0] is grid


# ---------------------------------------------------------------------------
# field-atom product states


@pytest.mark.parametrize("na", [1, 2, 3])
@pytest.mark.parametrize(
    "amplitudes",
    [{3: 1.0}, {1: 0.6, 3: 0.8j}, {0: 0.5, 2: -0.5, 5: 0.5 + 0.5j}],
    ids=["fock", "two-fock", "three-fock"],
)
def test_state_from_pure_field_is_the_product_state(amplitudes, na):
    got = _state_from_field(pure_field(amplitudes), REF, na)
    want = dynamics.product_state(REF, amplitudes, na)
    assert list(got.sectors) == list(want.sectors)
    # eigh fixes the field's vector only up to a global phase
    m0 = min(want.sectors)
    i0 = want.sectors[m0][0].index(na, na)
    phase = got.sectors[m0][1][i0] / want.sectors[m0][1][i0]
    assert abs(phase) == pytest.approx(1.0, abs=1e-12)
    for m, (basis, amps) in want.sectors.items():
        got_basis, got_amps = got.sectors[m]
        assert got_basis == basis
        np.testing.assert_allclose(got_amps, phase * amps, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# first passage


class TestFirstPassage:
    def test_constant_exit_at_switching_time(self):
        report = first_passage(3, REF, CONSTANT_SCHEDULE)
        assert report.exit_time == pytest.approx(switching_time(REF, 3), abs=1e-5)
        assert report.min_probability < 1e-10
        # resonant closed form: P(nu0-2) = 48/49, P(nu0) = 1/49
        assert report.probabilities[1] == pytest.approx(48.0 / 49.0, abs=1e-9)
        assert report.probabilities[3] == pytest.approx(1.0 / 49.0, abs=1e-9)
        assert report.theta == pytest.approx(math.atan2(1.0, 4.0 * math.sqrt(3.0)))

    def test_bump_exit_delayed_by_ramp_area(self):
        schedule = CouplingSchedule(mode="bump", t_tof=8.0)
        report = first_passage(3, REF, schedule)
        assert abs(report.exit_time - (switching_time(REF, 3) + 0.5)) < 0.02
        assert report.min_probability < 1e-8

    def test_balanced_coupling_gives_even_cat(self):
        cfg = AtomicConfig(kind=Kind.XI, mu12=balanced_coupling(3, 1.0, -1), mu23=1.0)
        report = first_passage(3, cfg, CONSTANT_SCHEDULE)
        assert report.probabilities[1] == pytest.approx(
            report.probabilities[3], abs=1e-3
        )
        assert report.theta == pytest.approx(math.pi / 4.0, abs=1e-3)

    def test_read_off_field_is_pure_two_fock(self):
        report = first_passage(3, REF, CONSTANT_SCHEDULE)
        rho = report.field
        assert rho.trace == pytest.approx(1.0, abs=1e-12)
        probs = np.real(np.diag(rho.rho))
        assert probs[1] + probs[3] == pytest.approx(1.0, abs=1e-12)
        assert report.symmetry.order == 2  # support difference 3 - 1
        # honest entropy: zero at entry, 1 - (48/49)^2 - (1/49)^2 at exit
        # (the surviving components ride different atom levels)
        assert report.entropies[0] == pytest.approx(0.0, abs=1e-12)
        assert report.entropies[-1] == pytest.approx(96.0 / 2401.0, abs=1e-6)
        assert np.max(report.entropies) > 0.1

    def test_no_acceptable_minimum(self):
        schedule = CouplingSchedule(mode="bump", t_tof=1.2)
        with pytest.raises(MinimumNotFoundError):
            first_passage(3, REF, schedule)

    def test_validation(self):
        with pytest.raises(ValidationError):
            first_passage(1, REF, CONSTANT_SCHEDULE)
        v_cfg = AtomicConfig(kind=Kind.V, mu12=1.0, mu13=1.0)
        with pytest.raises(ValidationError):
            first_passage(3, v_cfg, CONSTANT_SCHEDULE)

    def test_lowest_usable_sector_warns(self):
        with pytest.warns(UserWarning):
            first_passage(2, REF, CONSTANT_SCHEDULE)

    def test_resonant_search_integrates_only_the_reported_pass(self, monkeypatch):
        calls = spy_on_integrate(monkeypatch)
        report = first_passage(3, REF, CouplingSchedule(mode="bump", t_tof=8.0))
        assert calls == [report.exit_time]

    def test_detuned_search_integrates(self, monkeypatch):
        calls = spy_on_integrate(monkeypatch)
        cfg = AtomicConfig(kind=Kind.XI, mu12=1.0, mu23=math.sqrt(2.0),
                           delta12=1e-3, delta23=-1e-3)
        report = first_passage(3, cfg, CONSTANT_SCHEDULE)
        # one batched grid scan, the golden probes, then the reported pass
        assert len(calls) > 3
        assert calls[-1] == report.exit_time
        assert report.exit_time == pytest.approx(
            first_passage(3, REF, CONSTANT_SCHEDULE).exit_time, abs=0.05
        )

    def test_detuned_search_integrates_no_ramp(self, monkeypatch):
        # exit-time probes are partial passes: no ramp matrix is integrated
        ranks = []
        real = dynamics.integrate_ode

        def spy(f, y0, *args, **kwargs):
            ranks.append(np.ndim(y0))
            return real(f, y0, *args, **kwargs)

        monkeypatch.setattr(dynamics, "integrate_ode", spy)
        cfg = AtomicConfig(kind=Kind.XI, mu12=1.0, mu23=math.sqrt(2.0),
                           delta12=0.1, delta23=-0.1)
        first_passage(3, cfg, CouplingSchedule(mode="bump", t_tof=8.0))
        assert ranks and set(ranks) == {1}


# ---------------------------------------------------------------------------
# later passes


class TestSubsequentPassage:
    def test_reference_row_one(self):
        field = two_fock_field(1, 3, math.pi / 4)
        report = subsequent_passage(field, REF, 5.749)
        # sector 1 drains to nu = 0, sector 3 returns to nu = 3
        assert report.probabilities[0] == pytest.approx(0.4993, abs=0.02)
        assert report.probabilities[3] == pytest.approx(0.5000, abs=0.02)
        assert report.leakage < 0.03
        assert report.symmetry.order == 3
        assert report.symmetry.max_residual < 1e-10

    def test_too_short_flight_leaves_field_untouched(self):
        field = two_fock_field(1, 3, math.pi / 4)
        report = subsequent_passage(field, REF, 0.5)
        # the envelope never builds up: honest probabilities stay put
        assert report.probabilities[1] == pytest.approx(0.5, abs=1e-3)
        assert report.probabilities[3] == pytest.approx(0.5, abs=1e-3)
        # ... so half the weight sits outside the drained-cat target
        assert report.leakage == pytest.approx(0.5, abs=0.01)

    def test_mixed_field_rejected(self):
        mixed = FieldDensityMatrix(rho=np.diag([0.5, 0.5]).astype(complex))
        with pytest.raises(NonPureFieldError):
            subsequent_passage(mixed, REF, 3.0)

    def test_validation(self):
        field = two_fock_field(1, 3, math.pi / 4)
        with pytest.raises(ValidationError):
            subsequent_passage(field, REF, 0.0)


# ---------------------------------------------------------------------------
# time-of-flight search


class TestFindTofForCat:
    def test_reference_row_three(self):
        ref = REFERENCE_CATS[2]
        field = two_fock_field(ref.m1, ref.m2, math.pi / 4)
        window = (0.85 * ref.t_tof, 1.15 * ref.t_tof)
        found = find_tof_for_cat(field, REF, window=window)
        assert abs(found.t_tof - ref.t_tof) / ref.t_tof < 0.15
        assert found.leakage < 0.02

    def test_unreachable_target_reports_best_point(self):
        field = two_fock_field(1, 3, math.pi / 4)
        with pytest.raises(TargetUnreachableError) as exc:
            find_tof_for_cat(field, REF, window=(1.0, 1.3))
        assert 1.0 <= exc.value.best_value <= 1.3
        assert exc.value.best_objective > 0.02

    def test_needs_two_component_field(self):
        vec = np.zeros(5, dtype=complex)
        vec[[0, 2, 4]] = 1.0 / math.sqrt(3.0)
        three = FieldDensityMatrix(rho=np.outer(vec, vec.conj()))
        with pytest.raises(ValidationError):
            find_tof_for_cat(three, REF, window=(1.0, 2.0))

    def test_resonant_search_never_integrates(self, monkeypatch):
        calls = spy_on_integrate(monkeypatch)
        ref = REFERENCE_CATS[2]
        field = two_fock_field(ref.m1, ref.m2, math.pi / 4)
        window = (0.85 * ref.t_tof, 1.15 * ref.t_tof)
        found = find_tof_for_cat(field, REF, target=1.0, window=window, na=2)
        assert calls == []
        assert window[0] <= found.t_tof <= window[1]

    def test_detuned_search_integrates_every_candidate(self, monkeypatch):
        calls = spy_on_integrate(monkeypatch)
        field = two_fock_field(1, 3, math.pi / 4)
        window = (1.0, 1.3)
        found = find_tof_for_cat(field, DETUNED, target=1.0, window=window)
        candidates = np.arange(window[0], window[1] + SCAN_STEP / 2, SCAN_STEP)
        assert calls[:len(candidates)] == [float(t) for t in candidates]
        assert len(calls) > len(candidates)      # the golden refinement
        assert window[0] <= found.t_tof <= window[1]

    def test_detuned_search_past_two_never_integrates(self, monkeypatch):
        calls = spy_on_integrate(monkeypatch)
        field = two_fock_field(1, 3, math.pi / 4)
        window = (4.9, 6.6)
        found = find_tof_for_cat(field, DETUNED, target=1.0, window=window)
        assert calls == []
        assert window[0] <= found.t_tof <= window[1]

    def test_detuned_search_integrates_only_below_two(self, monkeypatch):
        calls = spy_on_integrate(monkeypatch)
        field = two_fock_field(1, 3, math.pi / 4)
        window = (1.8, 2.2)
        find_tof_for_cat(field, DETUNED, target=1.0, window=window)
        candidates = np.arange(window[0], window[1] + SCAN_STEP / 2, SCAN_STEP)
        below = [float(t) for t in candidates if t < 2.0]
        assert 0 < len(below) < len(candidates)
        assert calls[:len(below)] == below
        assert all(t < 2.0 for t in calls)

    @pytest.mark.parametrize("config", [REF, DETUNED], ids=["resonant", "detuned"])
    def test_result_stays_inside_the_window(self, config):
        # the leakage still falls at the window's end, and a 0.05 step from
        # 4.0 lands at 5.35, past 5.33
        field = two_fock_field(1, 3, math.pi / 4)
        window = (4.0, 5.33)
        found = find_tof_for_cat(field, config, target=1.0, window=window)
        assert window[0] <= found.t_tof <= window[1]
        assert found.t_tof > window[1] - SCAN_STEP

    @pytest.mark.parametrize("config", [REF, DETUNED], ids=["resonant", "detuned"])
    def test_detuned_search_leakage_matches_the_reported_pass(self, config):
        # the search objective and the DP45 pass at the t_tof it found agree
        field = two_fock_field(1, 3, math.pi / 4)
        found = find_tof_for_cat(field, config, target=1.0, window=(4.9, 6.6))
        report = subsequent_passage(field, config, found.t_tof)
        assert found.leakage == pytest.approx(report.leakage, abs=1e-9)

    def test_window_validation(self):
        field = two_fock_field(1, 3, math.pi / 4)
        with pytest.raises(ValidationError):
            find_tof_for_cat(field, REF, window=(0.0, 5.0))
        with pytest.raises(ValidationError):
            find_tof_for_cat(field, REF, window=(5.0, 2.0))


# ---------------------------------------------------------------------------
# chained protocol


class TestRunProtocol:
    def test_zero_passes_is_bare_fock(self):
        reports = run_protocol(ProtocolSpec(config=REF, nu0=4))
        assert len(reports) == 1
        assert reports[0].exit_time == 0.0
        assert reports[0].symmetry.order == 0
        assert reports[0].probabilities[4] == 1.0

    def test_two_passes_make_an_order_three_cat(self):
        ref = REFERENCE_CATS[0]  # components (1, 3) out of nu0 = 3
        spec = ProtocolSpec(
            config=REF,
            nu0=3,
            theta=math.pi / 4,
            passes=(
                PassSpec(schedule=CONSTANT_SCHEDULE),
                PassSpec(
                    schedule=CouplingSchedule(mode="bump", t_tof=ref.t_tof),
                    exit_policy="fixed",
                ),
            ),
        )
        reports = run_protocol(spec)
        assert len(reports) == 2
        assert reports[0].theta == pytest.approx(math.pi / 4)
        assert reports[1].symmetry.order == 3
        assert reports[1].leakage < 0.03
        assert reports[1].probabilities[0] == pytest.approx(0.5, abs=0.02)
        assert reports[1].probabilities[3] == pytest.approx(0.5, abs=0.02)

    def test_theta_xi_override_recorded(self):
        spec = ProtocolSpec(
            config=REF, nu0=3, theta=1.0, xi=2.0,
            passes=(PassSpec(schedule=CONSTANT_SCHEDULE),),
        )
        (report,) = run_protocol(spec)
        assert report.theta == pytest.approx(1.0, abs=1e-12)
        assert report.xi == pytest.approx(2.0, abs=1e-12)

    def test_forced_theta_certifies_each_kept_field_once(self, monkeypatch):
        theta, xi = 1.0, 2.0
        first = PassSpec(schedule=CouplingSchedule(mode="bump", t_tof=8.0))
        second = PassSpec(schedule=CouplingSchedule(mode="bump", t_tof=5.749))
        spec = ProtocolSpec(
            config=REF, nu0=3, theta=theta, xi=xi, passes=(first, second)
        )
        certified = []
        real = protocol.detect_cyclic_symmetry

        def spy(field, *args, **kwargs):
            certified.append(field)
            return real(field, *args, **kwargs)

        monkeypatch.setattr(protocol, "detect_cyclic_symmetry", spy)
        reports = run_protocol(spec)
        assert [f.rho.shape for f in certified] == [(4, 4), (4, 4)]
        assert certified == [r.field for r in reports]

        # the forced field replaces the read-off one after an unforced pass
        monkeypatch.setattr(protocol, "detect_cyclic_symmetry", real)
        unforced = first_passage(3, REF, first.schedule)
        field, th, x = _read_off({
            1: complex(math.cos(theta)), 3: math.sin(theta) * np.exp(1j * xi)
        })
        later = subsequent_passage(field, REF, second.schedule.t_tof)
        want = [
            (unforced, field, real(field), th, x),
            (later, later.field, later.symmetry, later.theta, later.xi),
        ]
        for got, (rep, fld, sym, th, x) in zip(reports, want):
            assert np.array_equal(got.field.rho, fld.rho)
            assert got.symmetry == sym
            assert (got.theta, got.xi) == (th, x)
            assert np.array_equal(got.probabilities, rep.probabilities)
            assert np.array_equal(got.entropies, rep.entropies)
            assert got.exit_time == rep.exit_time
            assert (got.min_probability, got.leakage) == (
                rep.min_probability, rep.leakage
            )

    def test_deterministic(self):
        spec = ProtocolSpec(
            config=REF, nu0=3,
            passes=(PassSpec(schedule=CONSTANT_SCHEDULE),),
        )
        (r1,) = run_protocol(spec)
        (r2,) = run_protocol(spec)
        assert np.array_equal(r1.probabilities, r2.probabilities)
        assert r1.exit_time == r2.exit_time
        assert np.array_equal(r1.field.rho, r2.field.rho)

    def test_pass_spec_validation(self):
        with pytest.raises(ValidationError):
            PassSpec(schedule=CONSTANT_SCHEDULE, exit_policy="guess")
        with pytest.raises(ValidationError):
            PassSpec(schedule=CONSTANT_SCHEDULE, na=0)
        with pytest.raises(ValidationError):
            run_protocol(ProtocolSpec(config=REF, nu0=-1))
        # the first pass always sends one atom
        with pytest.raises(ValidationError, match="one atom"):
            run_protocol(ProtocolSpec(
                config=REF, nu0=3,
                passes=(PassSpec(schedule=CONSTANT_SCHEDULE, na=3),),
            ))

    @pytest.mark.parametrize("passes", [0, 1])
    def test_xi_without_theta_is_refused(self, passes):
        spec = ProtocolSpec(
            config=REF, nu0=3, xi=2.0,
            passes=(PassSpec(schedule=CONSTANT_SCHEDULE),) * passes,
        )
        with pytest.raises(ValidationError, match="theta"):
            run_protocol(spec)

    @pytest.mark.parametrize("xi", [None, 2.0])
    def test_override_without_a_pass_is_refused(self, xi):
        # with no pass there is no read-off cat for theta and xi to replace
        spec = ProtocolSpec(config=REF, nu0=4, theta=1.0, xi=xi)
        with pytest.raises(ValidationError, match="pass"):
            run_protocol(spec)
