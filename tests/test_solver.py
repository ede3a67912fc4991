import numpy as np
import pytest

from clfgame.analytic import mixed_nash_2x2
from clfgame.core import Strategy
from clfgame.payoff import PayoffMatrices, payoff_matrices
from clfgame.solver import (
    SolverGuardError,
    dominance_report,
    pure_equilibria,
    support_enumeration,
    upper_envelope_ccr,
    verify_equilibrium,
)

from conftest import (
    demo_mixed_spec,
    general_spec,
    interior_2x2,
    madry_spec,
    make_spec,
    shafahi_spec,
)


def matching_pennies() -> PayoffMatrices:
    u = np.array([[1.0, -1.0], [-1.0, 1.0]])
    return PayoffMatrices(u_adv=-u, u_def=u)


class TestVerify:
    def test_certifies_known_equilibrium(self):
        m = payoff_matrices(demo_mixed_spec())
        cert = verify_equilibrium(m, Strategy((0.5, 0.5)), Strategy((4 / 9, 5 / 9)))
        assert cert.certified
        assert cert.max_gain <= 1e-12

    def test_rejects_perturbed_profile(self):
        m = payoff_matrices(demo_mixed_spec())
        cert = verify_equilibrium(m, Strategy((0.6, 0.4)), Strategy((4 / 9, 5 / 9)))
        assert not cert.certified
        assert cert.adv_gain == pytest.approx(0.02, abs=1e-12)
        assert cert.def_gain == pytest.approx(0.0, abs=1e-12)

    def test_gains_are_nonnegative(self, rng):
        for _ in range(20):
            spec = general_spec(rng)
            m = payoff_matrices(spec)
            s = Strategy(rng.dirichlet(np.ones(m.n_rows)))
            r = Strategy(rng.dirichlet(np.ones(m.n_cols)))
            cert = verify_equilibrium(m, s, r)
            assert cert.adv_gain >= 0.0 and cert.def_gain >= 0.0


class TestPureEquilibria:
    def test_reference_game(self):
        assert pure_equilibria(payoff_matrices(madry_spec())) == [(1, 0)]

    def test_matching_pennies_has_none(self):
        assert pure_equilibria(matching_pennies()) == []

    def test_single_row_game(self):
        m = PayoffMatrices(u_adv=np.array([[0.5, 0.7]]), u_def=np.array([[1.0, 2.0]]))
        assert pure_equilibria(m) == [(0, 1)]

    def test_degenerate_ties_are_all_reported(self):
        m = PayoffMatrices(u_adv=np.full((2, 2), 0.3), u_def=np.array([[1.0, 0.0], [1.0, 0.0]]))
        assert pure_equilibria(m) == [(0, 0), (0, 1), (1, 0), (1, 1)]


class TestSupportEnumeration:
    def test_matching_pennies(self):
        found = support_enumeration(matching_pennies())
        assert len(found) == 1
        eq = found[0]
        assert np.allclose(eq.s.probs, [0.5, 0.5], atol=1e-12)
        assert np.allclose(eq.r.probs, [0.5, 0.5], atol=1e-12)
        assert not eq.degenerate
        assert eq.max_deviation_gain <= 1e-12

    def test_demo_game_has_exactly_one_equilibrium(self):
        found = support_enumeration(payoff_matrices(demo_mixed_spec()))
        assert len(found) == 1
        eq = found[0]
        assert eq.row_support == (0, 1) and eq.col_support == (0, 1)
        assert np.allclose(eq.s.probs, [0.5, 0.5], atol=1e-9)
        assert np.allclose(eq.r.probs, [4 / 9, 5 / 9], atol=1e-9)

    def test_includes_pure_equilibria(self):
        m = payoff_matrices(madry_spec())
        found = support_enumeration(m)
        pure = [
            (eq.s.pure_index(), eq.r.pure_index())
            for eq in found
            if eq.s.pure_index() is not None and eq.r.pure_index() is not None
        ]
        assert (1, 0) in pure

    def test_degenerate_game_is_flagged(self):
        m = PayoffMatrices(u_adv=np.full((2, 2), 0.3), u_def=np.array([[1.0, 0.0], [1.0, 0.0]]))
        found = support_enumeration(m)
        assert found
        assert any(eq.degenerate for eq in found)

    def test_size_guard(self):
        m = PayoffMatrices(u_adv=np.zeros((13, 2)), u_def=np.zeros((13, 2)))
        with pytest.raises(SolverGuardError):
            support_enumeration(m)

    def test_agrees_with_closed_form(self, rng):
        for _ in range(40):
            spec = interior_2x2(rng)
            m = payoff_matrices(spec)
            eq = mixed_nash_2x2(spec)
            found = support_enumeration(m)
            full = [
                f for f in found if f.row_support == (0, 1) and f.col_support == (0, 1)
            ]
            assert len(full) == 1
            assert np.allclose(full[0].s.probs, eq.s_star.probs, atol=1e-9)
            assert np.allclose(full[0].r.probs, eq.r_star.probs, atol=1e-9)
            assert pure_equilibria(m) == []


class TestDominance:
    def test_defender_report_on_model_zoo(self):
        report = dominance_report(payoff_matrices(shafahi_spec()), "defender")
        status = {a.action: a.status for a in report.actions}
        assert status[0] == "undominated"
        assert status[1] == "undominated"
        assert status[3] == "undominated"
        assert status[4] == "pure_dominated"
        assert status[2] == "mixed_dominated"
        by_action = {a.action: a for a in report.actions}
        assert by_action[4].dominated_by == 3
        assert by_action[4].margin == pytest.approx(0.0051, abs=1e-12)
        mix = by_action[2].mixture
        assert mix is not None
        assert mix.sum() == pytest.approx(1.0, abs=1e-12)
        assert mix[1] == pytest.approx(0.41000543773, abs=1e-6)
        assert mix[3] == pytest.approx(0.58999456226, abs=1e-6)
        assert by_action[2].margin == pytest.approx(0.0038093, abs=1e-6)
        assert report.dominated_actions() == (2, 4)

    def test_mixture_certificate_strictly_dominates(self):
        m = payoff_matrices(shafahi_spec())
        report = dominance_report(m, "defender")
        for a in report.actions:
            if a.status == "mixed_dominated":
                blended = a.mixture @ m.u_def
                assert np.all(blended > m.u_def[a.action])
            if a.status == "pure_dominated":
                assert np.all(m.u_def[a.dominated_by] > m.u_def[a.action])

    def test_adversary_report(self):
        # free attack always beats idling; a costly one does not
        free = dominance_report(payoff_matrices(shafahi_spec()), "adversary")
        by_action = {a.action: a for a in free.actions}
        assert by_action[1].status == "pure_dominated"
        assert by_action[1].dominated_by == 0
        costly = dominance_report(
            payoff_matrices(shafahi_spec(attack_costs=[0.6])), "adversary"
        )
        assert all(a.status == "undominated" for a in costly.actions)

    def test_unknown_player_rejected(self):
        with pytest.raises(ValueError):
            dominance_report(payoff_matrices(madry_spec()), "referee")

    def test_undominated_margins_stay_at_tolerance(self, rng):
        for _ in range(10):
            spec = general_spec(rng, n_models=3, n_attacks=3)
            report = dominance_report(payoff_matrices(spec), "defender")
            for a in report.actions:
                if a.status == "undominated":
                    assert a.margin <= 1e-9

    def test_elimination_is_safe(self):
        m = payoff_matrices(shafahi_spec(attack_costs=[0.6]))
        dominated = dominance_report(m, "defender").dominated_actions()
        assert dominated == (2, 4)
        for eq in support_enumeration(m):
            for i in dominated:
                assert eq.s.probs[i] <= 1e-9


class TestEnvelope:
    def test_model_zoo_segments(self):
        env = upper_envelope_ccr(shafahi_spec(), 0)
        models = [seg.model_index for seg in env.segments]
        assert models == [0, 1, 3]
        assert env.segments[0].rho_start == 0.0
        assert env.segments[-1].rho_end == 1.0
        assert env.breakpoints[0].rho == pytest.approx(0.09498, abs=5e-6)
        assert env.breakpoints[0].models == (0, 1)
        assert env.breakpoints[1].rho == pytest.approx(0.29853, abs=5e-6)
        assert env.breakpoints[1].models == (1, 3)

    def test_single_model(self):
        env = upper_envelope_ccr(make_spec([0.9], [[0.2]]), 0)
        assert len(env.segments) == 1
        assert env.segments[0] == env.segments[0].__class__(0.0, 1.0, 0)
        assert env.breakpoints == ()

    def test_zero_budget(self):
        env = upper_envelope_ccr(shafahi_spec(r_max=0.0), 0)
        assert len(env.segments) == 1
        assert env.segments[0].rho_start == env.segments[0].rho_end == 0.0
        assert env.segments[0].model_index == 0

    def test_identical_models_tie_to_lowest_index(self):
        env = upper_envelope_ccr(make_spec([0.9, 0.9], [[0.2], [0.2]]), 0)
        assert [seg.model_index for seg in env.segments] == [0]
        assert env.breakpoints == ()

    def test_three_lines_through_one_point(self):
        spec = make_spec([0.6, 0.8, 0.7], [[0.8], [0.6], [0.7]])
        env = upper_envelope_ccr(spec, 0)
        assert [seg.model_index for seg in env.segments] == [1, 0]
        assert len(env.breakpoints) == 1
        assert env.breakpoints[0].rho == pytest.approx(0.5, abs=1e-12)
        assert env.breakpoints[0].models == (0, 1, 2)

    def test_rejects_no_attack_column(self):
        with pytest.raises(ValueError):
            upper_envelope_ccr(madry_spec(), 1)

    def test_envelope_matches_dense_argmax(self, rng):
        from clfgame.payoff import mu_def

        for _ in range(15):
            spec = general_spec(rng, n_models=3, n_attacks=2)
            env = upper_envelope_ccr(spec, 0)
            r_max = spec.economics.r_max
            assert env.segments[0].rho_start == 0.0
            assert env.segments[-1].rho_end == pytest.approx(r_max, abs=0)
            for a, b in zip(env.segments, env.segments[1:]):
                assert a.rho_end == pytest.approx(b.rho_start, abs=0)
                assert a.model_index != b.model_index
            acc = np.array([mdl.acc for mdl in spec.models])
            rob = spec.robustness[:, 0]
            mu = np.array([mu_def(spec, i) for i in range(3)])
            for rho in np.linspace(0.0, r_max, 41):
                seg = next(
                    s for s in env.segments if s.rho_start - 1e-12 <= rho <= s.rho_end + 1e-12
                )
                values = (1 - rho) * acc + rho * rob - mu
                assert values[seg.model_index] >= values.max() - 1e-9
