import sys

import numpy as np
import pytest

from clfgame.core import Strategy
from clfgame.payoff import utility_adv
from clfgame.simulate import SimConfig, convergence_check, simulate

from conftest import demo_mixed_spec, general_spec, madry_spec, make_spec, random_strategy


class TestSimConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SimConfig(seed=1, n=0, trials=10, r_max=0.5)
        with pytest.raises(ValueError):
            SimConfig(seed=1, n=10, trials=0, r_max=0.5)
        with pytest.raises(ValueError):
            SimConfig(seed=1, n=10, trials=10, r_max=1.5)
        # an integral float would reach range() in simulate
        with pytest.raises(ValueError, match="^trials must be an integer >= 1$"):
            SimConfig(seed=1, n=10, trials=3.0, r_max=0.5)
        # numpy's draws take counts of at most 2**63 - 1
        for n in (2**63, 1e19):
            with pytest.raises(ValueError, match=r"n must be at most 2\*\*63 - 1"):
                SimConfig(seed=1, n=n, trials=2, r_max=0.5)


class TestDeterminism:
    def test_bit_identical_reruns(self):
        spec = demo_mixed_spec()
        cfg = SimConfig(seed=7, n=500, trials=20, r_max=0.45)
        s = Strategy((0.5, 0.5))
        r = Strategy((4 / 9, 5 / 9))
        a = simulate(spec, s, r, cfg)
        b = simulate(spec, s, r, cfg)
        assert np.array_equal(a.utilities_adv, b.utilities_adv)
        assert np.array_equal(a.utilities_def, b.utilities_def)
        assert np.array_equal(a.models_played, b.models_played)

    def test_different_seeds_differ(self):
        spec = demo_mixed_spec()
        s = Strategy((0.5, 0.5))
        r = Strategy((4 / 9, 5 / 9))
        a = simulate(spec, s, r, SimConfig(seed=1, n=500, trials=20, r_max=0.45))
        b = simulate(spec, s, r, SimConfig(seed=2, n=500, trials=20, r_max=0.45))
        assert not np.array_equal(a.utilities_def, b.utilities_def)

    def test_idle_adversary_is_noiseless_for_itself(self):
        spec = madry_spec(i_adv=2.5)
        cfg = SimConfig(seed=3, n=1000, trials=15, r_max=1.0)
        res = simulate(spec, Strategy((0.5, 0.5)), Strategy.pure(1, 2), cfg)
        assert set(res.utilities_adv.tolist()) == {-2.5}
        assert res.std_error_adv == 0.0

    def test_pure_no_attack_matches_zero_budget_stream(self):
        spec = madry_spec()
        s = Strategy((0.3, 0.7))
        cfg_full = SimConfig(seed=11, n=800, trials=25, r_max=1.0)
        cfg_zero = SimConfig(seed=11, n=800, trials=25, r_max=0.0)
        idle = simulate(spec, s, Strategy.pure(1, 2), cfg_full)
        frozen = simulate(spec, s, Strategy.pure(0, 2), cfg_zero)
        assert np.array_equal(idle.utilities_def, frozen.utilities_def)
        assert np.array_equal(idle.models_played, frozen.models_played)


class TestBudgetAccounting:
    def test_floor_of_fractional_budget(self):
        # n * r_max = 2.5 -> exactly 2 controlled samples; with rob = 0 and
        # unit reward every attack succeeds, so the payoff is exactly +2
        spec = make_spec([0.5], [[0.0]], r_plus_adv=1.0, r_minus_adv=1.0)
        cfg = SimConfig(seed=5, n=10, trials=8, r_max=0.25)
        res = simulate(spec, Strategy.pure(0, 1), Strategy.pure(0, 2), cfg)
        assert set(res.utilities_adv.tolist()) == {2.0}

    def test_config_overrides_spec_economics(self):
        spec = madry_spec(n=17, r_max=0.2)  # sim must use the config's values
        cfg = SimConfig(seed=5, n=10, trials=40, r_max=1.0)
        res = simulate(spec, Strategy.pure(1, 2), Strategy.pure(0, 2), cfg)
        assert np.all(res.utilities_def <= 10.0)
        report = convergence_check(spec, Strategy.pure(1, 2), Strategy.pure(0, 2), cfg)
        # with n=17, r_max=0.2 the target would be 13.43, not 4.58
        assert report.analytic_def == pytest.approx(4.58, abs=1e-12)


class TestStatistics:
    def test_single_trial_has_zero_stderr(self):
        spec = madry_spec()
        cfg = SimConfig(seed=9, n=100, trials=1, r_max=1.0)
        res = simulate(spec, Strategy.pure(0, 2), Strategy.pure(0, 2), cfg)
        assert res.std_error_adv == 0.0
        assert res.std_error_def == 0.0

    def test_mean_matches_trials(self):
        spec = demo_mixed_spec()
        cfg = SimConfig(seed=13, n=200, trials=30, r_max=0.45)
        res = simulate(spec, Strategy((0.5, 0.5)), Strategy((0.4, 0.6)), cfg)
        assert res.mean_utility_adv == pytest.approx(res.utilities_adv.mean(), abs=1e-12)
        assert res.mean_utility_def == pytest.approx(res.utilities_def.mean(), abs=1e-12)

    def test_strategy_length_validated(self):
        spec = madry_spec()
        cfg = SimConfig(seed=1, n=10, trials=2, r_max=1.0)
        with pytest.raises(ValueError):
            simulate(spec, Strategy.pure(0, 3), Strategy.pure(0, 2), cfg)


class TestConvergence:
    def test_equilibrium_profile_converges(self):
        spec = demo_mixed_spec()
        cfg = SimConfig(seed=42, n=10_000, trials=100, r_max=0.45)
        report = convergence_check(spec, Strategy((0.5, 0.5)), Strategy((4 / 9, 5 / 9)), cfg)
        assert report.passed_adv and report.passed_def and report.passed

    def test_pure_profile_converges(self):
        spec = madry_spec()
        cfg = SimConfig(seed=21, n=10_000, trials=60, r_max=1.0)
        report = convergence_check(spec, Strategy.pure(1, 2), Strategy.pure(0, 2), cfg)
        assert report.passed
        assert report.analytic_adv == pytest.approx(5420.0, abs=1e-9)
        assert report.analytic_def == pytest.approx(4580.0, abs=1e-9)

    def test_random_profiles_converge(self, rng):
        passed = 0
        total = 25
        for k in range(total):
            spec = general_spec(rng, r_max_16ths=True)
            s = random_strategy(rng, spec.n_models)
            r = random_strategy(rng, spec.n_attacks)
            cfg = SimConfig(seed=1000 + k, n=2000, trials=80, r_max=spec.economics.r_max)
            if convergence_check(spec, s, r, cfg).passed:
                passed += 1
        assert passed >= total - 1

    def test_wrong_target_is_detected(self):
        # same draw stream, analytic target from a much more robust model:
        # the 3-sigma band must reject it
        spec = madry_spec(n=10_000, r_max=1.0)
        tampered = make_spec(
            [0.952, 0.873], [[0.635], [0.858]], n=10_000, r_max=1.0
        )
        cfg = SimConfig(seed=77, n=10_000, trials=50, r_max=1.0)
        s, r = Strategy.pure(0, 2), Strategy.pure(0, 2)
        sim = simulate(spec, s, r, cfg)
        off_target = utility_adv(tampered, s, r)
        assert abs(sim.mean_utility_adv - off_target) > 3.0 * sim.std_error_adv


def test_convergence_check_reuses_a_given_simulation(monkeypatch):
    spec = demo_mixed_spec()
    s, r = Strategy((0.5, 0.5)), Strategy((4 / 9, 5 / 9))
    cfg = SimConfig(seed=9, n=1000, trials=40, r_max=0.45)
    rerun = convergence_check(spec, s, r, cfg)
    sim = simulate(spec, s, r, cfg)

    def no_second_run(*args, **kwargs):
        raise AssertionError("convergence_check ran the simulation again")

    monkeypatch.setattr(sys.modules["clfgame.simulate"], "simulate", no_second_run)
    reused = convergence_check(spec, s, r, cfg, sim=sim)
    assert repr(reused) == repr(rerun)


@pytest.mark.parametrize("n", [10**400, float("inf"), float("nan")])
def test_sim_config_rejects_non_finite_n(n):
    with pytest.raises(ValueError, match="n must be finite"):
        SimConfig(seed=1, n=n, trials=10, r_max=0.5)
