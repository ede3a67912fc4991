import numpy as np
import pytest

from clfgame.config import spec_from_dict
from clfgame.core import Strategy, asr_mixed, ccr_mixed
from clfgame.payoff import (
    EppsVector,
    PayoffMatrices,
    break_even_rates,
    delta_mu_def,
    epps_adv,
    epps_adv_pure,
    epps_def,
    epps_def_pure,
    mu_adv,
    mu_def,
    payoff_matrices,
    utility_adv,
    utility_def,
)
from clfgame.solver import pure_equilibria

from conftest import general_spec, madry_spec, make_spec, random_strategy


class TestBreakEven:
    def test_mu_adv_value(self):
        spec = make_spec(
            [0.9, 0.8], [[0.1], [0.2]], attack_costs=[0.1], r_plus_adv=0.8, r_minus_adv=0.1
        )
        assert mu_adv(spec, 0) == pytest.approx(0.2 / 0.9, abs=1e-15)

    def test_mu_adv_rejects_no_attack(self):
        with pytest.raises(ValueError):
            mu_adv(madry_spec(), 1)

    def test_mu_def_and_delta(self):
        spec = make_spec(
            [0.9, 0.8],
            [[0.1], [0.2]],
            model_costs=[0.15, 0.10],
            r_plus_def=0.4,
            r_minus_def=0.1,
        )
        assert mu_def(spec, 0) == pytest.approx(0.25 / 0.5, abs=1e-15)
        assert mu_def(spec, 1) == pytest.approx(0.20 / 0.5, abs=1e-15)
        assert delta_mu_def(spec) == pytest.approx(0.1, abs=1e-15)

    def test_denominator_must_be_positive(self):
        spec = make_spec([0.9], [[0.1]], r_plus_adv=0.0, r_minus_adv=0.0)
        with pytest.raises(ValueError):
            mu_adv(spec, 0)

    @pytest.mark.parametrize("player", ["adv", "def"])
    def test_break_even_rates_name_the_zero_denominator(self, player):
        spec = make_spec([0.9], [[0.1]], **{f"r_plus_{player}": 0.0, f"r_minus_{player}": 0.0})
        message = f"r_plus_{player} \\+ r_minus_{player} must be positive"
        with pytest.raises(ValueError, match=message):
            break_even_rates(spec)

    @pytest.mark.parametrize("integral", [False, True])
    def test_break_even_rates_are_the_per_entry_quotients(self, rng, integral):
        # integer JSON costs and rewards stay Python ints, beyond 2**53 included
        def draw():
            if integral:
                return int(rng.choice([0, 1, 3, 7, 2**53 + 1, 10**17 + 3]))
            return float(rng.uniform(0.0, 3.0))

        for _ in range(20):
            config = {
                "models": [{"name": f"m{i}", "acc": 0.5, "ongoing_cost": draw()} for i in range(3)],
                "attacks": [{"name": f"a{j}", "ongoing_cost": draw()} for j in range(2)],
                "robustness": [[0.5, 0.5]] * 3,
                "economics": {
                    "R_plus_def": draw() + 1, "R_minus_def": draw(),
                    "R_plus_adv": draw() + 1, "R_minus_adv": draw(),
                    "I_def": 0, "I_adv": 0, "n": 1, "r_max": 0.5,
                },
            }
            spec = spec_from_dict(config)
            e = spec.economics
            want_adv = [
                (a.ongoing_cost + e.r_minus_adv) / (e.r_plus_adv + e.r_minus_adv)
                for a in spec.attacks[:-1]
            ]
            want_def = [
                (m.ongoing_cost + e.r_minus_def) / (e.r_plus_def + e.r_minus_def)
                for m in spec.models
            ]
            got_adv, got_def = break_even_rates(spec)
            assert [x.hex() for x in got_adv.tolist()] == [x.hex() for x in want_adv]
            assert [x.hex() for x in got_def.tolist()] == [x.hex() for x in want_def]
            assert [mu_adv(spec, j) for j in range(2)] == want_adv
            assert [mu_def(spec, i) for i in range(3)] == want_def


class TestEpps:
    def test_adversary_pure_value(self):
        spec = madry_spec()
        # unit reward, no penalty, no cost: EPPS equals the success rate
        assert epps_adv_pure(spec, 1, 0) == pytest.approx(0.542, abs=1e-15)

    def test_no_attack_entry_is_zero(self, rng):
        for _ in range(10):
            spec = general_spec(rng)
            s = random_strategy(rng, spec.n_models)
            vec = epps_adv(spec, s)
            assert vec.values[spec.no_attack_index] == 0.0

    def test_adversary_expansion_identity(self, rng):
        for _ in range(50):
            spec = general_spec(rng)
            s = random_strategy(rng, spec.n_models)
            e = spec.economics
            vec = epps_adv(spec, s)
            for j in spec.real_attack_indices():
                o_j = spec.attacks[j].ongoing_cost
                expected = (
                    -o_j
                    - e.r_minus_adv
                    + (e.r_plus_adv + e.r_minus_adv) * asr_mixed(spec, s, j)
                )
                assert abs(vec.values[j] - expected) < 1e-12

    def test_defender_pure_value(self):
        spec = madry_spec(r_max=0.45)
        # CCR at full budget: 0.55 * 0.952 + 0.45 * 0.035 = 0.53935
        assert epps_def_pure(spec, 0, 0) == pytest.approx(0.53935, abs=1e-12)

    def test_defender_expansion_identity(self, rng):
        for _ in range(50):
            spec = general_spec(rng)
            r = random_strategy(rng, spec.n_attacks)
            e = spec.economics
            vec = epps_def(spec, r)
            for i in range(spec.n_models):
                o_i = spec.models[i].ongoing_cost
                c = ccr_mixed(spec, i, r)
                expected = -o_i - e.r_minus_def * (1.0 - c) + e.r_plus_def * c
                assert abs(vec.values[i] - expected) < 1e-12

    def test_mixing_is_affine(self, rng):
        spec = general_spec(rng, n_models=3, n_attacks=3)
        s1 = random_strategy(rng, 3)
        s2 = random_strategy(rng, 3)
        lam = 0.3
        blend = Strategy(lam * s1.probs + (1 - lam) * s2.probs)
        direct = epps_adv(spec, blend).values
        combo = lam * epps_adv(spec, s1).values + (1 - lam) * epps_adv(spec, s2).values
        assert np.allclose(direct, combo, atol=1e-12)

    def test_owner_validation(self):
        with pytest.raises(ValueError):
            EppsVector(values=np.zeros(2), owner="referee")


class TestUtilities:
    def test_idle_adversary_pays_only_investment(self, rng):
        for _ in range(10):
            spec = general_spec(rng)
            s = random_strategy(rng, spec.n_models)
            r = Strategy.pure(spec.no_attack_index, spec.n_attacks)
            assert utility_adv(spec, s, r) == -spec.economics.i_adv

    def test_r_max_zero_freezes_both_payoffs(self, rng):
        spec = general_spec(rng, n_models=2, n_attacks=2)
        spec0 = make_spec(
            [m.acc for m in spec.models],
            spec.robustness,
            model_costs=[m.ongoing_cost for m in spec.models],
            attack_costs=[spec.attacks[0].ongoing_cost],
            r_plus_def=spec.economics.r_plus_def,
            r_minus_def=spec.economics.r_minus_def,
            r_plus_adv=spec.economics.r_plus_adv,
            r_minus_adv=spec.economics.r_minus_adv,
            i_def=spec.economics.i_def,
            i_adv=spec.economics.i_adv,
            n=spec.economics.n,
            r_max=0.0,
        )
        s = random_strategy(rng, 2)
        for r in (Strategy.pure(0, 2), Strategy.pure(1, 2), Strategy((0.3, 0.7))):
            assert utility_adv(spec0, s, r) == pytest.approx(-spec0.economics.i_adv, abs=1e-12)
            clean = utility_def(spec0, s, Strategy.pure(1, 2))
            assert utility_def(spec0, s, r) == pytest.approx(clean, abs=1e-12)

    def test_defender_utility_value(self):
        spec = madry_spec(n=1000)
        s = Strategy.pure(0, 2)
        r = Strategy.pure(0, 2)
        # n * CCR with unit reward: 1000 * 0.035
        assert utility_def(spec, s, r) == pytest.approx(35.0, abs=1e-9)
        assert utility_adv(spec, s, r) == pytest.approx(965.0, abs=1e-9)


class TestPayoffMatrices:
    def test_reference_matrix_values(self):
        spec = madry_spec(n=1)
        m = payoff_matrices(spec)
        assert np.allclose(m.u_def, [[0.035, 0.952], [0.458, 0.873]], atol=1e-12)
        assert np.allclose(m.u_adv, [[0.965, 0.0], [0.542, 0.0]], atol=1e-12)

    def test_no_attack_column_is_exactly_minus_investment(self, rng):
        for _ in range(10):
            spec = general_spec(rng)
            m = payoff_matrices(spec)
            col = m.u_adv[:, spec.no_attack_index]
            assert np.all(col == -spec.economics.i_adv)

    def test_bilinearity(self, rng):
        for _ in range(50):
            spec = general_spec(rng)
            m = payoff_matrices(spec)
            s = random_strategy(rng, spec.n_models)
            r = random_strategy(rng, spec.n_attacks)
            ua = float(s.probs @ m.u_adv @ r.probs)
            ud = float(s.probs @ m.u_def @ r.probs)
            assert abs(ua - utility_adv(spec, s, r)) < 1e-9 * max(1.0, abs(ua))
            assert abs(ud - utility_def(spec, s, r)) < 1e-9 * max(1.0, abs(ud))

    def test_shapes_validated(self):
        with pytest.raises(ValueError):
            PayoffMatrices(u_adv=np.zeros((2, 2)), u_def=np.zeros((2, 3)))

    def test_matrices_are_frozen(self):
        m = payoff_matrices(madry_spec())
        with pytest.raises(ValueError):
            m.u_adv[0, 0] = 1.0

    def test_equilibria_invariant_under_positive_affine_maps(self, rng):
        for _ in range(20):
            spec = general_spec(rng, n_models=2, n_attacks=2)
            m = payoff_matrices(spec)
            base = pure_equilibria(m)
            c = float(rng.uniform(0.5, 3.0))
            d = float(rng.uniform(-2.0, 2.0))
            scaled = PayoffMatrices(u_adv=c * m.u_adv + d, u_def=c * m.u_def + d)
            assert pure_equilibria(scaled) == base
