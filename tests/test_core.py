import numpy as np
import pytest

from clfgame.core import (
    AttackAction,
    DimensionError,
    EconomicParams,
    GameSpec,
    ModelProfile,
    Strategy,
    asr,
    asr_mixed,
    ccr,
    ccr_mixed,
    check_ordering_2x2,
    no_attack_action,
    validate_spec,
)

from conftest import general_spec, madry_spec, make_spec, random_strategy


class TestValidation:
    def test_reference_spec_is_valid(self):
        report = validate_spec(madry_spec())
        assert report.ok
        assert report.violations == ()

    def test_acc_out_of_range(self):
        report = validate_spec(make_spec([1.2, 0.8], [[0.1], [0.2]]))
        assert not report.ok
        assert any("acc out of [0,1]" in v for v in report.violations)

    def test_robustness_out_of_range(self):
        report = validate_spec(make_spec([0.9, 0.8], [[-0.1], [0.2]]))
        assert any("robustness out of [0,1]" in v for v in report.violations)

    def test_no_attack_must_be_unique(self):
        models = (ModelProfile("m", 0.9),)
        attacks = (no_attack_action("na1"), no_attack_action("na2"))
        spec = GameSpec(models, attacks, np.zeros((1, 0)), EconomicParams(1, 0, 1, 0))
        report = validate_spec(spec)
        assert any("exactly one" in v for v in report.violations)

    def test_no_attack_must_be_last(self):
        models = (ModelProfile("m", 0.9),)
        attacks = (no_attack_action(), AttackAction("pgd"))
        spec = GameSpec(models, attacks, np.zeros((1, 1)), EconomicParams(1, 0, 1, 0))
        report = validate_spec(spec)
        assert any("must be last" in v for v in report.violations)

    def test_robustness_shape_mismatch(self):
        models = (ModelProfile("a", 0.9), ModelProfile("b", 0.8))
        attacks = (AttackAction("pgd"), no_attack_action())
        spec = GameSpec(models, attacks, np.zeros((1, 1)), EconomicParams(1, 0, 1, 0))
        report = validate_spec(spec)
        assert any("does not match" in v for v in report.violations)

    def test_economics_violations(self):
        report = validate_spec(
            make_spec([0.9], [[0.1]], r_plus_adv=0.0, r_minus_adv=0.0, n=1, r_max=1.0)
        )
        assert any("r_plus_adv + r_minus_adv" in v for v in report.violations)
        report = validate_spec(make_spec([0.9], [[0.1]], n=0))
        assert any("n must be an integer >= 1" in v for v in report.violations)
        report = validate_spec(make_spec([0.9], [[0.1]], r_max=1.5))
        assert any("r_max out of [0,1]" in v for v in report.violations)

    def test_at_least_one_model_and_two_actions(self):
        spec = GameSpec((), (no_attack_action(),), np.zeros((0, 0)), EconomicParams(1, 0, 1, 0))
        report = validate_spec(spec)
        assert any("at least one model" in v for v in report.violations)
        assert any("at least two attack actions" in v for v in report.violations)


class TestGameSpecBasics:
    def test_shapes_and_names(self):
        spec = madry_spec()
        assert spec.n_models == 2
        assert spec.n_attacks == 2
        assert spec.no_attack_index == 1
        assert tuple(spec.real_attack_indices()) == (0,)
        assert spec.model_names() == ("standard", "adv_trained")
        assert spec.is_real_attack(0) and not spec.is_real_attack(1)
        with pytest.raises(IndexError):
            spec.is_real_attack(2)

    def test_one_dim_robustness_is_reshaped(self):
        spec = make_spec([0.9, 0.8], [0.1, 0.2])
        assert spec.robustness.shape == (2, 1)

    def test_robustness_is_frozen(self):
        spec = madry_spec()
        with pytest.raises(ValueError):
            spec.robustness[0, 0] = 0.5


class TestOrdering:
    def test_reference_spec_is_ordered(self):
        assert check_ordering_2x2(madry_spec())

    def test_broken_orderings(self):
        assert not check_ordering_2x2(make_spec([0.9, 0.9], [[0.1], [0.3]]))
        assert not check_ordering_2x2(make_spec([0.9, 0.8], [[0.6], [0.5]]))
        assert not check_ordering_2x2(make_spec([0.8, 0.9], [[0.1], [0.3]]))
        # rob_2 must stay below acc_2
        assert not check_ordering_2x2(make_spec([0.9, 0.5], [[0.1], [0.6]]))

    def test_requires_2x2(self):
        spec = make_spec([0.9, 0.8, 0.7], [[0.1], [0.2], [0.3]])
        with pytest.raises(DimensionError):
            check_ordering_2x2(spec)


class TestPointMetrics:
    def test_asr_values(self):
        spec = madry_spec()
        assert asr(spec, 0, 0) == pytest.approx(1.0 - 0.035, abs=1e-15)
        assert asr(spec, 1, 0) == pytest.approx(0.542, abs=1e-15)

    def test_asr_undefined_for_no_attack(self):
        with pytest.raises(ValueError, match="undefined"):
            asr(madry_spec(), 0, 1)

    def test_ccr_endpoints_are_exact(self):
        spec = madry_spec()
        assert ccr(spec, 0, 0, 0.0) == 0.952
        assert ccr(spec, 0, 0, 1.0) == 0.035
        assert ccr(spec, 1, 0, 1.0) == 0.458

    def test_ccr_no_attack_is_clean_accuracy(self):
        spec = madry_spec()
        for rho in (0.0, 0.3, 1.0):
            assert ccr(spec, 0, 1, rho) == 0.952

    def test_ccr_respects_r_max(self):
        spec = madry_spec(r_max=0.3)
        ccr(spec, 0, 0, 0.3)
        with pytest.raises(ValueError):
            ccr(spec, 0, 0, 0.5)
        with pytest.raises(ValueError):
            ccr(spec, 0, 0, -0.1)

    def test_index_errors(self):
        spec = madry_spec()
        with pytest.raises(IndexError):
            asr(spec, 2, 0)
        with pytest.raises(IndexError):
            ccr(spec, 0, 5, 0.0)


class TestMixedMetrics:
    def test_asr_mixed_is_affine_in_s(self, rng):
        for _ in range(25):
            spec = general_spec(rng, n_models=3, n_attacks=3)
            s = random_strategy(rng, 3)
            for j in spec.real_attack_indices():
                direct = asr_mixed(spec, s, j)
                combo = sum(s.probs[i] * asr(spec, i, j) for i in range(3))
                assert direct == pytest.approx(combo, abs=1e-12)

    def test_asr_mixed_value(self):
        spec = madry_spec()
        s = Strategy((0.5, 0.5))
        assert asr_mixed(spec, s, 0) == pytest.approx(0.7535, abs=1e-12)

    def test_ccr_mixed_value_at_r_max(self):
        spec = madry_spec(r_max=1.0)
        r = Strategy((0.5, 0.5))
        # (1 - rho_eff) * acc + rho_eff * rob with rho_eff = r_1 * r_max
        assert ccr_mixed(spec, 0, r) == pytest.approx(0.4935, abs=1e-12)

    def test_ccr_mixed_pure_no_attack(self):
        spec = madry_spec()
        r = Strategy.pure(1, 2)
        assert ccr_mixed(spec, 0, r) == 0.952

    def test_ccr_affine_in_rho(self, rng):
        spec = general_spec(rng, n_models=2, n_attacks=2)
        rho = np.linspace(0.0, spec.economics.r_max, 7)
        if spec.economics.r_max == 0.0:
            return
        vals = np.array([ccr(spec, 0, 0, r) for r in rho])
        second = np.diff(vals, n=2)
        assert np.all(np.abs(second) < 1e-12)


class TestStrategy:
    def test_pure_and_uniform(self):
        s = Strategy.pure(1, 3)
        assert s.pure_index() == 1
        assert len(s) == 3
        u = Strategy.uniform(4)
        assert u.pure_index() is None
        assert np.isclose(u.probs.sum(), 1.0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Strategy((-0.1, 1.1))

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            Strategy((0.5, 0.4))
        # a sum beyond the float range, without numpy's overflow warning
        with pytest.raises(ValueError, match="must sum to 1 within .*, got inf"):
            Strategy((1e308, 1e308))

    def test_renormalizes_tiny_drift(self):
        s = Strategy((0.5, 0.5 + 5e-13))
        assert s.probs.sum() == 1.0

    def test_probs_are_frozen(self):
        s = Strategy((0.5, 0.5))
        with pytest.raises(ValueError):
            s.probs[0] = 0.2


NON_FINITE = (float("nan"), float("inf"), float("-inf"))


@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize(
    "field, violation",
    [
        ("robustness", "robustness must be finite"),
        ("model_cost", "model 'm1': ongoing_cost must be finite"),
        ("attack_cost", "attack 'atk0': ongoing_cost must be finite"),
        ("r_plus_def", "economics: r_plus_def must be finite"),
        ("r_minus_def", "economics: r_minus_def must be finite"),
        ("r_plus_adv", "economics: r_plus_adv must be finite"),
        ("r_minus_adv", "economics: r_minus_adv must be finite"),
        ("i_def", "economics: i_def must be finite"),
        ("i_adv", "economics: i_adv must be finite"),
    ],
)
def test_non_finite_values_are_violations(field, violation, value):
    kwargs = {}
    rob = [[0.1], [0.2]]
    if field == "robustness":
        rob = [[0.1], [value]]
    elif field == "model_cost":
        kwargs["model_costs"] = [0.0, value]
    elif field == "attack_cost":
        kwargs["attack_costs"] = [value]
    else:
        kwargs[field] = value
    report = validate_spec(make_spec([0.9, 0.8], rob, **kwargs))
    assert not report.ok
    assert violation in report.violations


def test_integer_beyond_float_range_is_not_finite():
    report = validate_spec(make_spec([0.9], [[0.1]], i_adv=10**400))
    assert "economics: i_adv must be finite" in report.violations


def test_n_beyond_float_range_is_a_violation():
    report = validate_spec(make_spec([0.9], [[0.1]], n=10**400))
    assert report.violations == ("economics: n must be finite",)


def test_duplicate_model_names_are_violations():
    spec = make_spec([0.9, 0.8, 0.7], [[0.1], [0.2], [0.3]], model_names=["a", "b", "a"])
    assert validate_spec(spec).violations == ("model name 'a' is not unique",)


def test_duplicate_attack_names_are_violations():
    spec = make_spec([0.9], [[0.1, 0.2]])
    pgd_twice = GameSpec(
        models=spec.models,
        attacks=(AttackAction("pgd"), AttackAction("pgd"), no_attack_action()),
        robustness=spec.robustness,
        economics=spec.economics,
    )
    assert validate_spec(pgd_twice).violations == ("attack name 'pgd' is not unique",)
    named_like_no_attack = GameSpec(
        models=spec.models,
        attacks=(AttackAction("no_attack"), AttackAction("fgsm"), no_attack_action()),
        robustness=spec.robustness,
        economics=spec.economics,
    )
    assert validate_spec(named_like_no_attack).violations == (
        "attack name 'no_attack' is not unique",
    )


@pytest.mark.parametrize(
    "values", [(float("nan"), 1.0), (0.5, float("nan"), 0.5), (float("inf"), 1.0), (1.0, float("-inf"))]
)
def test_strategy_rejects_non_finite_entries(values):
    with pytest.raises(ValueError, match="strategy entries must be finite"):
        Strategy(np.array(values))
