import random
from fractions import Fraction as F
from math import prod

import pytest

from conftest import identity_kernel
import eqaudit.correlated
import eqaudit.lp
import eqaudit.nash
from eqaudit.correlated import ActionwiseScheme
from eqaudit.games import (
    DeviationKernel,
    Game,
    JointDistribution,
    MarginalProfile,
    product_distribution,
    surplus,
    surplus_table,
)
from eqaudit.nash import ProfilewiseScheme
from eqaudit.verify import (
    SchemeViolation,
    is_correlated_equilibrium,
    verify_actionwise,
    verify_exploitable,
    verify_nash,
    verify_profilewise,
    verify_witness,
)


@pytest.fixture
def halfhalf_scheme(halfhalf_kernel):
    """Fee of 1/2 on the dominated column, nothing else."""
    return ActionwiseScheme(
        ((F(0), F(0)), (F(0), F(0), F(1, 2))), halfhalf_kernel
    )


@pytest.fixture
def miscoordination_scheme(column_swap_kernel):
    """Fee 9 on the middle column, rebate 10 on the bottom row."""
    return ActionwiseScheme(
        ((F(0), F(-10)), (F(0), F(9), F(0))), column_swap_kernel
    )


def test_witness_point_mass(coordination):
    p = MarginalProfile(((F(1), F(0)), (F(1), F(0), F(0))))
    q = JointDistribution.point_mass((2, 3), (0, 0))
    assert verify_witness(coordination, p, q)


def test_witness_diagonal(coordination, diagonal_profile):
    probs = [F(0)] * 6
    probs[0] = probs[4] = F(1, 2)
    q = JointDistribution((2, 3), tuple(probs))
    assert verify_witness(coordination, diagonal_profile, q)


def test_witness_rejects_product_of_skewed(coordination, skewed_profile):
    q = product_distribution(skewed_profile)
    assert not verify_witness(coordination, skewed_profile, q)


def test_witness_rejects_wrong_marginals(coordination, diagonal_profile):
    q = JointDistribution.point_mass((2, 3), (0, 0))
    assert not verify_witness(coordination, diagonal_profile, q)


def test_a_deviation_gaining_exactly_one_breaks_equilibrium():
    # Integer payoffs and a point mass leave every incentive comparison
    # unscaled, so a gain of exactly 1 is a gap of one unit: the check
    # must have no tolerance, not even one unit. A gain of 0 is no breach.
    for gain, expected in ((1, False), (0, True)):
        game = Game(("A", "B"), (("x", "y"), ("l", "r")), ((0, 0, gain, gain), (0,) * 4))
        assert game.int_payoffs[0][1] == (1, 1, 1, 1)
        q = JointDistribution.point_mass(game.shape, (0, 0))
        assert is_correlated_equilibrium(game, q) is expected


def test_actionwise_income_from_dominated_column(coordination, halfhalf_scheme):
    p = MarginalProfile(((F(1, 2), F(1, 2)), (F(1, 3), F(1, 3), F(1, 3))))
    assert verify_actionwise(coordination, p, halfhalf_scheme) == F(1, 6)


def test_actionwise_income_miscoordination(
    coordination, skewed_profile, miscoordination_scheme
):
    assert (
        verify_actionwise(coordination, skewed_profile, miscoordination_scheme)
        == F(7, 4)
    )


def test_actionwise_zero_scheme(coordination, diagonal_profile):
    scheme = ActionwiseScheme(
        ((F(0), F(0)), (F(0), F(0), F(0))),
        identity_kernel(coordination.shape),
    )
    assert verify_actionwise(coordination, diagonal_profile, scheme) == 0


def test_actionwise_tightness_profile_set(coordination, halfhalf_scheme):
    # slack is zero at every profile off the fee-bearing column and at the
    # bottom of that column, where the surplus exactly matches the fee
    slacks = {}
    table = surplus_table(coordination, halfhalf_scheme.kernel)
    for flat, profile in enumerate(coordination.profiles()):
        fee = sum(halfhalf_scheme.fees[i][a] for i, a in enumerate(profile))
        slacks[profile] = table[flat] - fee
    tight = {a for a, s in slacks.items() if s == 0}
    assert tight == {(0, 0), (0, 1), (1, 0), (1, 1), (1, 2)}
    assert slacks[(0, 2)] == F(4)  # 9/2 room minus the 1/2 fee


def test_actionwise_violation_carries_profile(coordination, halfhalf_kernel):
    scheme = ActionwiseScheme(
        ((F(0), F(0)), (F(0), F(0), F(1))), halfhalf_kernel
    )
    p = MarginalProfile(((F(1, 2), F(1, 2)), (F(1, 3), F(1, 3), F(1, 3))))
    with pytest.raises(SchemeViolation) as err:
        verify_actionwise(coordination, p, scheme)
    assert err.value.profile == (1, 2)
    assert err.value.labels == ("B", "R")
    assert err.value.shortfall == F(1, 2)


def test_profilewise_zero_scheme(coordination, diagonal_profile):
    scheme = ProfilewiseScheme(
        (F(0),) * 6, identity_kernel(coordination.shape)
    )
    assert verify_profilewise(coordination, diagonal_profile, scheme) == 0


def test_profilewise_surplus_fee(coordination, skewed_profile, column_swap_kernel):
    fee = surplus_table(coordination, column_swap_kernel)
    scheme = ProfilewiseScheme(fee, column_swap_kernel)
    assert verify_profilewise(coordination, skewed_profile, scheme) == F(3)


def test_profilewise_first_violation_row_major(coordination, diagonal_profile):
    # two violations planted; the report must name the earlier profile
    fee = [F(0)] * 6
    fee[1] = F(1)  # (T,M)
    fee[3] = F(1)  # (B,L)
    scheme = ProfilewiseScheme(
        tuple(fee), identity_kernel(coordination.shape)
    )
    with pytest.raises(SchemeViolation) as err:
        verify_profilewise(coordination, diagonal_profile, scheme)
    assert err.value.profile == (0, 1)


def test_verifiers_never_touch_the_solver(
    coordination, skewed_profile, mixed_equilibrium, miscoordination_scheme, monkeypatch
):
    nash_verdict = eqaudit.nash.test_nash_exploitability(coordination, skewed_profile)
    ce_verdict = eqaudit.correlated.test_ce_compatibility(coordination, skewed_profile)

    def explode(*_args, **_kwargs):  # pragma: no cover
        raise AssertionError("verifier called the solver or a producer")

    monkeypatch.setattr(eqaudit.lp, "solve_feasibility", explode)
    monkeypatch.setattr(eqaudit.lp, "maximize", explode)
    monkeypatch.setattr(eqaudit.lp._Simplex, "phase_one", explode)
    for name in ("_best_deviation", "payoff_numerators"):
        monkeypatch.setattr(eqaudit.nash, name, explode)
    monkeypatch.setattr(eqaudit.games, "payoff_numerators", explode)
    for name in ("incentive_rows", "build_ce_system", "normalize_dual"):
        monkeypatch.setattr(eqaudit.correlated, name, explode)
    assert (
        verify_actionwise(coordination, skewed_profile, miscoordination_scheme)
        == F(7, 4)
    )
    probs = [F(0)] * 6
    probs[0] = probs[4] = F(1, 2)
    q = JointDistribution((2, 3), tuple(probs))
    assert verify_witness(coordination, q.marginals(), q)
    assert (
        verify_profilewise(coordination, skewed_profile, nash_verdict.scheme)
        == nash_verdict.expected_profit
        > 0
    )
    assert verify_nash(coordination, mixed_equilibrium)
    assert not verify_nash(coordination, skewed_profile)
    for verdict in (nash_verdict, ce_verdict):
        assert verify_exploitable(coordination, skewed_profile, verdict) > 0


def _random_rational(rng, low, high):
    return F(rng.randint(low, high), rng.choice((1, 2, 3, 7, 10, 12)))


def _random_row(rng, k):
    weights = [rng.choice((0, 0, 1, 2, 5)) for _ in range(k)]
    weights[rng.randrange(k)] += 1
    return tuple(F(w, sum(weights)) for w in weights)


def _first_violation(game, kernel, fee_at):
    """Brute-force Fraction scan: the first profile, row-major, whose fee
    exceeds the surplus, with the shortfall; None when there is none."""
    for flat, profile in enumerate(game.profiles()):
        slack = surplus(game, kernel, profile) - fee_at(flat, profile)
        if slack < 0:
            return profile, -slack
    return None


@pytest.mark.parametrize("seed", range(40))
def test_tampered_schemes_match_brute_force(seed):
    rng = random.Random(seed)
    shape = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 3)))
    size = prod(shape)
    game = Game(
        tuple(f"P{i}" for i in range(len(shape))),
        tuple(tuple(f"a{x}" for x in range(k)) for k in shape),
        tuple(
            tuple(_random_rational(rng, -20, 20) for _ in range(size)) for _ in shape
        ),
    )
    p = MarginalProfile(tuple(_random_row(rng, k) for k in shape))
    kernel = DeviationKernel(
        tuple(tuple(_random_row(rng, k) for _ in range(k)) for k in shape)
    )

    # Profile-wise: the surplus table, lowered everywhere, then raised at a
    # few random profiles (sometimes none).
    table = surplus_table(game, kernel)
    fee = [v - _random_rational(rng, 0, 3) for v in table]
    for flat in rng.sample(range(size), rng.randint(0, min(3, size))):
        fee[flat] += _random_rational(rng, 1, 4)
    scheme = ProfilewiseScheme(tuple(fee), kernel)
    expected = _first_violation(game, kernel, lambda flat, _a: fee[flat])
    if expected is None:
        q = product_distribution(p)
        income = sum(qa * fa for qa, fa in zip(q.probs, fee))
        assert verify_profilewise(game, p, scheme) == income
    else:
        with pytest.raises(SchemeViolation) as err:
            verify_profilewise(game, p, scheme)
        assert (err.value.profile, err.value.shortfall) == expected

    # Action-wise: random fees around a share of the smallest surplus.
    floor = min(table) / len(shape)
    fees = tuple(
        tuple(floor + _random_rational(rng, -3, 1) for _ in range(k)) for k in shape
    )
    scheme = ActionwiseScheme(fees, kernel)
    expected = _first_violation(
        game, kernel, lambda _flat, a: sum(fees[i][x] for i, x in enumerate(a))
    )
    if expected is None:
        income = sum(
            prob * fee for row, fee_row in zip(p.probs, fees) for prob, fee in zip(row, fee_row)
        )
        assert verify_actionwise(game, p, scheme) == income
    else:
        with pytest.raises(SchemeViolation) as err:
            verify_actionwise(game, p, scheme)
        assert (err.value.profile, err.value.shortfall) == expected
