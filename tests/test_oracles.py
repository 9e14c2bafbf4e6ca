import random
from fractions import Fraction as F

import pytest

from eqaudit import correlated, nash, oracles
from eqaudit.correlated import ActionwiseScheme, Compatible, Exploitable
from eqaudit.games import DeviationKernel, Game, MarginalProfile, product_distribution
from eqaudit.nash import IsNash, ProfilewiseScheme
from eqaudit.oracles import (
    OracleDisagreement,
    cross_check,
    random_ce,
    random_game,
    random_marginals,
)
from eqaudit.verify import verify_witness
from grid_oracles import coupling_scan_2x2, exhaustive_scheme_search


def test_scan_finds_diagonal(coordination, diagonal_profile):
    q = coupling_scan_2x2(coordination, diagonal_profile, 8)
    assert q is not None
    assert q.prob((0, 0)) == F(1, 2) and q.prob((1, 1)) == F(1, 2)
    assert verify_witness(coordination, diagonal_profile, q)


@pytest.mark.parametrize("resolution", [16, 64])
def test_scan_unresolved_on_skewed(coordination, skewed_profile, resolution):
    assert coupling_scan_2x2(coordination, skewed_profile, resolution) is None


def test_scan_point_mass(coordination):
    p = MarginalProfile(((F(1), F(0)), (F(1), F(0), F(0))))
    q = coupling_scan_2x2(coordination, p, 1)
    assert q is not None and q.prob((0, 0)) == 1


def test_scan_preconditions(coordination):
    three = Game(
        ("A", "B", "C"),
        (("x", "y"), ("x", "y"), ("x", "y")),
        (("0",) * 8, ("0",) * 8, ("0",) * 8),
    )
    p3 = MarginalProfile((((F(1, 2),) * 2),) * 3)
    with pytest.raises(ValueError):
        coupling_scan_2x2(three, p3, 4)
    wide = Game(
        ("A", "B"),
        (("a", "b", "c"), ("x", "y", "z")),
        (("0",) * 9, ("0",) * 9),
    )
    pwide = MarginalProfile(((F(1, 3),) * 3, (F(1, 3),) * 3))
    with pytest.raises(ValueError):
        coupling_scan_2x2(wide, pwide, 4)  # four free directions


def test_random_ce_avoids_dominated_column(coordination):
    for seed in range(10):
        q = random_ce(coordination, seed)
        assert q.marginal(1)[2] == 0


def test_random_ce_deterministic(coordination):
    assert random_ce(coordination, 3) == random_ce(coordination, 3)


def test_random_ce_trivial_game():
    game = Game(("Solo",), (("only",),), (("0",),))
    assert random_ce(game, 0).probs == (F(1),)


def test_random_ce_matching_pennies(matching_pennies):
    # the incentive polytope is a single point: the uniform product
    for seed in (0, 1, 17):
        q = random_ce(matching_pennies, seed)
        assert q.probs == (F(1, 4),) * 4
    p = MarginalProfile(((F(1, 2), F(1, 2)), (F(1, 2), F(1, 2))))
    assert coupling_scan_2x2(matching_pennies, p, 4) is not None


def test_search_finds_miscoordination_income(coordination, skewed_profile):
    best = exhaustive_scheme_search(coordination, skewed_profile, range(-10, 11))
    assert best is not None and best >= F(7, 4)


def test_search_dominated_column_small_grid(coordination):
    p = MarginalProfile(((F(1, 2), F(1, 2)), (F(1, 4), F(1, 4), F(1, 2))))
    assert exhaustive_scheme_search(coordination, p, [F(0), F(1, 2)]) == F(1, 4)


def test_search_none_on_compatible(coordination, diagonal_profile, mixed_equilibrium):
    grid = [F(-1), F(-1, 2), F(0), F(1, 2), F(1)]
    assert exhaustive_scheme_search(coordination, diagonal_profile, grid) is None
    assert exhaustive_scheme_search(coordination, mixed_equilibrium, grid) is None


def test_oracles_agree_with_analyzer():
    rng = random.Random(404)
    grid = [F(-2), F(-1), F(-1, 2), F(0), F(1, 2), F(1), F(2)]
    scanned = searched = 0
    for _ in range(40):
        game = random_game(rng, max_players=2)
        p = random_marginals(rng, game)
        dof = (len(p.support(0)) - 1) * (len(p.support(1)) - 1)
        verdict = correlated.test_ce_compatibility(game, p)
        if isinstance(verdict, Exploitable) and dof <= 2:
            assert coupling_scan_2x2(game, p, 16) is None
            scanned += 1
        elif isinstance(verdict, Compatible) and all(
            len(p.support(i)) <= 2 for i in range(2)
        ):
            assert exhaustive_scheme_search(game, p, grid) is None
            searched += 1
    assert scanned >= 5  # the corpus must actually exercise the checks


# --- cross_check: the `--oracle` check for verdicts of both tests ----------


def test_cross_check_accepts_true_verdicts():
    """Every verdict kind but IsNash, which random marginals rarely earn;
    the next test supplies it."""
    rng = random.Random(12)
    seen = set()
    for trial in range(30):
        game = random_game(rng)
        if trial % 2:
            p = random_marginals(rng, game)
        else:
            p = random_ce(game, trial).marginals()
        for test in (correlated.test_ce_compatibility, nash.test_nash_exploitability):
            verdict = test(game, p)
            cross_check(game, p, verdict, seed=trial)
            seen.add(type(getattr(verdict, "scheme", verdict)).__name__)
    assert seen >= {"Compatible", "ActionwiseScheme", "ProfilewiseScheme"}


def test_cross_check_accepts_is_nash(coordination, mixed_equilibrium):
    verdict = nash.test_nash_exploitability(coordination, mixed_equilibrium)
    assert verdict == IsNash()
    cross_check(coordination, mixed_equilibrium, verdict)


def test_cross_check_rejects_a_bad_witness(coordination, diagonal_profile):
    # The product of the diagonal marginals has the right marginals, but a
    # player told B gains by switching to T.
    verdict = Compatible(product_distribution(diagonal_profile))
    with pytest.raises(OracleDisagreement, match="bad witness"):
        cross_check(coordination, diagonal_profile, verdict)


def test_cross_check_rejects_a_failed_round_trip(
    coordination, diagonal_profile, skewed_profile, monkeypatch
):
    verdict = correlated.test_ce_compatibility(coordination, diagonal_profile)
    cross_check(coordination, diagonal_profile, verdict)
    # A sampler that returns a distribution whose marginals are incompatible.
    monkeypatch.setattr(
        oracles, "random_ce", lambda game, seed: product_distribution(skewed_profile)
    )
    with pytest.raises(OracleDisagreement, match="judged incompatible"):
        cross_check(coordination, diagonal_profile, verdict)


def test_cross_check_rejects_is_nash_on_a_non_equilibrium(coordination, skewed_profile):
    with pytest.raises(OracleDisagreement, match="fails the best-response check"):
        cross_check(coordination, skewed_profile, IsNash())


def test_cross_check_rejects_a_non_correlated_product(
    coordination, skewed_profile, monkeypatch
):
    # A best-response check that wrongly passes leaves the product check.
    monkeypatch.setattr(oracles, "is_nash", lambda game, p: True)
    with pytest.raises(OracleDisagreement, match="fails the incentive inequalities"):
        cross_check(coordination, skewed_profile, IsNash())


def test_cross_check_rejects_profilewise_exploitation_of_a_nash_profile(
    coordination, skewed_profile, mixed_equilibrium
):
    verdict = nash.test_nash_exploitability(coordination, skewed_profile)
    with pytest.raises(OracleDisagreement, match="on an equilibrium profile"):
        cross_check(coordination, mixed_equilibrium, verdict)


def test_cross_check_judges_profilewise_exploitation_without_the_nash_test(
    coordination, skewed_profile, monkeypatch
):
    # A best-response search that wrongly finds no deviation does not
    # decide whether a profile-wise verdict holds.
    verdict = nash.test_nash_exploitability(coordination, skewed_profile)
    monkeypatch.setattr(nash, "_best_deviation", lambda game, p: None)
    cross_check(coordination, skewed_profile, verdict)


def _tampered(scheme):
    if isinstance(scheme, ActionwiseScheme):
        fees = [list(row) for row in scheme.fees]
        fees[0][0] += 100
        return ActionwiseScheme(tuple(map(tuple, fees)), scheme.kernel)
    return ProfilewiseScheme((scheme.fee[0] + 100,) + scheme.fee[1:], scheme.kernel)


BOTH_TESTS = pytest.mark.parametrize(
    "test",
    [correlated.test_ce_compatibility, nash.test_nash_exploitability],
    ids=["actionwise", "profilewise"],
)


@BOTH_TESTS
def test_cross_check_rejects_a_tampered_scheme(coordination, skewed_profile, test):
    verdict = test(coordination, skewed_profile)
    cross_check(coordination, skewed_profile, verdict)
    bad = Exploitable(_tampered(verdict.scheme), verdict.expected_profit)
    with pytest.raises(OracleDisagreement, match="bad scheme: scheme infeasible"):
        cross_check(coordination, skewed_profile, bad)


@BOTH_TESTS
def test_cross_check_rejects_a_wrong_income(coordination, skewed_profile, test):
    verdict = test(coordination, skewed_profile)
    wrong = Exploitable(verdict.scheme, verdict.expected_profit + 1)
    with pytest.raises(OracleDisagreement, match="income does not check out"):
        cross_check(coordination, skewed_profile, wrong)


def test_cross_check_rejects_a_zero_income_scheme(coordination, skewed_profile):
    # Zero fees under the identity kernel are feasible and earn nothing.
    identity = DeviationKernel.identity(coordination.shape)
    zero = ActionwiseScheme(((F(0),) * 2, (F(0),) * 3), identity)
    with pytest.raises(OracleDisagreement, match="income does not check out"):
        cross_check(coordination, skewed_profile, Exploitable(zero, F(0)))


def test_cross_check_rejects_a_non_verdict(coordination, skewed_profile):
    verdict = correlated.test_ce_compatibility(coordination, skewed_profile)
    with pytest.raises(TypeError, match="not a verdict"):
        cross_check(coordination, skewed_profile, verdict.scheme)
