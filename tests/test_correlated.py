import random
from fractions import Fraction as F

import pytest

from conftest import (
    permute_actionwise,
    permute_game,
    permute_joint,
    permute_marginals,
)
from fraction_checks import common_denominator
from full_ce_system import build_full_ce_system
from test_benchmark_inputs import _workloads_module
from eqaudit import dataio, games, lp, verify
from eqaudit import correlated
from eqaudit.correlated import (
    Compatible,
    Exploitable,
    build_ce_system,
    is_correlated_equilibrium,
    normalize_dual,
)
from eqaudit.games import Game, JointDistribution, MarginalProfile
from eqaudit.oracles import random_ce, random_game, random_marginals
from eqaudit.verify import verify_actionwise, verify_witness


def diagonal_joint(lam):
    probs = [F(0)] * 6
    probs[0] = lam
    probs[4] = 1 - lam
    return JointDistribution((2, 3), tuple(probs))


def test_is_ce_point_masses(coordination):
    assert is_correlated_equilibrium(
        coordination, JointDistribution.point_mass((2, 3), (0, 0))
    )
    # telling player 2 to play the middle column is not credible: switching
    # to the first column gains 9
    assert not is_correlated_equilibrium(
        coordination, JointDistribution.point_mass((2, 3), (0, 1))
    )


def test_is_ce_mixed_product(coordination, mixed_equilibrium):
    from eqaudit.games import product_distribution

    assert is_correlated_equilibrium(
        coordination, product_distribution(mixed_equilibrium)
    )


def test_build_system_shape(coordination, skewed_profile):
    # R is unobserved: its two profiles and its two incentive rows go, and
    # so do its marginal row and P2's last supported one (M).
    sys_ = build_ce_system(coordination, skewed_profile)
    assert sys_.num_vars == 2 * 2
    senses = [row.sense for row in sys_.rows]
    assert senses.count(lp.GE) == 2 * 1 + 2 * 2  # supported deviations
    assert senses.count(lp.EQ) == 2 + 1
    assert all(sys_.nonneg)
    # the rows and columns it keeps, cut out of the unreduced system
    full = build_full_ce_system(coordination, skewed_profile)
    cols = [0, 1, 3, 4]
    rows = [0, 1, 2, 3, 4, 5, 8, 9, 10]
    def fractions(row):
        return [F(c, row.den) for c in row.nums], row.sense, F(row.rhs_num, row.den)

    cut = [
        ([coeffs[j] for j in cols], sense, rhs)
        for coeffs, sense, rhs in (fractions(full.rows[k]) for k in rows)
    ]
    assert [fractions(row) for row in sys_.rows] == cut


def test_build_system_degenerate():
    game = Game(("Solo", "Passive"), (("x",), ("y",)), (("0",), ("0",)))
    p = MarginalProfile(((F(1),), (F(1),)))
    sys_ = build_ce_system(game, p)
    assert sys_.num_vars == 1
    assert all(row.sense == lp.EQ for row in sys_.rows)
    verdict = correlated.test_ce_compatibility(game, p)
    assert isinstance(verdict, Compatible)
    assert verdict.witness.probs == (F(1),)


@pytest.mark.parametrize("lam", [F(0), F(1, 3), F(1, 2), F(1)])
def test_diagonal_family_compatible(coordination, lam):
    q = diagonal_joint(lam)
    assert is_correlated_equilibrium(coordination, q)  # oracle by construction
    verdict = correlated.test_ce_compatibility(coordination, q.marginals())
    assert isinstance(verdict, Compatible)
    assert verify_witness(coordination, q.marginals(), verdict.witness)


@pytest.mark.parametrize("r_mass", [F(1, 4), F(1, 2), F(1)])
def test_dominated_action_mass_is_exploitable(coordination, r_mass):
    rng = random.Random(int(r_mass * 12))
    for _ in range(5):
        t = F(rng.randint(0, 8), 8)
        rest = 1 - r_mass
        w = F(rng.randint(0, 4), 4)
        p = MarginalProfile(
            ((t, 1 - t), (rest * w, rest * (1 - w), r_mass))
        )
        verdict = correlated.test_ce_compatibility(coordination, p)
        assert isinstance(verdict, Exploitable)
        income = verify_actionwise(coordination, p, verdict.scheme)
        assert income == verdict.expected_profit > 0


def test_skewed_profile_exploitable(coordination, skewed_profile):
    verdict = correlated.test_ce_compatibility(coordination, skewed_profile)
    assert isinstance(verdict, Exploitable)
    income = verify_actionwise(coordination, skewed_profile, verdict.scheme)
    assert income == verdict.expected_profit > 0


def test_normalize_dual_rejects_garbage(coordination, skewed_profile, matching_pennies):
    sys_ = build_ce_system(coordination, skewed_profile)
    with pytest.raises(ValueError):
        normalize_dual(coordination, skewed_profile, lp.Infeasible((0,) * len(sys_.rows), 1))
    # a true certificate of the system, read against another game
    out = lp.solve_feasibility(sys_)
    uniform = MarginalProfile(((F(1, 2), F(1, 2)), (F(1, 2), F(1, 2))))
    with pytest.raises(ValueError):
        normalize_dual(matching_pennies, uniform, out)
    # ... and against a game of the same shape, where no fee is earned
    idle = Game(coordination.players, coordination.actions, (("0",) * 6,) * 2)
    with pytest.raises(ValueError):
        normalize_dual(idle, skewed_profile, out)


def test_normalize_dual_scale_invariance(coordination, skewed_profile):
    sys_ = build_ce_system(coordination, skewed_profile)
    out = lp.solve_feasibility(sys_)
    assert isinstance(out, lp.Infeasible)
    for scale in (F(1), F(5), F(1, 7)):
        scaled = lp.Infeasible(*common_denominator([scale * m for m in out.multipliers]))
        scheme = normalize_dual(coordination, skewed_profile, scaled).scheme
        assert verify_actionwise(coordination, skewed_profile, scheme) > 0


def _support_product(game, p):
    supports = [set(p.support(i)) for i in range(game.num_players)]
    return [
        all(a in supports[i] for i, a in enumerate(profile))
        for profile in game.profiles()
    ]


def test_presolve_keeps_the_decision_and_certificates():
    # The verdict on the system over the support product must be the arm
    # the unreduced system gives, and every certificate read back from it
    # must check out on its own.
    # random_marginals leaves some actions at 0; random_ce marginals come
    # from sparse vertices.
    rng = random.Random(17)
    seen = set()
    for k in range(40):
        game = random_game(rng, max_actions=3 if k % 2 else 2)
        for p in (random_marginals(rng, game), random_ce(game, k).marginals()):
            verdict = correlated.test_ce_compatibility(game, p)
            full = lp.solve_feasibility(build_full_ce_system(game, p))
            assert isinstance(verdict, Compatible) == isinstance(full, lp.Feasible)
            seen.add((type(verdict), any(0 in row for row in p.probs)))
            if isinstance(verdict, Compatible):
                assert verify_witness(game, p, verdict.witness)
                inside = _support_product(game, p)
                assert all(
                    v == 0 for v, kept in zip(verdict.witness.probs, inside) if not kept
                )
            else:
                assert (
                    verify_actionwise(game, p, verdict.scheme)
                    == verdict.expected_profit
                    > 0
                )
    # both arms, each with and without an off-support action
    assert len(seen) == 4


def test_skewed_certificate_is_the_lifted_one(coordination, skewed_profile):
    # R is off the support: its fee is the negative fill value and its
    # kernel row, whose incentive rows were dropped, is the identity.
    verdict = correlated.test_ce_compatibility(coordination, skewed_profile)
    assert isinstance(verdict, Exploitable)
    assert verdict.expected_profit == F(7, 36)
    assert verdict.scheme.fees == ((F(1), F(-1, 9)), (F(-1), F(0), F(-1)))
    assert verdict.scheme.kernel.rows[1][2] == (F(0), F(0), F(1))
    assert verify_actionwise(coordination, skewed_profile, verdict.scheme) == F(7, 36)


def test_lift_needs_a_negative_off_support_fee():
    # Pinned seeded instance: player 2's first action is unobserved, and
    # the scheme is only feasible because that action's fee is strictly
    # negative.
    game, p = _pinned_negative_fee_instance()
    assert game.shape == (2, 2) and p.support(1) == (1,)
    verdict = correlated.test_ce_compatibility(game, p)
    assert isinstance(verdict, Exploitable)
    assert verdict.scheme.fees[1][0] < 0
    assert verify_actionwise(game, p, verdict.scheme) == verdict.expected_profit > 0


def _pinned_negative_fee_instance():
    rng = random.Random(2)
    game = random_game(rng)
    return game, random_marginals(rng, game)


def test_fee_fill_does_not_share_the_checkers_surplus(monkeypatch):
    # The fill computes surplus on its own. Lower the checker's integer
    # surplus by 1 at every profile outside the support product: the fee
    # fitted tight at one of them must now fail the check. A fill that
    # read `surplus_parts` (or `surplus_table`) would lower the fee too,
    # and the corrupted check would pass.
    game, p = _pinned_negative_fee_instance()
    inside = _support_product(game, p)
    original = games.surplus_parts

    def corrupted(game_, kernel):
        nums, dens = original(game_, kernel)
        return [n if kept else n - d for n, d, kept in zip(nums, dens, inside)], dens

    monkeypatch.setattr(games, "surplus_parts", corrupted)
    monkeypatch.setattr(verify, "surplus_parts", corrupted)
    with pytest.raises(RuntimeError):
        correlated.test_ce_compatibility(game, p)


def test_fee_fill_reads_only_the_integer_view(coordination, skewed_profile):
    # R is off the support, so its fee is filled from the surplus at the
    # profiles charged to it. On a parsed game that fill, and the check of
    # the scheme, read `int_payoffs` alone: no Fraction payoff view is built.
    game = dataio.parse_game(dataio.emit_game(coordination))
    assert "payoffs" not in vars(game)
    verdict = correlated.test_ce_compatibility(game, skewed_profile)
    assert "payoffs" not in vars(game)
    assert verdict == correlated.test_ce_compatibility(coordination, skewed_profile)
    assert verdict.scheme.fees[1][2] == F(-1)


@pytest.fixture
def rounds(monkeypatch):
    """The build of each request, the `(system, start, outcome)` of its
    solves, and its rounds of row generation: the system rows of each
    `lp._Simplex.join`, first the rows the solve starts from, then each
    set of rows that a point violates, in order."""
    built, solved, joined = [], [], []
    build, solve, join = correlated.build_ce_system, lp.solve_feasibility, lp._Simplex.join

    def recorded_build(game, p):
        built.append(build(game, p))
        solved.clear()
        joined.clear()
        return built[-1]

    def recorded_solve(system, start=None):
        solved.append((system, start, solve(system, start)))
        return solved[-1][2]

    def recorded_join(self, ks):
        joined.append(list(ks))
        join(self, joined[-1])

    monkeypatch.setattr(correlated, "build_ce_system", recorded_build)
    monkeypatch.setattr(lp, "solve_feasibility", recorded_solve)
    monkeypatch.setattr(lp._Simplex, "join", recorded_join)
    return built, solved, joined


def test_ce_system_is_built_once_per_request(
    rounds, monkeypatch, coordination, skewed_profile, diagonal_profile, mixed_equilibrium
):
    # On either arm of the solver: one build, one solve of the built
    # system whatever the number of rounds, no other `lp.LinearSystem`,
    # and one `lp.verify_outcome` call, the solver's own check of the
    # whole system. A forced case (here Nash marginals) builds nothing.
    built, solved, _joined = rounds
    systems = []
    checks = []
    verify_outcome = lp.verify_outcome

    class CountingSystem(lp.LinearSystem):
        def __post_init__(self):
            systems.append(self)
            super().__post_init__()

    def counting_check(system, outcome):
        checks.append(system)
        return verify_outcome(system, outcome)

    monkeypatch.setattr(lp, "LinearSystem", CountingSystem)
    monkeypatch.setattr(lp, "verify_outcome", counting_check)
    for p, arm, builds in (
        (skewed_profile, Exploitable, 1),
        (diagonal_profile, Compatible, 1),
        (mixed_equilibrium, Compatible, 0),
    ):
        built.clear()
        solved.clear()
        systems.clear()
        checks.clear()
        assert isinstance(correlated.test_ce_compatibility(coordination, p), arm)
        assert len(built) == builds
        assert [id(system) for system, _start, _outcome in solved] == [*map(id, built)]
        assert [*map(id, checks)] == [*map(id, systems)] == [*map(id, built)]


def test_an_infeasible_round_pads_to_a_certificate_of_the_whole_system(rounds):
    # Each round adds rows of the built system, in its order, and none
    # twice; the multipliers of an infeasible solve are 0 on every row
    # that never joined and give a Farkas certificate that the whole
    # system, built afresh, accepts. Only the first 60 drawn cases that
    # reach the solver count.
    built, solved, joined = rounds
    rng = random.Random(29)
    seen = set()
    reached = 0
    while reached < 60:
        game = random_game(rng)
        p = random_marginals(rng, game)
        built.clear()
        verdict = correlated.test_ce_compatibility(game, p)
        if not built:
            continue
        reached += 1
        [(system, start, outcome)] = solved
        assert system is built[-1] and joined[0] == sorted(start)
        kept = [k for ks in joined for k in ks]
        assert all(ks == sorted(ks) for ks in joined) and len(set(kept)) == len(kept)
        if isinstance(verdict, Compatible):
            assert isinstance(outcome, lp.Feasible)
            continue
        assert isinstance(outcome, lp.Infeasible)
        assert not any(y for k, y in enumerate(outcome.multipliers) if k not in kept)
        full = build_ce_system(game, p)
        assert lp.verify_outcome(full, outcome)
        seen.add((game.num_players, len(kept) < len(full.rows)))
    assert {(2, True), (3, True)} <= seen


def test_an_exploitable_case_can_end_in_one_round(rounds, coordination, skewed_profile):
    # Independent play at the skewed marginals already violates rows that
    # admit no coupling: the rows the solve starts from are infeasible.
    _built, solved, joined = rounds
    verdict = correlated.test_ce_compatibility(coordination, skewed_profile)
    assert isinstance(verdict, Exploitable)
    assert len(solved) == len(joined) == 1
    assert isinstance(solved[0][2], lp.Infeasible)


def _workload_case(seed, shape):
    workloads = _workloads_module()
    rng = random.Random(seed)
    game = workloads.make_game(rng, shape)
    return game, workloads.random_profile(rng, game)


# Dantzig's entering rule took 3 and 4 rounds on these cases; entering on
# the greatest improvement takes 2 on each, still more than one, and so it
# does with the rounds on one tableau.
@pytest.mark.parametrize("seed, expected_rounds", [(2, 2), (5, 2)])
def test_feasible_three_player_cases_take_several_rounds(rounds, seed, expected_rounds):
    # Benchmark-style 4x4x4 games with random marginals: compatible, as
    # the unreduced system confirms, after rounds that each add rows.
    _built, solved, joined = rounds
    game, p = _workload_case(seed, (4, 4, 4))
    verdict = correlated.test_ce_compatibility(game, p)
    assert isinstance(verdict, Compatible)
    assert verify_witness(game, p, verdict.witness)
    assert len(joined) == expected_rounds and all(joined)
    assert len(solved) == 1 and isinstance(solved[0][2], lp.Feasible)
    assert isinstance(lp.solve_feasibility(build_full_ce_system(game, p)), lp.Feasible)


def test_marginal_zero_probability_actions(coordination):
    # zero-probability actions force zero joint mass and vacuous rows
    p = MarginalProfile(((F(1), F(0)), (F(1), F(0), F(0))))
    verdict = correlated.test_ce_compatibility(coordination, p)
    assert isinstance(verdict, Compatible)
    assert verdict.witness.probs[0] == 1


def test_necessity_direction_random_corpus():
    # marginals of an actual equilibrium must always come back compatible
    from eqaudit.oracles import random_ce

    rng = random.Random(11)
    for k in range(25):
        game = random_game(rng)
        q = random_ce(game, seed=k)
        verdict = correlated.test_ce_compatibility(game, q.marginals())
        assert isinstance(verdict, Compatible)
        assert verify_witness(game, q.marginals(), verdict.witness)


def _affine_shift(game, rng, alpha):
    """alpha * u_i + beta_i(a_{-i}): scales and shifts without touching
    any incentive comparison."""
    payoffs = []
    for i in range(game.num_players):
        beta = {}
        row = []
        for flat, profile in enumerate(game.profiles()):
            others = profile[:i] + profile[i + 1 :]
            if others not in beta:
                beta[others] = F(rng.randint(-5, 5), rng.randint(1, 5))
            row.append(alpha * game.payoffs[i][flat] + beta[others])
        payoffs.append(tuple(row))
    return Game(game.players, game.actions, tuple(payoffs))


def test_affine_payoff_invariance():
    rng = random.Random(5)
    for k in range(12):
        game = random_game(rng)
        p = random_marginals(rng, game)
        base = correlated.test_ce_compatibility(game, p)
        for alpha in (F(1, 2), F(3)):
            shifted = _affine_shift(game, rng, alpha)
            other = correlated.test_ce_compatibility(shifted, p)
            assert type(other) is type(base)


def test_permutation_equivariance():
    rng = random.Random(9)
    for k in range(12):
        game = random_game(rng)
        p = random_marginals(rng, game)
        perms = tuple(
            tuple(rng.sample(range(n), n)) for n in game.shape
        )
        pgame = permute_game(game, perms)
        pp = permute_marginals(p, perms)
        base = correlated.test_ce_compatibility(game, p)
        other = correlated.test_ce_compatibility(pgame, pp)
        assert type(other) is type(base)
        # the mapped certificate must be a valid certificate of the
        # relabeled instance, with the same income
        if isinstance(base, Compatible):
            mapped = permute_joint(base.witness, perms)
            assert verify_witness(pgame, pp, mapped)
        else:
            mapped = permute_actionwise(base.scheme, perms)
            assert (
                verify_actionwise(pgame, pp, mapped) == base.expected_profit > 0
            )


@pytest.fixture
def no_solver(monkeypatch):
    def explode(*_args, **_kwargs):  # pragma: no cover
        raise AssertionError("a forced case reached the solver")

    monkeypatch.setattr(lp, "solve_feasibility", explode)
    monkeypatch.setattr(correlated, "build_ce_system", explode)


def test_nash_marginals_get_the_product_witness(no_solver, coordination, mixed_equilibrium):
    # Both players mix, and every supported action is a best response.
    assert all(len(mixed_equilibrium.support(i)) == 2 for i in range(2))
    verdict = correlated.test_ce_compatibility(coordination, mixed_equilibrium)
    assert verdict == Compatible(games.product_distribution(mixed_equilibrium))
    assert verify_witness(coordination, mixed_equilibrium, verdict.witness)


def test_dominated_play_gets_a_one_player_contract(no_solver):
    # T beats B by 5/2 against L and by 7/3 against M, on lines of
    # different denominators, but B beats T against R, which P2 never
    # plays. P2's payoffs are flat, so only P1 deviates.
    game = Game(
        ("P1", "P2"),
        (("T", "B"), ("L", "M", "R")),
        (("5/2", "7/3", "0", "0", "0", "5"), ("0",) * 6),
    )
    p = MarginalProfile(((F(1, 2), F(1, 2)), (F(1, 2), F(1, 2), F(0))))
    verdict = correlated.test_ce_compatibility(game, p)
    assert isinstance(verdict, Exploitable)
    kernel = verdict.scheme.kernel.rows
    assert kernel[0] == ((F(1), F(0)), (F(1), F(0)))  # B is sent to T
    assert kernel[1] == tuple(tuple(F(int(a == b)) for b in range(3)) for a in range(3))
    # The fee on B is the least gain, 7/3; R's fee is filled: at (B, R) the
    # surplus is -5 and B's fee 7/3 is charged, so R's fee is -22/3.
    assert verdict.scheme.fees == ((F(0), F(7, 3)), (F(0), F(0), F(-22, 3)))
    assert verdict.expected_profit == F(1, 2) * F(7, 3)
    assert verify_actionwise(game, p, verdict.scheme) == verdict.expected_profit


@pytest.mark.parametrize("seed", range(4))
def test_every_route_agrees_with_a_plain_solve(monkeypatch, seed):
    # Random games with random marginals and with the marginals of a
    # sampled correlated equilibrium: whatever the route, the verdict kind
    # is the one a plain solve of the coupling system gives, and every
    # certificate passes its check. Each verdict kind is reached both with
    # and without the solver.
    solve, reached = lp.solve_feasibility, []

    def counted(system, start=None):
        reached.append(system)
        return solve(system, start)

    monkeypatch.setattr(lp, "solve_feasibility", counted)
    rng = random.Random(seed)
    routes = set()
    for k in range(30):
        game = random_game(rng, max_actions=3 if k % 2 else 2)
        for p in (random_marginals(rng, game), random_ce(game, k).marginals()):
            reached.clear()
            verdict = correlated.test_ce_compatibility(game, p)
            routes.add((type(verdict), bool(reached)))
            plain = solve(build_ce_system(game, p))
            assert isinstance(verdict, Compatible) == isinstance(plain, lp.Feasible)
            if isinstance(verdict, Compatible):
                assert verify_witness(game, p, verdict.witness)
                if not reached:
                    assert verdict.witness == games.product_distribution(p)
            else:
                assert verify.verify_exploitable(game, p, verdict) > 0
    assert routes == {
        (kind, solved) for kind in (Compatible, Exploitable) for solved in (False, True)
    }
