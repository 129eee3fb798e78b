"""Five-round auction runs: keygen, bid, outcome, decrypt, result."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from auctionlab import sigma
from auctionlab.defenses import DefenseFlags
from auctionlab.errors import (
    MissingShares,
    ModeMismatch,
    PriceOutOfRange,
    RestartRequired,
)
from auctionlab.groups import MID_GROUP, SMALL_GROUP
from auctionlab.protocol import (
    ROUND_KEYGEN,
    ROUND_OUTCOME,
    AuctionConfig,
    AuctionRun,
    BidderAgent,
    base_is_structurally_empty,
    bidder_name,
    collect_bids,
    compute_outcome_bases,
    encode_bid,
    expected_winner,
    run_auction,
    run_with_restarts,
)


class TestEncoding:
    def test_one_hot(self):
        assert encode_bid(1, 3) == [True, False, False]
        assert encode_bid(3, 3) == [False, False, True]

    def test_out_of_range(self):
        with pytest.raises(PriceOutOfRange):
            encode_bid(0, 3)
        with pytest.raises(PriceOutOfRange):
            encode_bid(4, 3)


class TestConfig:
    def test_defaults_are_desk_scale(self):
        cfg = AuctionConfig(n=2, k=2)
        assert (cfg.params.p, cfg.params.q, cfg.params.g) == (23, 11, 2)
        assert cfg.marker == 4
        assert cfg.interactive

    def test_hashed_mode_flag(self):
        cfg = AuctionConfig(n=2, k=2, flags=DefenseFlags(ni_proofs=True))
        assert not cfg.interactive

    def test_bad_sizes_rejected(self):
        with pytest.raises(Exception):
            AuctionConfig(n=0, k=2).validate()
        with pytest.raises(Exception):
            AuctionConfig(n=2, k=0).validate()

    def test_marker_must_live_in_subgroup(self):
        with pytest.raises(Exception):
            AuctionConfig(n=2, k=2, marker=5).validate()
        with pytest.raises(Exception):
            AuctionConfig(n=2, k=2, marker=1).validate()

    def test_per_bidder_markers(self):
        cfg = AuctionConfig(n=2, k=2, markers_per_bidder=(4, 9))
        cfg.validate()
        assert cfg.marker_for(1) == 4
        assert cfg.marker_for(2) == 9
        assert AuctionConfig(n=2, k=2).marker_for(2) == 4


def _brute_force_bases(params, alphas, betas, i, j):
    """Cell (i, j) base pair by the definition, one product at a time."""
    n, k = len(alphas), len(alphas[0])
    expect_a = expect_b = 1
    for h in range(n):
        for d in range(j + 1, k):
            expect_a = expect_a * alphas[h][d] % params.p
            expect_b = expect_b * betas[h][d] % params.p
    for d in range(j):
        expect_a = expect_a * alphas[i][d] % params.p
        expect_b = expect_b * betas[i][d] % params.p
    for h in range(i):
        expect_a = expect_a * alphas[h][j] % params.p
        expect_b = expect_b * betas[h][j] % params.p
    return expect_a, expect_b


class TestOutcomeBases:
    def test_matches_direct_products(self):
        """The three product groups: later prices anywhere, earlier prices
        in the same row, same price in earlier rows.  The whole grid, in the
        small and mid groups, including the one-row, one-column and
        single-cell shapes."""
        rng = random.Random(2)
        for g in (SMALL_GROUP, MID_GROUP):
            elements = g.elements()
            for n, k in ((3, 3), (4, 6), (1, 4), (5, 1), (1, 1)):
                alphas = [[rng.choice(elements) for _ in range(k)] for _ in range(n)]
                betas = [[rng.choice(elements) for _ in range(k)] for _ in range(n)]
                grid = compute_outcome_bases(g, alphas, betas)
                assert grid == [
                    [_brute_force_bases(g, alphas, betas, i, j) for j in range(k)]
                    for i in range(n)
                ], (g.p, n, k)

    def test_run_memo_follows_reposted_bids(self):
        """The run's grid is built once per bid state: asking again returns
        the same grid, and a bid re-posted mid-run gets a fresh one."""
        cfg = AuctionConfig(n=2, k=2, flags=DefenseFlags(ni_proofs=True))
        run = AuctionRun(cfg, [1, 2], 5)
        run.step_keygen()
        for index in range(1, 3):
            run.bidder(index).submit_bid(run.bids[index - 1])
        first = run.outcome_bases()
        assert run.outcome_bases() is first
        assert first == compute_outcome_bases(cfg.params,
                                              *collect_bids(run.board, 2))
        victim = run.board.latest_by_author("bid", "bid")[bidder_name(1)]
        bad_payload = dict(victim.payload)
        bad_payload["alphas"] = list(bad_payload["alphas"])
        bad_payload["alphas"][0] = bad_payload["alphas"][0] * 2 % cfg.params.p
        run.board.append("bid", bidder_name(1), "bid", bad_payload)
        second = run.outcome_bases()
        assert second != first
        assert second == compute_outcome_bases(cfg.params,
                                               *collect_bids(run.board, 2))
        assert run.outcome_bases() is second

    def test_structurally_empty_cells(self):
        """Only the first bidder's single-price cell has no product terms:
        no later prices, no earlier prices, no earlier rows."""
        assert base_is_structurally_empty(1, 1, 0, 0)
        assert base_is_structurally_empty(2, 1, 0, 0)
        assert not base_is_structurally_empty(2, 1, 1, 0)
        assert not base_is_structurally_empty(1, 2, 0, 0)
        assert not base_is_structurally_empty(3, 3, 0, 0)


class TestHonestRuns:
    def test_interactive_frozen_outcome(self):
        run, out, attempts = run_with_restarts(AuctionConfig(n=3, k=3),
                                               [1, 2, 1], 7)
        assert attempts == 1
        assert out.status == "winner"
        assert (out.winner_bidder, out.winner_price) == (2, 2)
        assert out.ones == [(2, 2)]

    def test_hashed_frozen_outcome(self):
        cfg = AuctionConfig(n=3, k=3, flags=DefenseFlags(ni_proofs=True))
        run, out, attempts = run_with_restarts(cfg, [1, 2, 1], 7)
        assert attempts == 1
        assert (out.winner_bidder, out.winner_price) == (2, 2)

    def test_all_defenses_frozen_outcome(self):
        cfg = AuctionConfig(n=3, k=3, flags=DefenseFlags.all_on())
        run, out, attempts = run_with_restarts(cfg, [1, 2, 1], 7)
        assert out.status == "winner"
        assert (out.winner_bidder, out.winner_price) == (2, 2)

    def test_per_bidder_markers_run(self):
        cfg = AuctionConfig(n=2, k=2, markers_per_bidder=(4, 9))
        run, out, attempts = run_with_restarts(cfg, [1, 2], 7)
        assert (out.winner_bidder, out.winner_price) == (2, 2)

    def test_winner_cell_is_one_and_v_in_subgroup(self):
        run, out, _ = run_with_restarts(AuctionConfig(n=3, k=3), [1, 2, 1], 7)
        g = run.config.params
        assert out.v[1][1] == 1
        for row in out.v:
            for value in row:
                assert g.is_element(value)

    def test_restart_on_chance_collision(self):
        """Seed 1 lands on a stray 1 cell; the operator reruns and the
        second attempt is decisive."""
        run, out = run_auction(AuctionConfig(n=2, k=2), [1, 2], 1)
        assert out.status == "multiple-ones"
        run, out, attempts = run_with_restarts(AuctionConfig(n=2, k=2),
                                               [1, 2], 1)
        assert attempts == 2
        assert (out.winner_bidder, out.winner_price) == (2, 2)

    def test_board_transcript_deterministic(self):
        a = run_auction(AuctionConfig(n=2, k=2), [1, 2], 42)[0].board.to_json()
        b = run_auction(AuctionConfig(n=2, k=2), [1, 2], 42)[0].board.to_json()
        assert a == b

    def test_different_seeds_differ(self):
        a = run_auction(AuctionConfig(n=2, k=2), [1, 2], 42)[0].board.to_json()
        b = run_auction(AuctionConfig(n=2, k=2), [1, 2], 43)[0].board.to_json()
        assert a != b

    def test_winner_sees_own_row(self):
        run, out, _ = run_with_restarts(AuctionConfig(n=3, k=3), [1, 2, 1], 7)
        row = run.bidder(out.winner_bidder).own_row_values()
        assert row[out.winner_price - 1] == 1
        loser_row = run.bidder(1).own_row_values()
        assert 1 not in loser_row

    @given(seed=st.integers(0, 300), n=st.integers(1, 3), k=st.integers(1, 3))
    @settings(max_examples=25, deadline=None)
    def test_decisive_outcomes_are_correct(self, seed, n, k):
        """Whenever a run ends with a unique 1 cell, it names the analytic
        winner.  Indecisive runs are allowed (small-group collisions)."""
        rng = random.Random(seed)
        bids = [rng.randrange(1, k + 1) for _ in range(n)]
        run, out = run_auction(AuctionConfig(n=n, k=k), bids, seed)
        if out.status == "winner":
            assert (out.winner_bidder, out.winner_price) == expected_winner(bids)


class TestModeDiscipline:
    def test_interactive_provers_refuse_in_hashed_mode(self):
        cfg = AuctionConfig(n=2, k=2, flags=DefenseFlags(ni_proofs=True))
        run = AuctionRun(cfg, [1, 2], 5)
        run.step_keygen()
        run.step_bid()
        agent = run.bidder(1)
        source = sigma.verifier_source(cfg.params, random.Random(1))
        with pytest.raises(ModeMismatch):
            agent.prove_keyshare(source)
        with pytest.raises(ModeMismatch):
            agent.prove_bid_cell(0, source)
        with pytest.raises(ModeMismatch):
            agent.prove_bid_sum(source)

    def test_hashed_posts_carry_checkable_proofs(self):
        cfg = AuctionConfig(n=2, k=2, flags=DefenseFlags(ni_proofs=True))
        run = AuctionRun(cfg, [1, 2], 5)
        run.step_keygen()
        for name, post in run.board.latest_by_author(ROUND_KEYGEN, "key").items():
            stmt = sigma.PDLStatement(g=cfg.params.g, v=post.payload["y"])
            tr = sigma.transcript_from_payload(post.payload["proof"])
            assert sigma.verify_transcript(cfg.params, stmt, tr,
                                           require_hashed=True)

    def test_interactive_posts_omit_proofs(self):
        run = AuctionRun(AuctionConfig(n=2, k=2), [1, 2], 5)
        run.step_keygen()
        for post in run.board.latest_by_author(ROUND_KEYGEN, "key").values():
            assert post.payload["proof"] is None


class TestRestartMachinery:
    def test_product_check_redraw_converges(self):
        """Seed 1 produces a zero joint exponent at some cell; the fix round
        replaces it and the run completes decisively."""
        cfg = AuctionConfig(n=2, k=2,
                            flags=DefenseFlags(noise_product_check=True))
        run, out = run_auction(cfg, [1, 2], 1)
        fixes = list(run.board.select(round=ROUND_OUTCOME, kind="outcome-fix"))
        assert fixes, "expected a redraw at this seed"
        assert out.status == "winner"
        assert (out.winner_bidder, out.winner_price) == (2, 2)

    def test_base_collapse_restarts(self):
        cfg = AuctionConfig(n=2, k=2,
                            flags=DefenseFlags(noise_product_check=True))
        with pytest.raises(RestartRequired):
            run_auction(cfg, [1, 2], 3)

    def test_product_check_completions_always_decisive(self):
        """With the product check on, any completed run names the correct
        winner — the stray-1 failure mode is exactly what it removes."""
        cfg = AuctionConfig(n=2, k=2,
                            flags=DefenseFlags(noise_product_check=True))
        completed = 0
        for seed in range(60):
            try:
                run, out = run_auction(cfg, [1, 2], seed)
            except RestartRequired:
                continue
            completed += 1
            assert out.status == "winner"
            assert (out.winner_bidder, out.winner_price) == (2, 2)
        assert completed >= 10


class TestExpectedWinner:
    def test_highest_price_wins(self):
        assert expected_winner([1, 3, 2]) == (2, 3)

    def test_lowest_index_breaks_ties(self):
        assert expected_winner([2, 1, 2]) == (1, 2)
        assert expected_winner([1, 1]) == (1, 1)


class TestBidRoundVerification:
    def test_tampered_bid_rejected_in_hashed_mode(self):
        """Flipping one ciphertext after the proofs are made must be caught."""
        from auctionlab.errors import ProofRejected

        cfg = AuctionConfig(n=2, k=2, flags=DefenseFlags(ni_proofs=True))
        run = AuctionRun(cfg, [1, 2], 5)
        run.step_keygen()
        for index in range(1, 3):
            run.bidder(index).submit_bid(run.bids[index - 1])
        victim = run.board.latest_by_author("bid", "bid")[bidder_name(1)]
        bad_payload = dict(victim.payload)
        bad_payload["alphas"] = list(bad_payload["alphas"])
        bad_payload["alphas"][0] = bad_payload["alphas"][0] * 2 % cfg.params.p
        run.board.append("bid", bidder_name(1), "bid", bad_payload)
        with pytest.raises(ProofRejected):
            run._verify_bids()


class NegatedShareBidder(BidderAgent):
    """Re-posts its key share as -g^x, outside the order-q subgroup, with a
    hashed knowledge proof that verifies: retrying until the challenge is
    even makes (-1)^c vanish from the check."""

    def keygen(self):
        super().keygen()
        params = self.params
        y = params.p - self.share.y
        stmt = sigma.PDLStatement(g=params.g, v=y)
        tr = None
        while tr is None or tr.challenge % 2:
            tr = sigma.prove_pdl(params, stmt, self.share.x, self.rng,
                                 sigma.fiat_shamir_source(params))
        assert sigma.verify_transcript(params, stmt, tr, require_hashed=True)
        return self._post(ROUND_KEYGEN, "keyshare",
                          {"bidder": self.index, "y": y,
                           "proof": sigma.transcript_to_payload(tr)})


class TestKeygenVerification:
    def test_keyshare_outside_subgroup_rejected(self):
        from auctionlab.errors import ProofRejected

        cfg = AuctionConfig(n=2, k=2, params=MID_GROUP, marker=9,
                            flags=DefenseFlags(ni_proofs=True))

        def factory(run, index, rng):
            if index == 2:
                return NegatedShareBidder(run, index, rng)
            return BidderAgent(run, index, rng)

        run = AuctionRun(cfg, [1, 2], 5, agent_factory=factory)
        with pytest.raises(ProofRejected) as caught:
            run.step_keygen()
        assert caught.value.author == bidder_name(2)
        assert caught.value.round_name == ROUND_KEYGEN
        assert "subgroup" in caught.value.detail
