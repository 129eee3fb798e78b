"""Five-round auction runs: keygen, bid, outcome, decrypt, result."""

import collections
import copy
import dataclasses
import gc
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from auctionlab import protocol, sigma
from auctionlab.attacks import ZeroNoiseColluder, dishonest_bidder
from auctionlab.defenses import DefenseFlags, base_is_structurally_empty
from auctionlab.errors import (
    AuthRejected,
    MissingShares,
    ModeMismatch,
    PriceOutOfRange,
    ProofRejected,
    RestartRequired,
    WitnessMismatch,
)
from auctionlab.groups import LARGE_GROUP, MID_GROUP, SMALL_GROUP
from auctionlab.protocol import (
    ROUND_BID,
    ROUND_DECRYPT,
    ROUND_KEYGEN,
    ROUND_OUTCOME,
    AuctionConfig,
    AuctionRun,
    BidderAgent,
    bidder_name,
    compute_outcome_bases,
    encode_bid,
    expected_winner,
    run_auction,
    run_with_restarts,
)
from auctionlab.scenarios import SCENARIOS, ScenarioSpec, run_scenario


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

    def test_bid_reposted_after_the_round_closes(self):
        """The run's grid is built once, from the bids the bid round
        checked; a bid re-posted after that changes nothing."""
        cfg = AuctionConfig(n=2, k=2, flags=DefenseFlags(ni_proofs=True))
        run = AuctionRun(cfg, [1, 2], 5)
        run.step_keygen()
        run.step_bid()
        first = run.bases
        posts = run.board.latest_by_author(ROUND_BID, "bid")
        assert first == compute_outcome_bases(
            cfg.params, *([posts[bidder_name(i)].payload[name] for i in (1, 2)]
                          for name in ("alphas", "betas")))
        _repost_bid(run, 1, alphas=[a * 2 % cfg.params.p
                                    for a in posts[bidder_name(1)].payload["alphas"]])
        run.step_outcome()
        run.step_decrypt()
        assert run.bases is first
        assert run.determine_winner().status == "winner"

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
        bid = run.board.latest_by_author(ROUND_BID, "bid")[agent.name].payload
        cells, total = protocol.bid_statements(cfg.params, run.joint_y, cfg.marker,
                                               bid["alphas"], bid["betas"])
        source = sigma.verifier_source(cfg.params, random.Random(1))
        with pytest.raises(ModeMismatch):
            agent.prove([sigma.PDLStatement(g=cfg.params.g, v=agent.share.y)], source)
        with pytest.raises(ModeMismatch):
            agent.prove([cells[0]], source)
        with pytest.raises(ModeMismatch):
            agent.prove([total], source)

    def test_hashed_posts_carry_checkable_proofs(self):
        cfg = AuctionConfig(n=2, k=2, flags=DefenseFlags(ni_proofs=True))
        run = AuctionRun(cfg, [1, 2], 5)
        run.step_keygen()
        posts = run.board.latest_by_author(ROUND_KEYGEN, "keyshare")
        assert len(posts) == cfg.n
        for name, post in posts.items():
            stmt = sigma.PDLStatement(g=cfg.params.g, v=post.payload["y"])
            tr = sigma.transcript_from_payload(post.payload["proof"])
            assert sigma.verify_transcript(cfg.params, stmt, tr,
                                           require_hashed=True)

    def test_interactive_posts_omit_proofs(self):
        run = AuctionRun(AuctionConfig(n=2, k=2), [1, 2], 5)
        run.step_keygen()
        posts = run.board.latest_by_author(ROUND_KEYGEN, "keyshare")
        assert len(posts) == 2
        for post in posts.values():
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

    def test_with_restarts_gives_up_after_max_attempts(self):
        """An attempt that always asks for a restart is called
        ``MAX_ATTEMPTS`` times, on consecutive seeds, and the last call's
        RestartRequired escapes."""
        seeds = []

        def attempt(seed):
            seeds.append(seed)
            raise RestartRequired(f"attempt {len(seeds)}", [])

        with pytest.raises(RestartRequired, match=f"attempt {protocol.MAX_ATTEMPTS}$"):
            protocol.with_restarts(attempt, 40)
        assert seeds == list(range(40, 40 + protocol.MAX_ATTEMPTS))


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
            tr = sigma.prove(params, stmt, self.share.x, self.rng,
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
        assert caught.value.detail == (
            "malformed key share: element outside the order-q subgroup")


def _tampered_keygen(tamper):
    """Run keygen under hashed proofs with bidder 2's proof payload changed
    by ``tamper`` before it is posted; return the rejection it causes."""
    from auctionlab.errors import ProofRejected

    class TamperingBidder(BidderAgent):
        def _post(self, round_name, kind, payload):
            if round_name == ROUND_KEYGEN:
                tamper(payload["proof"])
            return super()._post(round_name, kind, payload)

    def factory(run, index, rng):
        return (TamperingBidder if index == 2 else BidderAgent)(run, index, rng)

    cfg = AuctionConfig(n=2, k=2, flags=DefenseFlags(ni_proofs=True))
    run = AuctionRun(cfg, [1, 2], 5, agent_factory=factory)
    with pytest.raises(ProofRejected) as caught:
        run.step_keygen()
    exc = caught.value
    return "ProofRejected", exc.author, exc.round_name, exc.detail


def _rerandomized_copy_under_hashed_proofs():
    from auctionlab.scenarios import ScenarioSpec, run_scenario

    result = run_scenario(ScenarioSpec(scenario="impersonation", rerandomize=True,
                                       flags=DefenseFlags(ni_proofs=True)))
    assert result.expectation_met
    outcome = result.report["outcome"]
    return (outcome["error"], "bidder-2", outcome["extras"]["rejected_round"],
            outcome["detail"].split(": ", 1)[1])


def _set_string_commitment(proof):
    proof["com"] = [str(proof["com"][0])]


class TestMalformedProofs:
    def test_interactive_keyshare_with_no_bidder_behind_it(self):
        """Nobody answers a session for a key share posted under a name
        outside the auction, so its proof is missing."""
        from auctionlab.errors import ProofRejected

        cfg = AuctionConfig(n=2, k=2)
        run = AuctionRun(cfg, [1, 2], 5)
        run.board.append(ROUND_KEYGEN, "ghost", "keyshare",
                         {"bidder": 3, "y": cfg.params.g, "proof": None})
        with pytest.raises(ProofRejected) as caught:
            run.step_keygen()
        assert (caught.value.author, caught.value.detail) == ("ghost", "missing proof")

    @pytest.mark.parametrize("case,round_name,detail", [
        (_rerandomized_copy_under_hashed_proofs, "bid", "missing proof at price 1"),
        (lambda: _tampered_keygen(lambda proof: proof.pop("resp")),
         "keygen", "malformed proof: response missing or of the wrong type"),
        (lambda: _tampered_keygen(lambda proof: proof["com"].append(proof["com"][0])),
         "keygen", "key share proof failed"),
        (lambda: _tampered_keygen(_set_string_commitment),
         "keygen", "malformed proof: commitments must be a list of integers"),
    ], ids=["rerandomized-copy-without-proofs", "keygen-without-response",
            "keygen-two-commitments", "keygen-string-commitment"])
    def test_rejected_with_author_and_round(self, case, round_name, detail):
        """A hashed proof that is missing or not shaped like a transcript is
        refused with the author and round named, never a bare exception."""
        assert case() == ("ProofRejected", "bidder-2", round_name, detail)

    @pytest.mark.parametrize("shift", [300, -1], ids=["z+300p", "z-p"])
    def test_hashed_commitment_outside_the_group_range(self, shift):
        """z + 300p and z - p pass the algebra, which reduces mod p, but have
        no place in the challenge's fixed-width encoding."""
        def shifted(proof):
            proof["com"][0] += shift * SMALL_GROUP.p

        assert _tampered_keygen(shifted) == (
            "ProofRejected", "bidder-2", "keygen",
            "malformed proof: commitment outside 0 < z < p")


class TestForeignStatements:
    """An interactive verifier asks the poster's agent to prove the
    statement it built from the board.  A post under a bidder's name that
    the bidder never made is refused as that round's failed proof."""

    CONFIG = AuctionConfig(n=3, k=4, params=MID_GROUP, marker=9)

    @pytest.mark.parametrize("seed", range(4))
    def test_key_share(self, seed):
        run = AuctionRun(self.CONFIG, [3, 1, 2], seed)
        for index in range(1, 4):
            run.bidder(index).keygen()
        run.board.append(ROUND_KEYGEN, bidder_name(2), "keyshare",
                         {"bidder": 2, "y": MID_GROUP.exp(MID_GROUP.g, 5), "proof": None})
        with pytest.raises(ProofRejected) as caught:
            run._verify_keygen()
        exc = caught.value
        assert (exc.author, exc.round_name, exc.detail) == (
            bidder_name(2), ROUND_KEYGEN, "key share proof failed")

    @pytest.mark.parametrize("seed", range(4))
    def test_bid(self, seed):
        run = AuctionRun(self.CONFIG, [3, 1, 2], seed)
        run.step_keygen()
        for index in range(1, 4):
            run.bidder(index).submit_bid(run.bids[index - 1])
        alphas = run.board.latest_by_author(ROUND_BID, "bid")[bidder_name(2)].payload["alphas"]
        _repost_bid(run, 2, alphas=[alphas[0] * MID_GROUP.g % MID_GROUP.p, *alphas[1:]])
        with pytest.raises(ProofRejected) as caught:
            run._verify_bids()
        exc = caught.value
        assert (exc.author, exc.round_name, exc.detail) == (
            bidder_name(2), ROUND_BID, "validity proof failed at price 1")


class TestNonCanonicalScalars:
    """A hashed challenge or response outside 0 <= v < q is a second
    accepting transcript for the same statement (v + q passes every
    equation), so it is refused, OR branches included."""

    @pytest.mark.parametrize("field,shift", [
        ("resp", SMALL_GROUP.q),
        ("resp", -SMALL_GROUP.q),
        ("chal", SMALL_GROUP.q),
        ("resp", SMALL_GROUP.q << 200_000),
    ], ids=["resp+q", "resp-q", "chal+q", "resp-200000-bits"])
    def test_keygen_proof(self, field, shift):
        def shifted(proof):
            proof[field] += shift

        assert _tampered_keygen(shifted) == (
            "ProofRejected", "bidder-2", "keygen",
            "malformed proof: response or challenge outside 0 <= v < q")

    @pytest.mark.parametrize("shift", [SMALL_GROUP.q, SMALL_GROUP.q << 200_000],
                             ids=["resp+q", "resp-200000-bits"])
    def test_interactive_session(self, shift):
        """An interactive response shifted by a multiple of q passes every
        equation too; it is refused before any verifier raises a base to it."""
        class ShiftingBidder(BidderAgent):
            def prove(self, stmts, challenge_source):
                return [tr._replace(response=tr.response + shift)
                        if isinstance(stmt, sigma.PDLStatement) else tr
                        for stmt, tr in zip(stmts, super().prove(stmts, challenge_source))]

        def factory(run, index, rng):
            return (ShiftingBidder if index == 2 else BidderAgent)(run, index, rng)

        with pytest.raises(ProofRejected) as caught:
            run_auction(AuctionConfig(n=2, k=2), [1, 2], 5, agent_factory=factory)
        exc = caught.value
        assert (exc.author, exc.round_name, exc.detail) == (
            bidder_name(2), ROUND_KEYGEN,
            "malformed proof: response or challenge outside 0 <= v < q")

    @pytest.mark.parametrize("branch,field", [(0, "resp"), (1, "chal")])
    def test_or_branch(self, branch, field):
        run = _hashed_bids_posted()
        proofs = copy.deepcopy(run.board.latest_by_author(ROUND_BID, "bid")
                               [bidder_name(2)].payload["proofs"])
        proofs[0]["or"][branch][field] += SMALL_GROUP.q
        _repost_bid(run, 2, proofs=proofs)
        with pytest.raises(ProofRejected) as caught:
            run._verify_bids()
        exc = caught.value
        assert (exc.author, exc.round_name, exc.detail) == (
            bidder_name(2), ROUND_BID,
            "malformed proof at price 1: response or challenge outside 0 <= v < q")


def _str_commitments(tr):
    return tr._replace(commitment=tuple(str(z) for z in tr.commitment))


def _dict_branch(tr):
    if isinstance(tr, sigma.OrTranscript):
        return tr._replace(branches=(tr.branches[0], sigma.transcript_to_payload(tr.branches[1])))
    return tr


class TestMalformedSessions:
    """An agent's interactive sessions that are not transcript records of
    ints are refused as malformed proofs naming the author and the round,
    as an unparseable hashed payload is, in a narrow group (equations
    checked as they arrive) and a wide one (equations batched)."""

    REWRITES = {
        "str commitments": _str_commitments,
        "float response": lambda tr: tr._replace(response=float(tr.response)),
        "None challenge": lambda tr: tr._replace(challenge=None),
        "dict": sigma.transcript_to_payload,
        "int": lambda tr: 7,
        "empty tuple": lambda tr: (),
        "dict OR branch": _dict_branch,
    }
    DETAILS = {
        "str commitments": (ROUND_KEYGEN, "commitments must be a tuple of integers"),
        "float response": (ROUND_KEYGEN, "response or challenge outside 0 <= v < q"),
        "None challenge": (ROUND_KEYGEN, "response or challenge outside 0 <= v < q"),
        "dict": (ROUND_KEYGEN, "dict is not a transcript"),
        "int": (ROUND_KEYGEN, "int is not a transcript"),
        "empty tuple": (ROUND_KEYGEN, "tuple is not a transcript"),
        "dict OR branch": (ROUND_BID, "dict is not a transcript"),
    }

    @staticmethod
    def _refusal(group, prove):
        class RewritingBidder(BidderAgent):
            def prove(self, stmts, challenge_source):
                return prove(super().prove(stmts, challenge_source))

        config = AuctionConfig(n=3, k=3, params=group, marker=9)
        with pytest.raises(ProofRejected) as caught:
            run_auction(config, [1, 2, 3], 5,
                        agent_factory=dishonest_bidder(3, RewritingBidder))
        exc = caught.value
        return exc.author, exc.round_name, exc.detail

    @pytest.mark.parametrize("group", [MID_GROUP, LARGE_GROUP], ids=["mid", "large"])
    @pytest.mark.parametrize("shape", list(REWRITES))
    def test_transcript(self, group, shape):
        rewrite = self.REWRITES[shape]
        round_name, problem = self.DETAILS[shape]
        where = " at price 1" if round_name == ROUND_BID else ""
        assert self._refusal(group, lambda transcripts: [rewrite(tr) for tr in transcripts]) == (
            bidder_name(3), round_name, f"malformed proof{where}: {problem}")

    @pytest.mark.parametrize("group", [MID_GROUP, LARGE_GROUP], ids=["mid", "large"])
    @pytest.mark.parametrize("reply,name", [(None, "NoneType"), (7, "int"),
                                            ((), "tuple")], ids=["None", "int", "tuple"])
    def test_reply_not_a_list(self, group, reply, name):
        assert self._refusal(group, lambda transcripts: reply) == (
            bidder_name(3), ROUND_KEYGEN, f"malformed proof: {name} reply, not a list")


def _hashed_bids_posted(n=2, k=3, seed=5):
    """A hashed run in the small group with keygen done and every bid on the
    board, not yet verified."""
    cfg = AuctionConfig(n=n, k=k, flags=DefenseFlags(ni_proofs=True))
    run = AuctionRun(cfg, list(range(1, n + 1)), seed)
    run.step_keygen()
    for index in range(1, n + 1):
        run.bidder(index).submit_bid(run.bids[index - 1])
    return run


def _repost_bid(run, author, payload_from=None, **changes):
    """Post ``payload_from``'s latest bid (default: ``author``'s) again under
    ``author``'s name, with ``changes`` applied to the payload."""
    posts = run.board.latest_by_author(ROUND_BID, "bid")
    payload = dict(posts[bidder_name(payload_from or author)].payload, **changes)
    run.board.append(ROUND_BID, bidder_name(author), "bid", payload)


class TestMalformedBids:
    @pytest.mark.parametrize("field,size,detail", [
        ("proofs", 1, "malformed bid: 1 proofs for 3 prices"),
        ("alphas", 1, "malformed bid: 1 alphas for 3 prices"),
        ("betas", 2, "malformed bid: 2 betas for 3 prices"),
        ("alphas", 4, "malformed bid: 4 alphas for 3 prices"),
    ])
    def test_wrong_length_refused_before_any_proof(self, field, size, detail):
        run = _hashed_bids_posted()
        entries = run.board.latest_by_author(ROUND_BID, "bid")[bidder_name(1)].payload[field]
        _repost_bid(run, 1, **{field: (list(entries) * 2)[:size]})
        with pytest.raises(ProofRejected) as caught:
            run._verify_bids()
        exc = caught.value
        assert (exc.author, exc.round_name, exc.detail) == (bidder_name(1), ROUND_BID, detail)


def _drop(name):
    return lambda payload: payload.pop(name)


class TestMissingFields:
    """A key share or bid post that lacks a field, or names a bidder
    outside the auction, is refused with the author and round named, never
    a bare KeyError or IndexError."""

    @pytest.mark.parametrize("round_name,tamper,detail", [
        (ROUND_KEYGEN, _drop("y"), "malformed key share: no y"),
        (ROUND_KEYGEN, _drop("proof"), "malformed key share: no proof"),
        (ROUND_KEYGEN, lambda payload: payload.update(y="7"),
         "malformed key share: element outside 0 < v < p"),
        (ROUND_BID, _drop("alphas"), "malformed bid: no alphas"),
        (ROUND_BID, _drop("sum_proof"), "malformed bid: no sum_proof"),
        (ROUND_BID, _drop("bidder"), "malformed bid: no bidder"),
        (ROUND_BID, lambda payload: payload.update(bidder=7),
         "malformed bid: bidder 7 outside 1..2"),
    ], ids=["keyshare-y", "keyshare-proof", "keyshare-y-str", "bid-alphas",
            "bid-sum_proof", "bid-bidder", "bid-bidder-7"])
    @pytest.mark.parametrize("ni_proofs", [False, True], ids=["interactive", "hashed"])
    def test_refused_with_author_and_round(self, ni_proofs, round_name, tamper, detail):
        class TamperingBidder(BidderAgent):
            def _post(self, posted_round, kind, payload):
                if posted_round == round_name:
                    tamper(payload)
                return super()._post(posted_round, kind, payload)

        cfg = AuctionConfig(n=2, k=3, markers_per_bidder=(4, 9),
                            flags=DefenseFlags(ni_proofs=ni_proofs))
        run = AuctionRun(cfg, [1, 2], 5,
                         agent_factory=dishonest_bidder(2, TamperingBidder))
        with pytest.raises(ProofRejected) as caught:
            run.run()
        exc = caught.value
        assert (exc.author, exc.round_name, exc.detail) == (
            bidder_name(2), round_name, detail)


class MisnamedBidder(BidderAgent):
    """Encodes its bid under bidder 1's marker and posts it as bidder 1's,
    under its own name."""

    def submit_bid(self, price: int):
        own, self.index = self.index, 1
        try:
            return super().submit_bid(price)
        finally:
            self.index = own


class TestBidNamesItsAuthor:
    """A bid whose ``bidder`` field is another bidder's index is refused:
    otherwise bidder 2 could bid under bidder 1's marker and win."""

    @pytest.mark.parametrize("ni_proofs", [False, True], ids=["interactive", "hashed"])
    def test_refused_with_author_and_round(self, ni_proofs):
        cfg = AuctionConfig(n=2, k=3, markers_per_bidder=(4, 9),
                            flags=DefenseFlags(ni_proofs=ni_proofs))
        run = AuctionRun(cfg, [1, 3], 5, agent_factory=dishonest_bidder(2, MisnamedBidder))
        with pytest.raises(ProofRejected) as caught:
            run.run()
        exc = caught.value
        assert (exc.author, exc.round_name, exc.detail) == (
            bidder_name(2), ROUND_BID, "malformed bid: bidder 1 is not its author")


class NonMappingOutcomeBidder(BidderAgent):
    """After its outcome post, posts ``["not", "a", "mapping"]`` as an
    outcome or fix post, with its own tag."""

    def __init__(self, run, index, rng, kind):
        super().__init__(run, index, rng)
        self.kind = kind

    def post_outcome(self):
        post = super().post_outcome()
        self._post(ROUND_OUTCOME, self.kind, ["not", "a", "mapping"])
        return post


class TestNonMappingOutcome:
    """An outcome or fix post whose payload is not a mapping is refused
    with the author and round named, never a bare AttributeError."""

    @pytest.mark.parametrize("kind", ["outcome", "outcome-fix"])
    @pytest.mark.parametrize("flags", [DefenseFlags(), DefenseFlags.all_on()],
                             ids=["interactive", "all-defenses"])
    def test_refused_with_author_and_round(self, flags, kind):
        cfg = AuctionConfig(n=3, k=4, params=MID_GROUP, marker=9, flags=flags)
        for seed in range(3):
            run = AuctionRun(cfg, [3, 1, 2], seed, agent_factory=dishonest_bidder(
                2, NonMappingOutcomeBidder, kind))
            with pytest.raises(ProofRejected) as caught:
                run.run()
            exc = caught.value
            assert (exc.author, exc.round_name, exc.detail) == (
                bidder_name(2), ROUND_OUTCOME,
                "malformed outcome: payload is not a mapping"), seed


class JunkPublicationBidder(BidderAgent):
    """Posts ``["junk"]`` as a decryption publication of its own, with its
    own tag, after sending its shares to the seller."""

    def send_decrypt_shares(self):
        super().send_decrypt_shares()
        self._post(ROUND_DECRYPT, "decrypt-publish", ["junk"])


class TestOwnRowReadsTheSeller:
    """A bidder's own-row view reads the seller's publications only, so a
    publication posted by anyone else neither crashes it nor enters it."""

    @pytest.mark.parametrize("flags", [DefenseFlags(), DefenseFlags.all_on()],
                             ids=["no-defenses", "all-defenses"])
    def test_other_authors_ignored(self, flags):
        cfg = AuctionConfig(n=3, k=4, params=MID_GROUP, marker=9, flags=flags)
        run, outcome = run_auction(cfg, [3, 1, 2], 1,
                                   agent_factory=dishonest_bidder(2, JunkPublicationBidder))
        assert outcome.status == "winner"
        for index in range(1, 4):
            assert run.bidder(index).own_row_values() == outcome.v[index - 1]


class TestOwnRowRefusesMalformedPublications:
    """A seller publication that fails its tag check under authentication,
    or that does not hold the reader's row of an n x k grid, is refused
    naming the seller and the decrypt round, never read or crashed on."""

    MALFORMED = {
        "not-a-mapping": (["junk"], "payload is not a mapping"),
        "no-phi": ({"bidder": 2}, "phi is not a 3 x 4 grid"),
        "bidder-not-int": ({"bidder": "2", "phi": []}, "bidder '2' outside 1..3"),
        "bidder-outside": ({"bidder": 4, "phi": [[1] * 4] * 3}, "bidder 4 outside 1..3"),
        "one-row": ({"bidder": 2, "phi": [[1, 1, 1, 1]]}, "phi is not a 3 x 4 grid"),
        "element-p": ({"bidder": 2, "phi": [[MID_GROUP.p] * 4, [None] * 4, [1] * 4]},
                      "element outside 0 < v < p"),
    }

    @staticmethod
    def _finished_run(flags):
        cfg = AuctionConfig(n=3, k=4, params=MID_GROUP, marker=9, flags=flags)
        run, outcome = run_auction(cfg, [3, 1, 2], 1)
        assert outcome.status == "winner"
        return run

    @pytest.mark.parametrize("case", MALFORMED)
    @pytest.mark.parametrize("flags", [DefenseFlags(), DefenseFlags.all_on()],
                             ids=["no-defenses", "all-defenses"])
    def test_malformed_refused(self, flags, case):
        payload, detail = self.MALFORMED[case]
        run = self._finished_run(flags)
        run.seller._post(ROUND_DECRYPT, "decrypt-publish", payload)
        with pytest.raises(ProofRejected) as caught:
            run.bidder(1).own_row_values()
        exc = caught.value
        assert (exc.author, exc.round_name, exc.detail) == (
            protocol.SELLER, ROUND_DECRYPT, f"malformed publication: {detail}")

    @pytest.mark.parametrize("case", MALFORMED)
    def test_untagged_refused_under_authentication(self, case):
        run = self._finished_run(DefenseFlags.all_on())
        run.board.append(ROUND_DECRYPT, protocol.SELLER, "decrypt-publish",
                         self.MALFORMED[case][0])
        with pytest.raises(AuthRejected) as caught:
            run.bidder(1).own_row_values()
        assert (caught.value.author, caught.value.round_name) == (
            protocol.SELLER, ROUND_DECRYPT)

    @pytest.mark.parametrize("tag", ["\u00e9", 5, b"00"], ids=["non-ascii", "int", "bytes"])
    def test_tag_of_the_wrong_type_refused_under_authentication(self, tag):
        run = self._finished_run(DefenseFlags.all_on())
        run.board.append(ROUND_DECRYPT, protocol.SELLER, "decrypt-publish",
                         {"bidder": 2, "phi": [[1] * 4] * 3}, auth=tag)
        with pytest.raises(AuthRejected) as caught:
            run.bidder(1).own_row_values()
        assert (caught.value.author, caught.value.round_name) == (
            protocol.SELLER, ROUND_DECRYPT)

    @pytest.mark.parametrize("flags", [DefenseFlags(), DefenseFlags.all_on()],
                             ids=["no-defenses", "all-defenses"])
    def test_withheld_row_is_missing(self, flags):
        run = self._finished_run(flags)
        run.seller._post(ROUND_DECRYPT, "decrypt-publish",
                         {"bidder": 2, "phi": [[None] * 4, [None] * 4, [1] * 4]})
        with pytest.raises(MissingShares):
            run.bidder(1).own_row_values()


class LateKeyShareBidder(BidderAgent):
    """After bidding, posts a key share g^5 under bidder 1's name, in the
    keygen round that has already closed."""

    honest = False

    def submit_bid(self, price):
        post = super().submit_bid(price)
        self.run.board.append(ROUND_KEYGEN, bidder_name(1), "keyshare",
                              {"bidder": 1, "y": self.params.exp(self.params.g, 5),
                               "proof": None})
        return post


class FixForgingColluder(ZeroNoiseColluder):
    """Forces a redraw at its chosen cell, and with its own fix posts an
    untagged fix under bidder 1's name: bidder 1's share at cell (2,3)
    replaced by one of an exponent it chose, with a valid hashed proof."""

    def redraw_exponents(self, cells):
        post = super().redraw_exponents(cells)
        params = self.params
        ba, bb = self.run.bases[1][2]
        m = 5
        stmt = sigma.EQDLStatement(gens=(ba, bb),
                                   targets=(params.exp(ba, m), params.exp(bb, m)))
        proof = sigma.prove(params, stmt, m, self.rng, sigma.fiat_shamir_source(params))
        self.run.board.append(ROUND_OUTCOME, bidder_name(1), "outcome-fix",
                              {"bidder": 1, "cells": [[2, 3]],
                               "gamma": [stmt.targets[0]], "delta": [stmt.targets[1]],
                               "proofs": [sigma.transcript_to_payload(proof)]})
        return post


class TestClosedRounds:
    """Each round is read once, when it closes; posts added to it later are
    either refused before it closes or never read."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("flags", [DefenseFlags(), DefenseFlags.all_on()],
                             ids=["none", "all"])
    def test_key_share_posted_after_keygen_is_not_read(self, flags, seed):
        cfg = AuctionConfig(n=3, k=4, params=MID_GROUP, marker=9, flags=flags)
        run, out = run_auction(cfg, [3, 1, 2], seed,
                               agent_factory=dishonest_bidder(3, LateKeyShareBidder))
        assert len(list(run.board.select(round=ROUND_KEYGEN))) == 4
        assert (out.status, out.winner_bidder, out.winner_price) == ("winner", 1, 3)

    @pytest.mark.parametrize("seed", range(4))
    def test_untagged_fix_post_refused(self, seed):
        cfg = AuctionConfig(n=3, k=4, params=MID_GROUP, marker=9,
                            flags=DefenseFlags.all_on())
        run = AuctionRun(cfg, [3, 1, 2], seed,
                         agent_factory=dishonest_bidder(3, FixForgingColluder, (2, 1)))
        with pytest.raises(AuthRejected) as caught:
            run.run()
        assert (caught.value.author, caught.value.round_name) == (
            bidder_name(1), ROUND_OUTCOME)

    def test_no_redraw_checks_no_tag_twice(self, monkeypatch):
        """Without a redraw the pass adds no post, so no tag is checked
        again: one check per post on the board."""
        checked = []
        verify = protocol.defenses.verify_post

        def counting(registry, post):
            checked.append(post.seq)
            return verify(registry, post)

        monkeypatch.setattr(protocol.defenses, "verify_post", counting)
        cfg = AuctionConfig(n=4, k=6, params=MID_GROUP, marker=9,
                            flags=DefenseFlags.all_on())
        run, _ = run_auction(cfg, [1, 2, 3, 4], 3)
        assert not list(run.board.select(kind="outcome-fix"))
        assert sorted(checked) == [post.seq for post in run.board.posts
                                   if post.round != "result"]


def _count_verifications(monkeypatch):
    """A list that gains the statement of every ``verify_transcript`` call."""
    calls = []
    verify = sigma.verify_transcript

    def counting(*args, **kwargs):
        calls.append(args[1])
        return verify(*args, **kwargs)

    monkeypatch.setattr(sigma, "verify_transcript", counting)
    return calls


class TestSharedHashedVerdicts:
    """A hashed transcript is checked once per round and every verifier
    shares the verdict; interactive sessions still run once per verifier."""

    @pytest.mark.parametrize("seed", [3, 4])
    @pytest.mark.parametrize("flags", [DefenseFlags(ni_proofs=True), DefenseFlags.all_on()],
                             ids=["ni_proofs", "all"])
    def test_each_hashed_proof_checked_once(self, monkeypatch, flags, seed):
        n, k = 4, 6
        calls = _count_verifications(monkeypatch)
        cfg = AuctionConfig(n=n, k=k, params=MID_GROUP, marker=9, flags=flags)
        run_auction(cfg, [2, 5, 3, 6], seed)
        # keygen, bids (k cells and a sum each), outcome cells, decryption.
        assert len(calls) == n + n * (k + 1) + n * n * k + n == 132

    def test_interactive_sessions_run_per_verifier(self, monkeypatch):
        n, k = 4, 6
        calls = _count_verifications(monkeypatch)
        cfg = AuctionConfig(n=n, k=k, params=MID_GROUP, marker=9)
        run_auction(cfg, [2, 5, 3, 6], 3)
        per_verifier = n + n * (k + 1) + n * n * k
        assert len(calls) == (n - 1) * per_verifier + n == 388

    def test_first_rejection_is_unchanged(self):
        """Bidder 1, the first verifier, skips its own bad bid and rejects
        bidder 2's, exactly as when every verifier checked every proof."""
        run = _hashed_bids_posted(n=3)
        for author in (1, 2):
            alphas = list(run.board.latest_by_author(ROUND_BID, "bid")
                          [bidder_name(author)].payload["alphas"])
            alphas[0] = alphas[0] * 2 % SMALL_GROUP.p
            _repost_bid(run, author, alphas=alphas)
        with pytest.raises(ProofRejected) as caught:
            run._verify_bids()
        exc = caught.value
        assert (exc.author, exc.detail) == (bidder_name(2), "validity proof failed at price 1")

    def test_copy_under_another_name_gets_a_fresh_verdict(self, monkeypatch):
        """Bidder 2's bid posted again under bidder 3's name, naming bidder
        3, is the same statement and transcript (one marker for all), so it
        passes as a fresh check would; the same proofs over bidder 3's own
        ciphertexts are checked afresh and fail."""
        run = _hashed_bids_posted(n=3)
        _repost_bid(run, 3, payload_from=2, bidder=3)
        run._verify_bids()
        own = run.board.latest_by_author(ROUND_BID, "bid")[bidder_name(1)].payload
        _repost_bid(run, 3, payload_from=2, bidder=3, alphas=own["alphas"],
                    betas=own["betas"])
        with pytest.raises(ProofRejected) as caught:
            run._verify_bids()
        assert (caught.value.author, caught.value.detail) == (
            bidder_name(3), "validity proof failed at price 1")


class OutOfRangeBidder(BidderAgent):
    """Sends one element shifted by 300p in its chosen round: equal mod p,
    so every proof equation still holds."""

    def __init__(self, run, index, rng, round_name):
        super().__init__(run, index, rng)
        self.round_name = round_name

    def _post(self, round_name, kind, payload):
        shift = 300 * self.params.p
        if round_name == self.round_name == ROUND_BID:
            payload["alphas"][0] += shift
        elif round_name == self.round_name == ROUND_OUTCOME:
            payload["gamma"][0][0] += shift
        return super()._post(round_name, kind, payload)

    def send_decrypt_shares(self):
        super().send_decrypt_shares()
        if self.round_name == ROUND_DECRYPT:
            self.run.seller.shares[self.name][0][0] += 300 * self.params.p


class TestElementRange:
    """Posted elements outside 0 < v < p are refused before any proof sees
    them: hashed proofs would crash the challenge encoding, and interactive
    checks reduce them mod p and let them through."""

    @pytest.mark.parametrize("round_name", [ROUND_BID, ROUND_OUTCOME, ROUND_DECRYPT])
    @pytest.mark.parametrize("ni_proofs", [False, True], ids=["interactive", "hashed"])
    def test_refused_with_author_and_round(self, ni_proofs, round_name):
        cfg = AuctionConfig(n=2, k=3, flags=DefenseFlags(ni_proofs=ni_proofs))

        def factory(run, index, rng):
            if index == 2:
                return OutOfRangeBidder(run, index, rng, round_name)
            return BidderAgent(run, index, rng)

        run = AuctionRun(cfg, [1, 2], 5, agent_factory=factory)
        with pytest.raises(ProofRejected) as caught:
            run.run()
        exc = caught.value
        assert (exc.author, exc.round_name) == (bidder_name(2), round_name)
        assert "element outside 0 < v < p" in exc.detail


class ShortPhiBidder(BidderAgent):
    """Sends its decryption shares with one part cut off, proven afresh as
    the shorter statement: the last row, or the last share of the first
    row."""

    def __init__(self, run, index, rng, cut):
        super().__init__(run, index, rng)
        self.cut = cut

    def send_decrypt_shares(self):
        super().send_decrypt_shares()
        if self.cut == "row":
            self.phi = self.phi[:-1]
        else:
            self.phi = [self.phi[0][:-1], *self.phi[1:]]
        x = self.decrypt_exponent()
        y = self.share.y if self.config.flags.key_consistency else None
        deltas = [d_row[:len(row)]
                  for d_row, row in zip(self.run.delta_products, self.phi)]
        self.decrypt_stmt = protocol.decrypt_statement(self.params, deltas, self.phi, y)
        self.run.seller.receive_shares(self.name, self.phi,
                                       self._posted_proof(self.decrypt_stmt, x))


class TestDecryptShareShape:
    """The seller refuses decryption shares that are not an n x k grid
    before it builds their statement, so a cut grid proven as the shorter
    statement neither crashes the publication nor voids the run unseen."""

    @pytest.mark.parametrize("cut", ["row", "entry"])
    @pytest.mark.parametrize("index", [1, 2, 3])
    @pytest.mark.parametrize("flags", [DefenseFlags(), DefenseFlags.all_on()],
                             ids=["no-defenses", "all-defenses"])
    def test_refused_with_author_and_round(self, flags, index, cut):
        cfg = AuctionConfig(n=3, k=4, params=MID_GROUP, marker=9, flags=flags)
        for seed in range(5):
            run = AuctionRun(cfg, [1, 2, 4], seed,
                             agent_factory=dishonest_bidder(index, ShortPhiBidder, cut))
            with pytest.raises(ProofRejected) as caught:
                run.run()
            exc = caught.value
            assert (exc.author, exc.round_name, exc.detail) == (
                bidder_name(index), ROUND_DECRYPT,
                "malformed decrypt shares: phi is not a 3 x 4 grid"), seed


def _count_reads(monkeypatch):
    """A Counter of calls to each of the protocol's board readers."""
    calls = collections.Counter()
    for name in ("collect_keyshares", "collect_bids", "collect_outcome"):
        def counting(*args, _name=name, _read=getattr(protocol, name), **kwargs):
            calls[_name] += 1
            return _read(*args, **kwargs)

        monkeypatch.setattr(protocol, name, counting)
    return calls


class TestProverKeepsItsStatements:
    """Bidders prove the statements they posted, and every reader uses what
    the round's verify step read, so the board is read once per round: the
    outcome round once more before the noise-product pass and after each of
    its redraws."""

    def test_bid_reads_per_run(self, monkeypatch):
        calls = _count_reads(monkeypatch)
        for group, marker, n, k, flags, seed, outcome_reads in (
                (MID_GROUP, 9, 4, 6, DefenseFlags(), 3, 1),
                (MID_GROUP, 9, 4, 6, DefenseFlags.all_on(), 3, 2),
                (SMALL_GROUP, 4, 2, 2, DefenseFlags(noise_product_check=True), 1, 3)):
            cfg = AuctionConfig(n=n, k=k, params=group, marker=marker, flags=flags)
            run, _ = run_auction(cfg, list(range(1, n + 1)), seed)
            redraws = len(list(run.board.select(kind="outcome-fix"))) // n
            assert outcome_reads == 1 + flags.noise_product_check + redraws
            assert calls == {"collect_keyshares": 1, "collect_bids": 1,
                             "collect_outcome": outcome_reads}
            calls.clear()


def _distinct_by_kind(records) -> int:
    """How many distinct records ``records`` holds, asserting that no two
    of different kinds compare equal."""
    seen = {}
    for record in records:
        assert type(seen.setdefault(record, record)) is type(record), record
    return len(seen)


class TestBidWitnessCheckedOnce:
    """A bid cell's witness is re-encrypted once, when the cell is posted,
    in either proof mode: interactive sessions prove from the checked
    witness, and a wrong witness is refused before anything is kept."""

    CONFIG = AuctionConfig(n=3, k=4, params=MID_GROUP, marker=9)

    @pytest.mark.parametrize("flags", [DefenseFlags(), DefenseFlags(ni_proofs=True)],
                             ids=["interactive", "hashed"])
    def test_once_per_posted_cell(self, monkeypatch, flags):
        checked = []
        check = sigma.check_witness
        monkeypatch.setattr(sigma, "check_witness", lambda params, stmt, witness: (
            checked.append(stmt), check(params, stmt, witness)))
        config = dataclasses.replace(self.CONFIG, flags=flags)
        run, outcome = run_auction(config, [3, 1, 2], 2)
        assert outcome.status == "winner"
        cells = [stmt for stmt in checked if isinstance(stmt, sigma.BidValidityStatement)]
        assert len(cells) == len(set(cells)) == config.n * config.k

    def test_wrong_witness_refused_when_posted(self):
        run = AuctionRun(self.CONFIG, [3, 1, 2], 2)
        run.step_keygen()
        bidder, params = run.bidder(1), self.CONFIG.params
        r = bidder.r[0]
        alpha, beta = params.exp(run.joint_y, r), params.exp(params.g, r)
        stmt = sigma.BidValidityStatement(y=run.joint_y, g=params.g, marker=9,
                                          alpha=alpha, beta=beta)
        with pytest.raises(WitnessMismatch):
            bidder._posted_proof(stmt, (r, True))
        assert stmt not in bidder.witnesses
        assert bidder._posted_proof(stmt, (r, False)) is None
        assert bidder.witnesses[stmt] == (r, False)


class TestProofRecords:
    """Statements and transcripts are named tuples, and a named tuple equals
    any tuple with the same items; no two records of different kinds built
    from one run's values are equal, so none stands in for another as a
    witness key."""

    CONFIG = AuctionConfig(n=3, k=3, params=MID_GROUP, marker=9)

    def _run(self):
        run, outcome = run_auction(self.CONFIG, [1, 3, 2], 5)
        assert outcome.status == "winner"
        return run

    def test_statements_of_different_kinds_never_compare_equal(self):
        run, g = self._run(), self.CONFIG.params.g
        records = []
        for agent in run.agents.values():
            records.extend(agent.witnesses)
            records.append(sigma.EQDLStatement((g,), (agent.share.y,)))
            for stmt in agent.witnesses:
                if isinstance(stmt, sigma.BidValidityStatement):
                    records.extend(sigma.branch_statements(run.config.params, stmt))
        kinds = {type(r) for r in records}
        assert kinds == {sigma.PDLStatement, sigma.EQDLStatement,
                         sigma.BidValidityStatement, sigma.SumValidityStatement}
        _distinct_by_kind(records)
        y = run.bidder(1).share.y
        assert sigma.PDLStatement(g, y) != sigma.EQDLStatement((g,), (y,))

    def test_transcripts_of_different_kinds_never_compare_equal(self):
        cfg = dataclasses.replace(self.CONFIG, flags=DefenseFlags(ni_proofs=True))
        run, _ = run_auction(cfg, [1, 3, 2], 5)
        payloads = [post.payload["proof"] for post in run.board.select(kind="keyshare")]
        for post in run.board.select(kind="bid"):
            payloads.extend([*post.payload["proofs"], post.payload["sum_proof"]])
        for post in run.board.select(kind="outcome"):
            payloads.extend(proof for row in post.payload["proofs"] for proof in row)
        transcripts = [sigma.transcript_from_payload(p) for p in payloads]
        assert {type(tr) for tr in transcripts} == {sigma.Transcript, sigma.OrTranscript}
        for tr in list(transcripts):
            if isinstance(tr, sigma.OrTranscript):
                transcripts.extend(tr.branches)
                flat = sigma.Transcript(tr.commitment, tr.challenge, tr.branches[0].response)
                assert flat != tr
                transcripts.append(flat)
        assert _distinct_by_kind(transcripts) == len(transcripts)

    def test_records_stay_distinct_witness_keys(self):
        run, (n, k), g = self._run(), (self.CONFIG.n, self.CONFIG.k), self.CONFIG.params.g
        source = sigma.verifier_source(self.CONFIG.params, random.Random(1))
        for agent in run.agents.values():
            # key share, k cells, the sum, n x k masking shares, decryption
            assert len(agent.witnesses) == 1 + k + 1 + n * k + 1
            pdl = sigma.PDLStatement(g, agent.share.y)
            eqdl = sigma.EQDLStatement((g,), (agent.share.y,))
            assert agent.witnesses[pdl] == agent.share.x
            assert eqdl not in agent.witnesses
            assert agent.prove([eqdl], source) == [None]
            assert agent.prove([pdl], source) != [None]

    def test_one_outcome_statement_grid_per_round(self):
        run = self._run()
        n, k = self.CONFIG.n, self.CONFIG.k
        for agent in run.agents.values():
            a = agent.index - 1
            for i in range(n):
                for j in range(k):
                    stmt = run.outcome_statements[a][i][j]
                    assert agent.witnesses[stmt] == agent.m[i][j]

    def test_one_challenge_source_per_verifier_per_round(self, monkeypatch):
        built = []
        source = sigma.verifier_source

        def counting(params, rng):
            built.append(rng)
            return source(params, rng)

        monkeypatch.setattr(sigma, "verifier_source", counting)
        run = self._run()
        honest = [agent.rng for agent in run.agents.values()]
        # keygen, bid and outcome: every bidder; decrypt: the seller
        assert built == honest * 3 + [run.seller.rng]


def _outcome_verified(flags=DefenseFlags()):
    """A small-group run, n=2 and k=3, whose outcome round has passed."""
    run = AuctionRun(AuctionConfig(n=2, k=3, flags=flags), [1, 2], 5)
    run.step_keygen()
    run.step_bid()
    run.step_outcome()
    return run


def _fix(cells, gamma=None):
    """A fix post by bidder 2, built from its outcome post's payload."""
    def payload(shares):
        return {"bidder": 2, "cells": cells,
                "gamma": gamma or [shares["gamma"][0][0]],
                "delta": [shares["delta"][0][0]], "proofs": None}
    return "outcome-fix", payload


def _outcome(**grids):
    """Bidder 2's outcome post again, with each named grid changed."""
    def payload(shares):
        return dict(shares, **{name: grid(shares[name]) for name, grid in grids.items()})
    return "outcome", payload


class TestOutcomeShapes:
    """Outcome posts must hold n x k grids, and fix posts must name cells
    inside the grid with one share per cell; anything else is refused with
    the author named, never a bare IndexError or a share laid on the wrong
    cell."""

    @pytest.mark.parametrize("post,detail", [
        (_fix([[9, 9]]), "fix cell [9, 9] outside 1..2 x 1..3"),
        (_fix([[0, 1]]), "fix cell [0, 1] outside 1..2 x 1..3"),
        (_outcome(gamma=lambda grid: [row[:-1] for row in grid]),
         "gamma is not a 2 x 3 grid"),
        (_outcome(delta=lambda grid: grid[:-1]), "delta is not a 2 x 3 grid"),
        (_outcome(proofs=lambda grid: [[None]]), "proofs is not a 2 x 3 grid"),
        (_fix([[1, 1]], gamma=[2, 2]), "fix gamma does not hold one entry per cell"),
    ], ids=["fix-cell-9-9", "fix-cell-0-1", "gamma-rows-short", "delta-row-missing",
            "proofs-grid-short", "fix-lengths-differ"])
    def test_refused_before_the_verifier_loop(self, post, detail):
        run = _outcome_verified()
        kind, payload = post
        shares = run.board.latest_by_author(ROUND_OUTCOME, "outcome")[bidder_name(2)]
        run.board.append(ROUND_OUTCOME, bidder_name(2), kind,
                         payload(copy.deepcopy(shares.payload)))
        with pytest.raises(ProofRejected) as caught:
            run._verify_outcome()
        exc = caught.value
        assert (exc.author, exc.round_name, exc.detail) == (
            bidder_name(2), ROUND_OUTCOME, f"malformed outcome: {detail}")

    def test_refused_before_the_noise_product_pass(self):
        class ShortRowBidder(BidderAgent):
            def _post(self, round_name, kind, payload):
                if kind == "outcome":
                    payload["gamma"] = [row[:-1] for row in payload["gamma"]]
                return super()._post(round_name, kind, payload)

        def factory(run, index, rng):
            return (ShortRowBidder if index == 2 else BidderAgent)(run, index, rng)

        cfg = AuctionConfig(n=2, k=3, params=MID_GROUP, marker=9,
                            flags=DefenseFlags(noise_product_check=True))
        run = AuctionRun(cfg, [1, 2], 5, agent_factory=factory)
        run.step_keygen()
        run.step_bid()
        verified = []
        run._verify_outcome = lambda: verified.append(True)
        with pytest.raises(ProofRejected) as caught:
            run.step_outcome()
        assert caught.value.detail == "malformed outcome: gamma is not a 2 x 3 grid"
        assert not verified


class TableRecordingBidder(OutOfRangeBidder):
    """Notes how many fixed-base tables its group holds when it bids; with
    a round name it sends an out-of-range element there."""

    tables_at_bid: list = []

    def submit_bid(self, price):
        self.tables_at_bid.append(len(self.params._tables))
        return super().submit_bid(price)


class TestTableLifetime:
    """Tables of powers live for one run: ``AuctionRun.run`` drops them
    however it ends."""

    @pytest.mark.parametrize("round_name", [None, ROUND_OUTCOME],
                             ids=["returns", "raises"])
    def test_dropped_when_the_run_ends(self, round_name, monkeypatch):
        monkeypatch.setattr(TableRecordingBidder, "tables_at_bid", [])

        def factory(run, index, rng):
            return TableRecordingBidder(run, index, rng,
                                        round_name if index == 2 else None)

        cfg = AuctionConfig(n=2, k=2, params=LARGE_GROUP, marker=9)
        if round_name is None:
            assert run_auction(cfg, [1, 2], 3, agent_factory=factory)[1].status == "winner"
        else:
            with pytest.raises(ProofRejected):
                run_auction(cfg, [1, 2], 3, agent_factory=factory)
        assert min(TableRecordingBidder.tables_at_bid) > 0
        assert not LARGE_GROUP._tables

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_dropped_after_every_scenario(self, scenario):
        """Some scenarios never reach ``AuctionRun.run``; ``run_scenario``
        drops the tables however the scenario ran."""
        run_scenario(ScenarioSpec(scenario=scenario, group_name="large",
                                  n=3, k=4, seed=7))
        assert not LARGE_GROUP._tables


class TestRunLifetime:
    """Agents hold their run weakly, so a finished run, its board and its
    agents are freed by reference counting alone."""

    @pytest.mark.parametrize("flags", [DefenseFlags(), DefenseFlags.all_on()],
                             ids=["interactive", "all-defenses"])
    def test_freed_without_the_cyclic_collector(self, flags):
        cfg = AuctionConfig(n=8, k=16, params=MID_GROUP, marker=9, flags=flags)
        gc.collect()
        gc.disable()
        try:
            run, outcome = run_auction(cfg, list(range(1, 9)), 3)
            assert outcome.status == "winner"
            ref = weakref.ref(run)
            del run
            assert ref() is None
            assert gc.collect() == 0
        finally:
            gc.enable()
