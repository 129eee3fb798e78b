"""The attack playbook, against both the open and the hardened protocol."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from auctionlab import attacks, protocol, recovery, sigma
from auctionlab.defenses import DefenseFlags
from auctionlab.elgamal import Ciphertext
from auctionlab.errors import ModeMismatch, RestartRequired
from auctionlab.groups import LARGE_GROUP, MID_GROUP, SMALL_GROUP
from auctionlab.protocol import (
    NOISE_CANCELLED,
    ROUND_BID,
    AuctionConfig,
    AuctionRun,
    BidderAgent,
    bidder_name,
    collect_outcome,
    encode_bid,
)
from auctionlab.scenarios import ScenarioSpec, run_scenario

from conftest import FixedNonce, fixed_challenge


class TestAffineRelayFrozen:
    """Peggy holds x=3 for v=8.  The relay claims 1-x for w = g/v = 6,
    using Peggy's nonce 4 and Victor's challenge 2."""

    def test_concrete_instance(self, small):
        stmt = sigma.PDLStatement(g=2, v=8)
        peggy = sigma.ProverSession(small, stmt, 3, FixedNonce(4))
        result = attacks.mitm_affine_pdl(small, attacks.one_minus_x_claim(),
                                         peggy, fixed_challenge(2))
        assert result.claimed_value == 6
        assert result.victor_transcript.commitment == (13,)
        assert result.victor_transcript.challenge == 2
        assert result.victor_transcript.response == 3
        claim_stmt = sigma.PDLStatement(g=2, v=6)
        assert sigma.verify_transcript(small, claim_stmt, result.victor_transcript,
                                       require_hashed=False)

    def test_peggy_conversation_still_accepts(self, small):
        stmt = sigma.PDLStatement(g=2, v=8)
        peggy = sigma.ProverSession(small, stmt, 3, FixedNonce(4))
        result = attacks.mitm_affine_pdl(small, attacks.one_minus_x_claim(),
                                         peggy, fixed_challenge(2))
        assert sigma.verify_transcript(small, stmt, result.peggy_transcript,
                                       require_hashed=False)

    @given(x=st.integers(1, 10), h=st.integers(0, 10), a=st.integers(0, 10),
           b=st.integers(-5, 10), seed=st.integers(0, 5000))
    @settings(max_examples=80, deadline=None)
    def test_any_affine_claim_relays(self, x, h, a, b, seed):
        """Every affine transform of a live proof yields an accepting
        transcript for the transformed claim."""
        g = SMALL_GROUP
        rng = random.Random(seed)
        v = g.exp(g.g, x)
        peggy = sigma.ProverSession(g, sigma.PDLStatement(g=g.g, v=v), x, rng)
        claim = attacks.AffineClaim(h=h, a=a, b=b)
        result = attacks.mitm_affine_pdl(
            g, claim, peggy, sigma.verifier_source(g, rng))
        assert result.claimed_value == (
            g.exp(g.g, a * h) * g.exp(v, b) % g.p)
        stmt = sigma.PDLStatement(g=g.g, v=result.claimed_value)
        assert sigma.verify_transcript(g, stmt, result.victor_transcript,
                                       require_hashed=False)

    def test_hashed_mode_breaks_the_relay(self, small):
        flags = DefenseFlags(ni_proofs=True)
        with pytest.raises(ModeMismatch):
            attacks.mitm_affine_pdl(small, attacks.one_minus_x_claim(),
                                    None, None, flags=flags)


class TestCiphertextCopy:
    def test_frozen_reencryption(self, small):
        ct = attacks.reencrypt_bid_copy(small, Ciphertext(13, 4), y=3, x=1)
        assert (ct.alpha, ct.beta) == (16, 8)

    @given(m_idx=st.integers(0, 10), r=st.integers(0, 10), x=st.integers(0, 10))
    @settings(max_examples=40)
    def test_same_plaintext_new_look(self, m_idx, r, x):
        from auctionlab.elgamal import KeyShare, combine_decrypt, encrypt, partial_decrypt

        g = SMALL_GROUP
        share = KeyShare(x=7, y=g.exp(g.g, 7))
        m = g.elements()[m_idx]
        ct = encrypt(g, m, share.y, r)
        copy = attacks.reencrypt_bid_copy(g, ct, share.y, x)
        partial = partial_decrypt(g, copy.beta, share)
        assert combine_decrypt(g, copy.alpha, [partial]) == m


def _attack_run_through_outcome(seed, exponent=1, n=3, k=2, bids=(1, 2, 1)):
    cfg = AuctionConfig(n=n, k=k)

    def factory(run, index, rng):
        if index == n:
            return attacks.NoiseRemovalBidder(run, index, rng, exponent)
        return BidderAgent(run, index, rng)

    run = AuctionRun(cfg, list(bids), seed, agent_factory=factory)
    run.step_keygen()
    run.step_bid()
    for index in range(1, n + 1):
        run.bidder(index).post_outcome()
    return run


class TestNoiseRemoval:
    @pytest.mark.parametrize("exponent", [1, 5])
    def test_products_collapse_to_base_power(self, exponent):
        """After the attacker's shares, the joint masking product at every
        cell is exactly base^exponent: the other bidders' noise is gone."""
        g = SMALL_GROUP
        run = _attack_run_through_outcome(2, exponent)
        gammas, deltas, _ = collect_outcome(run.board, 3, run.config.k)
        for i in range(3):
            for j in range(2):
                ba, bb = run.bases[i][j]
                pg = pd = 1
                for a in range(3):
                    pg = pg * gammas[a][i][j] % g.p
                    pd = pd * deltas[a][i][j] % g.p
                assert pg == g.exp(ba, exponent)
                assert pd == g.exp(bb, exponent)

    def test_forged_proof_accepted_by_honest_verifier(self, small):
        run = _attack_run_through_outcome(2, exponent=1)
        run._verify_outcome()        # closes the round the forger reads
        verifier = sigma.verifier_source(small, random.Random(99))
        tr = attacks.forge_outcome_eqdl(run, bidder_name(3), 0, 0, 1, verifier)
        stmt = sigma.EQDLStatement(gens=run.bases[0][0],
                                   targets=(run.gammas[2][0][0], run.deltas[2][0][0]))
        assert sigma.verify_transcript(small, stmt, tr, require_hashed=False)

    def test_forging_needs_interactive_mode(self, small):
        cfg = AuctionConfig(n=2, k=2, flags=DefenseFlags(ni_proofs=True))
        run = AuctionRun(cfg, [1, 2], 3)
        with pytest.raises(ModeMismatch):
            attacks.forge_outcome_eqdl(run, bidder_name(2), 0, 0, 1,
                                       fixed_challenge(2))


class TestFullPrivacyAttack:
    def test_recovers_all_bids(self):
        cfg = AuctionConfig(n=3, k=3)
        report = attacks.full_privacy_attack(cfg, [1, 2, 1], 7)
        assert report.success
        assert report.recovered_bids == [1, 2, 1]
        assert (report.winner_bidder, report.winner_price) == (2, 2)

    def test_secret_exponent_also_works(self):
        cfg = AuctionConfig(n=3, k=3)
        report = attacks.full_privacy_attack(cfg, [1, 2, 1], 7, exponent=7)
        assert report.success
        assert report.recovered_bids == [1, 2, 1]

    def test_blocked_by_hashed_proofs(self):
        cfg = AuctionConfig(n=3, k=3, flags=DefenseFlags(ni_proofs=True))
        report = attacks.full_privacy_attack(cfg, [1, 2, 1], 7)
        assert not report.success
        assert report.error == "ProofRejected"

    def test_unit_exponent_detected_by_product_check(self):
        cfg = AuctionConfig(n=3, k=3,
                            flags=DefenseFlags(noise_product_check=True))
        report = attacks.full_privacy_attack(cfg, [1, 2, 1], 7)
        assert not report.success
        assert report.extras.get("detected")

    def test_secret_exponent_evades_product_check(self):
        """The cancellation check recognises only the unit exponent; a
        secret one sails through and privacy still falls."""
        cfg = AuctionConfig(n=3, k=3,
                            flags=DefenseFlags(noise_product_check=True))
        report = attacks.full_privacy_attack(cfg, [1, 2, 1], 7, exponent=5)
        assert report.success
        assert report.recovered_bids == [1, 2, 1]

    def test_all_defenses_stop_it(self):
        cfg = AuctionConfig(n=3, k=3, flags=DefenseFlags.all_on())
        report = attacks.full_privacy_attack(cfg, [1, 2, 1], 7)
        assert not report.success

    def test_per_bidder_markers_fall_to_the_sweep(self):
        """Distinct markers per bidder do not hide the bids: the seller
        inverts the outcome map in the group with one step per bidder."""
        cfg = AuctionConfig(n=2, k=2, markers_per_bidder=(4, 9))
        report = attacks.full_privacy_attack(cfg, [2, 1], 3)
        assert report.success
        assert report.recovered_bids == [2, 1]

    @pytest.mark.parametrize("group,exponent", [
        (MID_GROUP, 1), (MID_GROUP, 5), (LARGE_GROUP, 5)],
        ids=["mid-1", "mid-5", "large-5"])
    def test_per_bidder_markers_at_realism_scale(self, group, exponent):
        """n=8, k=16 with a marker per bidder: every bid is recovered."""
        n, k = 8, 16
        markers = tuple(group.exp(group.g, e) for e in range(2, n + 2))
        cfg = AuctionConfig(n=n, k=k, params=group, markers_per_bidder=markers)
        bids = [13, 5, 2, 8, 8, 9, 3, 16]
        report = attacks.full_privacy_attack(cfg, bids, 3, exponent=exponent)
        assert report.success
        assert report.recovered_bids == bids


class TestAttackRuns:
    """``attacks.attack_runs``, the one restart loop of the attack runs, and
    its three exits: a detection, a success after chance restarts, and
    exhaustion.  In the small group with the product check, the first
    attempts of seeds 0 and 1 restart by chance."""

    CHECKED = AuctionConfig(n=3, k=3, flags=DefenseFlags(noise_product_check=True))

    def report(self):
        return attacks.AttackReport(scenario="test")

    def test_cancelled_stripped_masking_is_a_detection(self):
        report = self.report()
        factory = attacks.dishonest_bidder(3, attacks.NoiseRemovalBidder)
        run, outcome = attacks.attack_runs(report, self.CHECKED, [1, 2, 1], 7, factory)
        assert outcome is None
        assert report.board is run.board
        assert (report.error, report.detail) == (
            "RestartRequired", "product check caught the stripped masking")
        assert report.extras["detected"] is True
        assert report.extras["flagged_cells"]

    def test_chance_restart_then_success_keeps_the_last_board(self):
        report = self.report()
        factory = attacks.dishonest_bidder(3, attacks.NoiseRemovalBidder, 5)
        run, outcome = attacks.attack_runs(report, self.CHECKED, [1, 2, 1], 1, factory)
        assert run.seed > 1 and outcome.status == "winner"
        assert report.board is run.board
        assert report.extras == {} and report.error is None

    def test_cancellation_nobody_stripped_is_chance(self):
        """Seed 0's first honest attempt ends in NOISE_CANCELLED; with no
        NoiseRemovalBidder in the run, that is a restart, not a detection."""
        with pytest.raises(RestartRequired, match=NOISE_CANCELLED):
            AuctionRun(self.CHECKED, [1, 2, 1], 0).run()
        report = self.report()
        run, outcome = attacks.attack_runs(report, self.CHECKED, [1, 2, 1], 0, None)
        assert run.seed > 0 and outcome is not None
        assert "detected" not in report.extras

    def test_exhaustion_raises_and_keeps_the_refused_board(self, monkeypatch):
        monkeypatch.setattr(protocol, "MAX_ATTEMPTS", 2)
        boards = []

        def steps(run):
            boards.append(run.board)
            raise RestartRequired("exceptional base product", [])

        report = self.report()
        with pytest.raises(RestartRequired):
            attacks.attack_runs(report, self.CHECKED, [1, 2, 1], 0, None, steps)
        assert len(boards) == 2 and report.board is boards[-1]

    @pytest.mark.parametrize("attack, detail", [
        (lambda cfg: attacks.full_privacy_attack(cfg, [1, 2, 1], 1, exponent=5),
         "no run survived the restart checks"),
        (lambda cfg: attacks.force_zero_noise(cfg, [1, 2, 1], (1, 1), 1),
         "no run survived the restart checks"),
        (lambda cfg: attacks.impersonation_attack(
            AuctionConfig(n=3, k=3), 2, 0), "no decisive outcome"),
    ], ids=["full-privacy", "exceptional-values", "impersonation"])
    def test_exhausted_attack_reports_it(self, monkeypatch, attack, detail):
        monkeypatch.setattr(protocol, "MAX_ATTEMPTS", 1)
        report = attack(self.CHECKED)
        assert not report.success and report.detail == detail
        assert report.board is not None

    def test_exhausted_forged_eqdl_reports_it(self, monkeypatch):
        monkeypatch.setattr(protocol, "MAX_ATTEMPTS", 1)
        result = run_scenario(ScenarioSpec(scenario="forged-eqdl", seed=1, exponent=5,
                                           flags=DefenseFlags(noise_product_check=True)))
        assert not result.expectation_met and result.board_json is None
        assert result.report["notes"] == ["no run survived the restart checks"]

    @pytest.mark.parametrize("group", ["small", "mid"])
    @pytest.mark.parametrize("seed", range(1, 8))
    def test_wrong_key_restarts_chance_collapses(self, group, seed):
        """Under all four defenses a chance restart before decryption starts
        the next run, and the cheat is refused in the decrypt round."""
        result = run_scenario(ScenarioSpec(scenario="wrong-key", group_name=group,
                                           seed=seed, flags=DefenseFlags.all_on()))
        assert result.expectation_met
        outcome = result.report["outcome"]
        assert outcome["error"] == "ProofRejected" and "bidder-3" in outcome["detail"]

    @pytest.mark.parametrize("group", ["small", "mid"])
    @pytest.mark.parametrize("seed", range(1, 8))
    def test_hashed_forgery_restarts_chance_collapses(self, group, seed):
        """Under all four defenses the hashed branch restarts a chance
        collapse of a base product, and reports the refusal of the attack:
        the product check's detection of the stripped masking, raised as
        the restart it is, with the board of the run that posted it."""
        result = run_scenario(ScenarioSpec(scenario="forged-eqdl", group_name=group,
                                           seed=seed, flags=DefenseFlags.all_on()))
        assert result.expectation_met
        assert result.report["outcome"] == {"error": "RestartRequired",
                                            "detail": NOISE_CANCELLED}
        assert any(post["kind"] == "outcome" for post in result.board_json)


class TestEnumerationRecovery:
    """``recovery.invert_outcome_map`` against every bid vector, enumerated,
    with the seller's view built cell by cell from the outcome map's matrix
    entries: cell (i, j) is the product of marker_h^exponent over the
    bidders h whose bid the map counts there.  Both layouts: one marker per
    bidder and one shared marker, where the seller's power table and
    integer sweep (``attacks.recovered_bids_from_v``) agree with it."""

    @pytest.mark.parametrize("exponent", [1, 5])
    @pytest.mark.parametrize("n,k", [(2, 2), (2, 3), (3, 2), (3, 3)])
    @pytest.mark.parametrize("group", [SMALL_GROUP, MID_GROUP, LARGE_GROUP],
                             ids=["small", "mid", "large"])
    def test_recovers_every_bid_vector(self, group, n, k, exponent):
        distinct = tuple(group.exp(group.g, e) for e in range(2, n + 2))
        matrix = recovery.build_matrix(n, k)
        for markers in (distinct, distinct[:1] * n):
            steps = [group.exp(m, exponent) for m in markers]
            for bids in itertools.product(range(1, k + 1), repeat=n):
                v = [[group.mul(*(group.exp(steps[h],
                                            matrix.entry(i * k + j, h * k + bids[h] - 1))
                                  for h in range(n)))
                      for j in range(k)]
                     for i in range(n)]
                assert recovery.invert_outcome_map(
                    v, steps, group.mul, 1) == list(bids), (markers, bids)
                if len(set(markers)) == 1:
                    assert attacks.recovered_bids_from_v(
                        group, v, markers[0], exponent, n, k) == list(bids), bids

    def test_table_of_no_bid_vector_is_not_matched(self):
        assert recovery.invert_outcome_map(
            [[2, 2], [2, 2]], [4, 9], SMALL_GROUP.mul, 1) is None
        # 2 is no power of the marker 4; [[4, 4], [4, 4]] has counts 1 that
        # the integer sweep cannot solve.
        for v in ([[2, 2], [2, 2]], [[4, 4], [4, 4]]):
            assert attacks.recovered_bids_from_v(SMALL_GROUP, v, 4, 1, 2, 2) is None

    def test_unit_step_is_refused(self):
        """With a step of 1 'at t' and 'below t' look alike: no answer."""
        v = [[1, 1], [1, 1]]
        assert recovery.invert_outcome_map(v, [4, 1], SMALL_GROUP.mul, 1) is None


class TestImpersonation:
    def test_price_disclosure(self):
        cfg = AuctionConfig(n=3, k=3)
        report = attacks.impersonation_attack(cfg, target_bid=2, seed=9)
        assert report.success
        assert report.winner_price == 2

    def test_rerandomised_copies_also_work(self):
        cfg = AuctionConfig(n=3, k=3)
        report = attacks.impersonation_attack(cfg, target_bid=2, seed=9,
                                              rerandomize=True)
        assert report.success

    def test_authentication_stops_it_at_the_bid_round(self):
        cfg = AuctionConfig(n=3, k=3, flags=DefenseFlags(authenticate=True))
        report = attacks.impersonation_attack(cfg, target_bid=2, seed=9)
        assert not report.success
        assert report.error == "AuthRejected"
        assert report.extras["rejected_round"] == "bid"

    @pytest.mark.parametrize("group", ["small", "mid"])
    def test_rerandomised_copies_under_authentication(self, group):
        """With authentication on, the copies are still re-randomised as
        asked, and still rejected in the bid round."""
        spec = ScenarioSpec(scenario="impersonation", n=3, k=4, group_name=group,
                            flags=DefenseFlags(authenticate=True), rerandomize=True)
        for seed in range(3):
            report = attacks.impersonation_attack(spec.config(), 2, seed,
                                                  rerandomize=True)
            assert (report.success, report.error) == (False, "AuthRejected"), seed
            assert report.extras["rejected_round"] == "bid"
            bids = report.board.latest_by_author(ROUND_BID, "bid")
            assert (bids[bidder_name(2)].payload["alphas"]
                    != bids[bidder_name(1)].payload["alphas"]), seed
            spec.seed = seed
            assert run_scenario(spec).expectation_met, seed


class TestForcedZeroNoise:
    def test_forces_an_undecidable_result(self):
        cfg = AuctionConfig(n=2, k=2)
        report = attacks.force_zero_noise(cfg, [1, 2], (1, 1), 4)
        assert report.success
        assert report.extras["v_at_cell"] == 1
        assert report.status in ("multiple-ones", "winner")

    def test_victim_row_shows_a_false_win(self):
        cfg = AuctionConfig(n=2, k=2)
        report = attacks.force_zero_noise(cfg, [1, 2], (1, 1), 4)
        assert report.extras.get("row_bidder_thinks_won") is True

    def test_winning_cell_is_refused(self):
        cfg = AuctionConfig(n=2, k=2)
        with pytest.raises(ValueError):
            attacks.force_zero_noise(cfg, [1, 2], (2, 2), 4)

    @pytest.mark.parametrize("bids", [[1, 2, 1], [3, 3, 1], [2, 1, 2], [1, 1, 1]])
    def test_only_the_winning_cell_is_refused(self, bids):
        """The refused cell is the one whose outcome-map count is zero."""
        n, k = 3, 3
        cfg = AuctionConfig(n=n, k=k)
        flat = [bit for price in bids for bit in encode_bid(price, k)]
        image = recovery.apply_f(recovery.build_matrix(n, k), flat)
        for i, j in itertools.product(range(1, n + 1), range(1, k + 1)):
            if image[(i - 1) * k + (j - 1)] == 0:
                with pytest.raises(ValueError, match="winning cell"):
                    attacks.force_zero_noise(cfg, bids, (i, j), 4)
            else:
                report = attacks.force_zero_noise(cfg, bids, (i, j), 4)
                assert report.extras["cell"] == [i, j]

    @pytest.mark.parametrize("cell", [(0, 0), (3, 1), (1, 3), (1, 0)])
    def test_cells_outside_the_grid_are_refused(self, cell):
        """Refused before any run: (1, 0) would wrap to (1, 2) through
        index -1, and (0, 0) would crash after a whole auction."""
        cfg = AuctionConfig(n=2, k=2)
        with pytest.raises(ValueError, match=r"outside 1\.\.2 x 1\.\.2"):
            attacks.force_zero_noise(cfg, [1, 2], cell, 4)

    def test_product_check_neutralises_it(self):
        flags = DefenseFlags(noise_product_check=True)
        cfg = AuctionConfig(n=2, k=2, flags=flags)
        report = attacks.force_zero_noise(cfg, [1, 2], (1, 1), 4)
        assert not report.success
        assert report.status == "winner"
        assert (report.winner_bidder, report.winner_price) == (2, 2)
        assert report.extras.get("winner_correct") is True


class TestWrongKeyDecryption:
    def test_kills_the_auction_without_attribution(self):
        cfg = AuctionConfig(n=2, k=2)
        report = attacks.wrong_key_decrypt(cfg, [1, 2], 0)
        assert report.success
        assert report.status == "no-winner"
        assert report.error is None

    def test_desk_scale_chance_cells_documented(self):
        """At q=11 garbage sometimes decrypts to 1; those runs end decided
        or confused instead.  Majority behaviour over a seed batch is what
        the attack promises."""
        cfg = AuctionConfig(n=2, k=2)
        statuses = [attacks.wrong_key_decrypt(cfg, [1, 2], s).status
                    for s in range(12)]
        assert statuses.count("no-winner") >= 6
        assert set(statuses) <= {"no-winner", "winner", "multiple-ones"}

    def test_key_consistency_attributes_the_cheat(self):
        flags = DefenseFlags(key_consistency=True)
        cfg = AuctionConfig(n=2, k=2, flags=flags)
        report = attacks.wrong_key_decrypt(cfg, [1, 2], 0)
        assert not report.success
        assert report.error == "ProofRejected"
        assert "bidder-2" in report.detail

    def test_key_consistency_refuses_where_a_zero_challenge_was_drawn(self):
        """At this seed the challenge the seller draws for the cheater's
        key-bound decrypt proof is 0, which accepts any response.  The
        seller draws again, and the cheat is refused."""
        spec = ScenarioSpec(scenario="wrong-key", n=8, k=16, group_name="mid",
                            bids=[15, 9, 2, 8, 16, 14, 15, 9], seed=776796388,
                            flags=DefenseFlags(key_consistency=True))
        result = run_scenario(spec)
        assert result.expectation_met
        assert result.report["outcome"]["error"] == "ProofRejected"
        assert "bidder-8" in result.report["outcome"]["detail"]
