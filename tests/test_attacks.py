"""The attack playbook, against both the open and the hardened protocol."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from auctionlab import attacks, sigma
from auctionlab.defenses import DefenseFlags
from auctionlab.elgamal import Ciphertext
from auctionlab.errors import ModeMismatch
from auctionlab.groups import SMALL_GROUP
from auctionlab.protocol import (
    AuctionConfig,
    AuctionRun,
    BidderAgent,
    bidder_name,
    collect_outcome,
)

from conftest import FixedNonce, fixed_challenge


class TestAffineRelayFrozen:
    """Peggy holds x=3 for v=8.  The relay claims 1-x for w = g/v = 6,
    using Peggy's nonce 4 and Victor's challenge 2."""

    def test_concrete_instance(self, small):
        stmt = sigma.PDLStatement(g=2, v=8)
        peggy = attacks.InteractiveProver(small, stmt, 3, FixedNonce(4))
        result = attacks.mitm_affine_pdl(small, attacks.one_minus_x_claim(),
                                         peggy, fixed_challenge(2))
        assert result.claimed_value == 6
        assert result.victor_transcript.commitment == (13,)
        assert result.victor_transcript.challenge == 2
        assert result.victor_transcript.response == 3
        claim_stmt = sigma.PDLStatement(g=2, v=6)
        assert sigma.verify_pdl(small, claim_stmt, result.victor_transcript)

    def test_peggy_conversation_still_accepts(self, small):
        stmt = sigma.PDLStatement(g=2, v=8)
        peggy = attacks.InteractiveProver(small, stmt, 3, FixedNonce(4))
        result = attacks.mitm_affine_pdl(small, attacks.one_minus_x_claim(),
                                         peggy, fixed_challenge(2))
        assert sigma.verify_pdl(small, stmt, result.peggy_transcript)

    @given(x=st.integers(1, 10), h=st.integers(0, 10), a=st.integers(0, 10),
           b=st.integers(-5, 10), seed=st.integers(0, 5000))
    @settings(max_examples=80, deadline=None)
    def test_any_affine_claim_relays(self, x, h, a, b, seed):
        """Every affine transform of a live proof yields an accepting
        transcript for the transformed claim."""
        g = SMALL_GROUP
        rng = random.Random(seed)
        v = g.exp(g.g, x)
        peggy = attacks.InteractiveProver(g, sigma.PDLStatement(g=g.g, v=v),
                                          x, rng)
        claim = attacks.AffineClaim(h=h, a=a, b=b)
        result = attacks.mitm_affine_pdl(
            g, claim, peggy, sigma.verifier_source(g, rng))
        assert result.claimed_value == (
            g.exp(g.g, a * h) * g.exp(v, b) % g.p)
        stmt = sigma.PDLStatement(g=g.g, v=result.claimed_value)
        assert sigma.verify_pdl(g, stmt, result.victor_transcript)

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

    run = AuctionRun(cfg, list(bids), seed, agent_factory=factory,
                     outcome_order=list(range(1, n)) + [n])
    run.step_keygen()
    run.step_bid()
    for index in run.outcome_order:
        run.bidder(index).post_outcome()
    return run


class TestNoiseRemoval:
    @pytest.mark.parametrize("exponent", [1, 5])
    def test_products_collapse_to_base_power(self, exponent):
        """After the attacker's shares, the joint masking product at every
        cell is exactly base^exponent: the other bidders' noise is gone."""
        g = SMALL_GROUP
        run = _attack_run_through_outcome(2, exponent)
        gammas, deltas, _ = collect_outcome(run.board, 3)
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
        assert sigma.verify_eqdl(small, stmt, tr)

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

    def test_per_bidder_markers_fall_by_enumeration(self):
        """Distinct markers per bidder only shrink the anonymity set; the
        seller enumerates candidate bid tables instead."""
        cfg = AuctionConfig(n=2, k=2, markers_per_bidder=(4, 9))
        report = attacks.full_privacy_attack(cfg, [2, 1], 3)
        assert report.success
        assert report.recovered_bids == [2, 1]


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
