"""Countermeasures: post authentication, product checks, key binding."""

import hashlib
import hmac
import random
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from auctionlab import attacks, sigma
from auctionlab.board import BulletinBoard, canonical_bytes, spliced_bytes
from auctionlab.defenses import (
    AuthRegistry,
    DefenseFlags,
    authenticate_post,
    check_noise_cancellation,
    check_noise_products,
    scan_exceptional_bases,
    verify_post,
)
from auctionlab.errors import UnknownAuthor
from auctionlab.groups import SMALL_GROUP
from auctionlab.protocol import (
    AuctionConfig,
    AuctionRun,
    cell_products,
    collect_outcome,
    decrypt_statement,
)


class TestFlags:
    def test_default_all_off(self):
        flags = DefenseFlags()
        assert not any(asdict(flags).values())

    def test_all_on(self):
        assert all(asdict(DefenseFlags.all_on()).values())

    def test_dict_keys(self):
        assert sorted(asdict(DefenseFlags())) == [
            "authenticate", "key_consistency", "ni_proofs",
            "noise_product_check"]


class TestAuthentication:
    def test_tag_round_trip(self):
        registry = AuthRegistry()
        key = registry.register("bidder-1", random.Random(1))
        board = BulletinBoard()
        payload = {"y": 8}
        tag = authenticate_post(key, "keygen", "bidder-1", "key", payload)
        post = board.append("keygen", "bidder-1", "key", payload, auth=tag)
        assert verify_post(registry, post)

    def test_tag_binds_payload(self):
        registry = AuthRegistry()
        key = registry.register("bidder-1", random.Random(1))
        tag = authenticate_post(key, "keygen", "bidder-1", "key", {"y": 8})
        board = BulletinBoard()
        forged = board.append("keygen", "bidder-1", "key", {"y": 9}, auth=tag)
        assert not verify_post(registry, forged)

    def test_tag_binds_author_and_round(self):
        registry = AuthRegistry()
        key = registry.register("bidder-1", random.Random(1))
        registry.register("bidder-2", random.Random(2))
        tag = authenticate_post(key, "keygen", "bidder-1", "key", {"y": 8})
        board = BulletinBoard()
        wrong_author = board.append("keygen", "bidder-2", "key", {"y": 8},
                                    auth=tag)
        assert not verify_post(registry, wrong_author)
        wrong_round = board.append("bid", "bidder-1", "key", {"y": 8}, auth=tag)
        assert not verify_post(registry, wrong_round)

    def test_untagged_post_fails(self):
        registry = AuthRegistry()
        registry.register("bidder-1", random.Random(1))
        board = BulletinBoard()
        bare = board.append("keygen", "bidder-1", "key", {"y": 8}, auth=None)
        assert not verify_post(registry, bare)

    def test_unregistered_author_is_an_error(self):
        registry = AuthRegistry()
        board = BulletinBoard()
        post = board.append("keygen", "ghost", "key", {"y": 8}, auth="00")
        with pytest.raises(UnknownAuthor):
            verify_post(registry, post)
        with pytest.raises(UnknownAuthor):
            authenticate_post(None, "keygen", "ghost", "key", {})

    def test_distinct_keys_per_author(self):
        registry = AuthRegistry()
        k1 = registry.register("bidder-1", random.Random(1))
        k2 = registry.register("bidder-2", random.Random(1))
        assert k1 != k2 or True  # same rng still yields per-call bytes
        assert len(k1) == 32


def _run_through_outcome(seed, n=2, k=2, bids=(1, 2), flags=None):
    cfg = AuctionConfig(n=n, k=k, flags=flags or DefenseFlags())
    run = AuctionRun(cfg, list(bids), seed)
    run.step_keygen()
    run.step_bid()
    run.step_outcome()
    return run


def _masking_products(run):
    gammas = collect_outcome(run.board, run.config.n, run.config.k)[0]
    return cell_products(SMALL_GROUP, gammas)


class TestProductChecks:
    def test_zero_joint_exponent_flagged(self):
        """Seed 1 (checks off) leaves a cell whose masking product is 1."""
        run = _run_through_outcome(1)
        flagged = check_noise_products(_masking_products(run))
        assert flagged, "expected a collapsed masking product at this seed"

    def test_redraw_clears_the_flag(self):
        """Fresh draws can re-collapse (probability about 1/q per cell), so
        clearing is a bounded loop, mirroring the in-protocol pass."""
        run = _run_through_outcome(1)
        for _ in range(10):
            flagged = check_noise_products(_masking_products(run))
            if not flagged:
                break
            for agent in run.agents.values():
                agent.redraw_exponents(flagged)
        assert check_noise_products(_masking_products(run)) == []

    def test_chance_cancellation_detected(self):
        """Seed 7: the honest joint exponent happens to be exactly 1, the
        same signature a unit-exponent stripping attacker leaves."""
        run = _run_through_outcome(7)
        assert check_noise_cancellation(run.bases, _masking_products(run))

    def test_clean_seed_passes_both_checks(self):
        run = _run_through_outcome(0)
        assert check_noise_products(_masking_products(run)) == []
        assert check_noise_cancellation(run.bases, _masking_products(run)) == []

    def test_base_collapse_scan(self):
        """Seed 3's bid round lands a base product on 1."""
        cfg = AuctionConfig(n=2, k=2)
        run = AuctionRun(cfg, [1, 2], 3)
        run.step_keygen()
        run.step_bid()
        assert scan_exceptional_bases(run.bases)

    def test_stripping_attacker_always_flagged(self):
        """Whatever the seed, unit-exponent stripping trips the
        cancellation check (its product is exactly the base)."""
        from auctionlab.protocol import BidderAgent

        for seed in (0, 5, 11, 23):
            cfg = AuctionConfig(n=2, k=2)

            def factory(run, index, rng):
                if index == 2:
                    return attacks.NoiseRemovalBidder(run, index, rng, 1)
                return BidderAgent(run, index, rng)

            run = AuctionRun(cfg, [1, 2], seed, agent_factory=factory)
            run.step_keygen()
            run.step_bid()
            for index in (1, 2):
                run.bidder(index).post_outcome()
            assert check_noise_cancellation(run.bases, _masking_products(run))


class TestKeyConsistency:
    def test_honest_proof_accepts(self, small):
        rng = random.Random(3)
        x = 4
        y = small.exp(small.g, x)
        deltas = [[small.exp(small.g, 5), small.exp(small.g, 7)]]
        phis = [[small.exp(d, x) for d in deltas[0]]]
        stmt = decrypt_statement(small, deltas, phis, y)
        tr = sigma.prove(small, stmt, x, rng, sigma.fiat_shamir_source(small))
        assert sigma.verify_transcript(small, stmt, tr, require_hashed=True)

    def test_shifted_exponent_rejected(self, small):
        """Decrypting with x+1 while the registered share is g^x cannot be
        proven: no single exponent satisfies both relations."""
        rng = random.Random(3)
        x = 4
        y = small.exp(small.g, x)
        deltas = [[small.exp(small.g, 5), small.exp(small.g, 7)]]
        wrong_phis = [[small.exp(d, x + 1) for d in deltas[0]]]
        stmt = decrypt_statement(small, deltas, wrong_phis, y)
        tr = sigma.prove(small, stmt, x + 1, rng,
                         sigma.fiat_shamir_source(small))
        assert not sigma.verify_transcript(small, stmt, tr, require_hashed=True)


TEXT = st.text(max_size=6)
TREES = st.recursive(st.none() | st.integers(0, 2**70) | TEXT,
                     lambda inner: st.lists(inner, max_size=3)
                     | st.dictionaries(TEXT, inner, max_size=3), max_leaves=10)


class TestTagsCoverStoredBytes:
    @given(st.dictionaries(TEXT, TREES, max_size=4), TEXT, TREES)
    @settings(max_examples=120)
    def test_spliced_bytes_match_the_whole_encoding(self, mapping, key, value):
        whole = {**mapping, key: value}
        assert (spliced_bytes({k: v for k, v in whole.items() if k != key}, key,
                              canonical_bytes(value)) == canonical_bytes(whole))

    @pytest.mark.parametrize("payload", [{"y": 8}, {"b": [1, {"c": "x"}], "a": None}])
    def test_tag_is_unchanged(self, payload):
        """The tag is still the HMAC of the whole canonical dict, whether
        given the payload or its stored bytes."""
        key = bytes(range(32))
        whole = canonical_bytes({"round": "bid", "author": "bidder-1", "kind": "bid",
                                 "payload": payload})
        expect = hmac.new(key, whole, hashlib.sha256).hexdigest()
        assert authenticate_post(key, "bid", "bidder-1", "bid", payload) == expect
        assert authenticate_post(key, "bid", "bidder-1", "bid",
                                 canonical_bytes(payload)) == expect

    def test_a_post_without_bytes_never_verifies(self):
        """Not even with the author's tag over the bytes of a None payload,
        which a refused payload's missing bytes must not stand in for."""
        registry = AuthRegistry()
        key = registry.register("bidder-1", random.Random(1))
        tag = authenticate_post(key, "keygen", "bidder-1", "key", None)
        post = BulletinBoard().append("keygen", "bidder-1", "key", {"y": -1}, auth=tag)
        assert post.encoded is None and not verify_post(registry, post)

    def test_made_up_tag_on_a_payload_the_encoder_refuses(self):
        """Such a post has no stored bytes, so it fails its tag check: it is
        refused as AuthRejected, not with the encoder's ValueError."""
        from auctionlab.errors import AuthRejected
        from auctionlab.protocol import ROUND_KEYGEN, bidder_name

        run = AuctionRun(AuctionConfig(n=2, k=2, flags=DefenseFlags(authenticate=True)),
                         [1, 2], 0)
        run.bidder(1).keygen()
        run.board.append(ROUND_KEYGEN, bidder_name(2), "keyshare",
                         {"bidder": 2, "y": -1, "proof": None}, auth="00")
        with pytest.raises(AuthRejected) as caught:
            run._check_auth(ROUND_KEYGEN)
        assert (caught.value.author, caught.value.round_name) == (bidder_name(2), ROUND_KEYGEN)

    @pytest.mark.parametrize("tag", ["\u00e9", 5, b"00"], ids=["non-ascii", "int", "bytes"])
    def test_tag_of_the_wrong_type_is_refused(self, tag):
        """A tag that is not an ASCII str fails its check, refused as
        AuthRejected rather than with ``hmac.compare_digest``'s TypeError."""
        from auctionlab.errors import AuthRejected
        from auctionlab.protocol import ROUND_KEYGEN, bidder_name

        run = AuctionRun(AuctionConfig(n=2, k=2, flags=DefenseFlags(authenticate=True)),
                         [1, 2], 0)
        run.bidder(1).keygen()
        post = run.board.append(ROUND_KEYGEN, bidder_name(2), "keyshare",
                                {"bidder": 2, "y": 4, "proof": None}, auth=tag)
        assert post.encoded is not None and not verify_post(run.registry, post)
        with pytest.raises(AuthRejected) as caught:
            run._check_auth(ROUND_KEYGEN)
        assert (caught.value.author, caught.value.round_name) == (bidder_name(2), ROUND_KEYGEN)


class TestAuthenticatedRun:
    def test_honest_run_passes_auth_checks(self):
        flags = DefenseFlags(authenticate=True)
        run = _run_through_outcome(0, flags=flags)
        for post in run.board.posts:
            assert post.auth is not None
            assert verify_post(run.registry, post)

    def test_forged_post_caught(self):
        from auctionlab.errors import AuthRejected
        from auctionlab.protocol import ROUND_BID, bidder_name

        flags = DefenseFlags(authenticate=True)
        cfg = AuctionConfig(n=2, k=2, flags=flags)
        run = AuctionRun(cfg, [1, 2], 0)
        run.step_keygen()
        run.step_bid()
        victim = run.board.latest_by_author(ROUND_BID, "bid")[bidder_name(1)]
        run.board.append(ROUND_BID, bidder_name(1), "bid", victim.payload,
                         auth="beef")
        with pytest.raises(AuthRejected):
            run._check_auth(ROUND_BID)
