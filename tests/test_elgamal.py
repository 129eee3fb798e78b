"""Distributed ElGamal: key shares, joint key, threshold decryption."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from auctionlab.elgamal import (
    Ciphertext,
    KeyShare,
    aggregate_keys,
    combine_decrypt,
    ct_mul,
    encrypt,
    gen_keyshare,
    partial_decrypt,
)
from auctionlab.errors import EmptyPartials, EmptyShareList
from auctionlab.groups import SMALL_GROUP


class TestFrozenValues:
    """Known-answer vectors computed by hand for p=23, q=11, g=2."""

    def test_joint_key(self, small):
        assert aggregate_keys(small, [8, 9]) == 3  # shares x=3 and x=5

    def test_encrypt(self, small):
        ct = encrypt(small, 4, y=3, r=2)
        assert (ct.alpha, ct.beta) == (13, 4)

    def test_partial_decrypt(self, small):
        assert partial_decrypt(small, 4, KeyShare(x=3, y=8)) == 18
        assert partial_decrypt(small, 4, KeyShare(x=5, y=9)) == 12

    def test_combine(self, small):
        assert combine_decrypt(small, 13, [18, 12]) == 4


class TestKeyShares:
    def test_share_shape(self, small):
        rng = random.Random(7)
        for _ in range(50):
            share = gen_keyshare(small, rng)
            assert 1 <= share.x < small.q
            assert share.y == small.exp(small.g, share.x)

    def test_no_empty_aggregate(self, small):
        with pytest.raises(EmptyShareList):
            aggregate_keys(small, [])

    def test_no_empty_partials(self, small):
        with pytest.raises(EmptyPartials):
            combine_decrypt(small, 13, [])


class TestRoundTrip:
    @given(seed=st.integers(0, 10_000), parties=st.integers(1, 5))
    @settings(max_examples=60, deadline=None)
    def test_n_party_round_trip(self, seed, parties):
        """Encrypt under the joint key, decrypt with every share's help."""
        g = SMALL_GROUP
        rng = random.Random(seed)
        shares = [gen_keyshare(g, rng) for _ in range(parties)]
        y = aggregate_keys(g, [s.y for s in shares])
        m = rng.choice(g.elements())
        ct = encrypt(g, m, y, rng.randrange(g.q))
        partials = [partial_decrypt(g, ct.beta, s) for s in shares]
        assert combine_decrypt(g, ct.alpha, partials) == m

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_multiplicative_homomorphism(self, seed):
        """ct_mul multiplies the plaintexts."""
        g = SMALL_GROUP
        rng = random.Random(seed)
        share = gen_keyshare(g, rng)
        m1, m2 = rng.choice(g.elements()), rng.choice(g.elements())
        c1 = encrypt(g, m1, share.y, rng.randrange(g.q))
        c2 = encrypt(g, m2, share.y, rng.randrange(g.q))
        prod = ct_mul(g, c1, c2)
        partial = partial_decrypt(g, prod.beta, share)
        assert combine_decrypt(g, prod.alpha, [partial]) == g.mul(m1, m2)

    def test_wrong_share_garbles(self, small):
        """Decrypting with a shifted exponent must not return the plaintext."""
        rng = random.Random(3)
        share = gen_keyshare(small, rng)
        ct = encrypt(small, 4, share.y, 5)
        wrong = KeyShare(x=(share.x + 1) % small.q, y=share.y)
        partial = partial_decrypt(small, ct.beta, wrong)
        assert combine_decrypt(small, ct.alpha, [partial]) != 4
