"""Three-move proofs: knowledge, equality, OR-composition, hashed variant."""

import collections
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from auctionlab import sigma
from auctionlab.elgamal import encrypt
from auctionlab.errors import AlreadyCommitted, NotCommitted, WitnessMismatch
from auctionlab.groups import (LARGE_GROUP, MID_GROUP, SMALL_GROUP, GroupParams,
                               validate_group)

from conftest import FixedNonce, fixed_challenge


class TestKnowledgeProofFrozen:
    """x=3, v=g^x=8; nonce 4, challenge 2."""

    def test_transcript(self, small):
        stmt = sigma.PDLStatement(g=2, v=8)
        tr = sigma.prove(small, stmt, 3, FixedNonce(4), fixed_challenge(2))
        assert tr.commitment == (16,)
        assert tr.challenge == 2
        assert tr.response == 10
        assert sigma.verify_transcript(small, stmt, tr, require_hashed=False)

    def test_check_equation_sides(self, small):
        # g^s and z * v^c both land on 12
        assert small.exp(2, 10) == 12
        assert 16 * small.exp(8, 2) % 23 == 12

    def test_wrong_witness_fails(self, small):
        stmt = sigma.PDLStatement(g=2, v=8)
        tr = sigma.prove(small, stmt, 4, FixedNonce(4), fixed_challenge(2))
        assert not sigma.verify_transcript(small, stmt, tr, require_hashed=False)


class TestEqualityProofFrozen:
    """One exponent 3 under generators (2, 4); nonce 5, challenge 7."""

    def test_transcript(self, small):
        stmt = sigma.EQDLStatement(gens=(2, 4), targets=(8, 18))
        tr = sigma.prove(small, stmt, 3, FixedNonce(5), fixed_challenge(7))
        assert tr.commitment == (9, 12)
        assert tr.challenge == 7
        assert tr.response == 4
        assert sigma.verify_transcript(small, stmt, tr, require_hashed=False)

    def test_unequal_exponents_rejected(self, small):
        # targets with different exponents: 2^3=8 but 4^4=3
        stmt = sigma.EQDLStatement(gens=(2, 4), targets=(8, 3))
        tr = sigma.prove(small, stmt, 3, FixedNonce(5), fixed_challenge(7))
        assert not sigma.verify_transcript(small, stmt, tr, require_hashed=False)

    def test_vector_shape_enforced(self):
        with pytest.raises(ValueError):
            sigma.EQDLStatement(gens=(2,), targets=(8, 3))
        with pytest.raises(ValueError):
            sigma.EQDLStatement(gens=(), targets=())


class TestSessionDiscipline:
    def test_commit_twice_refused(self, small):
        s = sigma.ProverSession(small, sigma.PDLStatement(g=2, v=8), 3,
                                random.Random(1))
        s.commit()
        with pytest.raises(AlreadyCommitted):
            s.commit()

    def test_respond_before_commit_refused(self, small):
        s = sigma.ProverSession(small, sigma.PDLStatement(g=2, v=8), 3,
                                random.Random(1))
        with pytest.raises(NotCommitted):
            s.respond(5)

    def test_respond_twice_refused(self, small):
        s = sigma.ProverSession(small, sigma.PDLStatement(g=2, v=8), 3,
                                random.Random(1))
        s.commit()
        s.respond(5)
        with pytest.raises(NotCommitted):
            s.respond(6)

    def test_bid_cell_has_no_session(self, small):
        """A bid cell stands for two cores, so no one-exponent session
        proves it."""
        cell = sigma.BidValidityStatement(y=8, g=2, marker=4, alpha=3, beta=9)
        assert len(sigma.statement_cores(small, cell)) == 2
        with pytest.raises(TypeError, match="no single-exponent core for BidValidityStatement"):
            sigma.ProverSession(small, cell, 3, random.Random(1))


@pytest.mark.parametrize("obj", [(2, 8), 7, None], ids=["tuple", "int", "None"])
def test_statement_cores_refuses_a_non_statement(small, obj):
    """Not even a plain tuple equal to ``PDLStatement(2, 8)`` maps to cores."""
    with pytest.raises(TypeError, match=f"no single-exponent core for {type(obj).__name__}"):
        sigma.statement_cores(small, obj)


class TestSpecialSoundness:
    def test_two_transcripts_extract_witness(self, small):
        """Same commitment, two challenges: the responses reveal x."""
        stmt = sigma.PDLStatement(g=2, v=8)
        nonce = 4
        x = 3
        s1 = (nonce + 2 * x) % small.q
        s2 = (nonce + 7 * x) % small.q
        extracted = (s1 - s2) * pow(2 - 7, -1, small.q) % small.q
        assert extracted == x

    @given(x=st.integers(1, 10), nonce=st.integers(0, 10),
           c1=st.integers(0, 10), c2=st.integers(0, 10))
    @settings(max_examples=60)
    def test_extraction_always_works(self, x, nonce, c1, c2):
        if c1 == c2:
            return
        q = SMALL_GROUP.q
        s1 = (nonce + c1 * x) % q
        s2 = (nonce + c2 * x) % q
        assert (s1 - s2) * pow(c1 - c2, -1, q) % q == x % q


class TestHashedChallenges:
    def test_deterministic(self, small):
        stmt = sigma.PDLStatement(g=2, v=8)
        c1 = sigma.fiat_shamir_challenge(small, stmt, (16,))
        c2 = sigma.fiat_shamir_challenge(small, stmt, (16,))
        assert c1 == c2
        assert 0 <= c1 < small.q

    def test_binds_statement(self, small):
        c1 = sigma.fiat_shamir_challenge(small, sigma.PDLStatement(g=2, v=8), (16,))
        c2 = sigma.fiat_shamir_challenge(small, sigma.PDLStatement(g=2, v=9), (16,))
        assert c1 != c2

    def test_binds_commitment(self, small):
        stmt = sigma.PDLStatement(g=2, v=8)
        c1 = sigma.fiat_shamir_challenge(small, stmt, (16,))
        c2 = sigma.fiat_shamir_challenge(small, stmt, (13,))
        assert c1 != c2

    def test_domain_separation(self, small):
        """The same numbers under different statement kinds hash apart."""
        pdl = sigma.PDLStatement(g=2, v=8)
        eq = sigma.EQDLStatement(gens=(2,), targets=(8,))
        assert (sigma.fiat_shamir_challenge(small, pdl, (16,))
                != sigma.fiat_shamir_challenge(small, eq, (16,)))

    def test_hashed_proof_round_trip(self, small):
        stmt = sigma.PDLStatement(g=2, v=8)
        tr = sigma.prove(small, stmt, 3, random.Random(5),
                         sigma.fiat_shamir_source(small))
        assert sigma.verify_transcript(small, stmt, tr, require_hashed=True)

    def test_interactive_transcript_fails_hashed_check(self, small):
        """A challenge that is not the hash must be rejected when hashing
        is demanded, even though the check equation holds."""
        stmt = sigma.PDLStatement(g=2, v=8)
        tr = sigma.prove(small, stmt, 3, FixedNonce(4), fixed_challenge(2))
        assert sigma.verify_transcript(small, stmt, tr, require_hashed=False)
        assert not sigma.verify_transcript(small, stmt, tr, require_hashed=True)

    def test_regression_challenge_value(self, small):
        """Frozen hashed challenge; any serialization change shows up here."""
        stmt = sigma.PDLStatement(g=2, v=8)
        c = sigma.fiat_shamir_challenge(small, stmt, (16,))
        assert c == 0


class TestInteractiveChallenges:
    """An honest verifier's challenge lies in 1..q-1: a challenge of 0
    accepts any response to a commitment g^t, namely s = t."""

    def test_zero_is_drawn_again(self, small):
        assert sigma.verifier_source(small, FixedNonce(0, 5))(None, ()) == 5

    def test_draws_are_randrange_without_the_zeros(self, small):
        source = sigma.verifier_source(small, random.Random(3))
        plain = random.Random(3)
        expected = [c for c in (plain.randrange(small.q) for _ in range(400)) if c]
        assert 0 < len(expected) < 400
        assert [source(None, ()) for _ in expected] == expected


class TestBidValidity:
    def _stmt(self, small, r, is_marker):
        y = 3
        ct = encrypt(small, 4 if is_marker else 1, y, r)
        return sigma.BidValidityStatement(y=y, g=small.g, marker=4,
                                          alpha=ct.alpha, beta=ct.beta)

    @pytest.mark.parametrize("is_marker", [False, True])
    def test_both_branches_accept(self, small, is_marker):
        rng = random.Random(11)
        for r in range(small.q):
            stmt = self._stmt(small, r, is_marker)
            tr = sigma.prove(small, stmt, (r, is_marker), rng,
                             sigma.fiat_shamir_source(small))
            assert sigma.verify_transcript(small, stmt, tr, require_hashed=False)

    def test_witness_must_match_ciphertext(self, small):
        stmt = self._stmt(small, 5, True)
        with pytest.raises(WitnessMismatch):
            sigma.prove(small, stmt, (5, False), random.Random(1),
                        sigma.fiat_shamir_source(small))

    def test_non_bid_plaintext_rejected(self, small):
        """A cell encrypting marker^2 satisfies neither branch."""
        y = 3
        r = 5
        alpha = small.exp(4, 2) * small.exp(y, r) % small.p
        beta = small.exp(small.g, r)
        stmt = sigma.BidValidityStatement(y=y, g=small.g, marker=4,
                                          alpha=alpha, beta=beta)
        with pytest.raises(WitnessMismatch):
            sigma.prove(small, stmt, (r, True), random.Random(1),
                        sigma.fiat_shamir_source(small))

    def test_challenge_split_checked(self, small):
        stmt = self._stmt(small, 5, False)
        tr = sigma.prove(small, stmt, (5, False), random.Random(2),
                         sigma.fiat_shamir_source(small))
        broken = sigma.OrTranscript(branches=tr.branches,
                                    challenge=(tr.challenge + 1) % small.q)
        assert not sigma.verify_transcript(small, stmt, broken, require_hashed=False)


class TestSumValidity:
    def test_exactly_one_marker_accepts(self, small):
        y = 3
        rng = random.Random(4)
        rs = [rng.randrange(small.q) for _ in range(3)]
        cts = [encrypt(small, 4 if j == 1 else 1, y, r)
               for j, r in enumerate(rs)]
        stmt = sigma.SumValidityStatement(
            y=y, g=small.g, marker=4,
            alphas=tuple(c.alpha for c in cts),
            betas=tuple(c.beta for c in cts))
        tr = sigma.prove(small, stmt, sum(rs) % small.q, rng,
                         sigma.fiat_shamir_source(small))
        assert sigma.verify_transcript(small, stmt, tr, require_hashed=False)

    def test_two_markers_rejected(self, small):
        y = 3
        rng = random.Random(4)
        rs = [rng.randrange(small.q) for _ in range(3)]
        cts = [encrypt(small, 4 if j <= 1 else 1, y, r)
               for j, r in enumerate(rs)]
        stmt = sigma.SumValidityStatement(
            y=y, g=small.g, marker=4,
            alphas=tuple(c.alpha for c in cts),
            betas=tuple(c.beta for c in cts))
        tr = sigma.prove(small, stmt, sum(rs) % small.q, rng,
                         sigma.fiat_shamir_source(small))
        assert not sigma.verify_transcript(small, stmt, tr, require_hashed=False)


class TestSimulator:
    """Accepting transcripts exist for any challenge without the witness —
    the zero-knowledge side of the coin, and the engine of the OR proof."""

    @given(seed=st.integers(0, 5000))
    @settings(max_examples=40)
    def test_simulated_transcripts_verify(self, seed):
        g = SMALL_GROUP
        stmt = sigma.EQDLStatement(gens=(2, 4), targets=(8, 3))  # false claim!
        tr = sigma._simulate_eqdl(g, stmt, random.Random(seed))
        assert sigma.verify_transcript(g, stmt, tr, require_hashed=False)


class TestTamperResistance:
    @given(seed=st.integers(0, 2000), bump=st.integers(1, 10))
    @settings(max_examples=40)
    def test_bumped_response_rejected(self, seed, bump):
        g = SMALL_GROUP
        stmt = sigma.PDLStatement(g=2, v=8)
        tr = sigma.prove(g, stmt, 3, random.Random(seed),
                         sigma.fiat_shamir_source(g))
        bad = sigma.Transcript(commitment=tr.commitment, challenge=tr.challenge,
                               response=(tr.response + bump) % g.q)
        assert not sigma.verify_transcript(g, stmt, bad, require_hashed=False)


class TestPayloadRoundTrip:
    def test_plain_transcript(self, small):
        stmt = sigma.PDLStatement(g=2, v=8)
        tr = sigma.prove(small, stmt, 3, random.Random(5),
                         sigma.fiat_shamir_source(small))
        back = sigma.transcript_from_payload(sigma.transcript_to_payload(tr))
        assert back == tr

    def test_or_transcript(self, small):
        y = 3
        ct = encrypt(small, 4, y, 5)
        stmt = sigma.BidValidityStatement(y=y, g=small.g, marker=4,
                                          alpha=ct.alpha, beta=ct.beta)
        tr = sigma.prove(small, stmt, (5, True), random.Random(1),
                         sigma.fiat_shamir_source(small))
        back = sigma.transcript_from_payload(sigma.transcript_to_payload(tr))
        assert back == tr
        assert sigma.verify_transcript(small, stmt, back, require_hashed=False)


class TestCompleteness:
    @given(x=st.integers(0, 10), seed=st.integers(0, 5000))
    @settings(max_examples=60)
    def test_knowledge_proofs_always_verify(self, x, seed):
        g = SMALL_GROUP
        stmt = sigma.PDLStatement(g=g.g, v=g.exp(g.g, x))
        tr = sigma.prove(g, stmt, x, random.Random(seed),
                         sigma.fiat_shamir_source(g))
        assert sigma.verify_transcript(g, stmt, tr, require_hashed=True)

    @given(x=st.integers(0, 10), seed=st.integers(0, 5000),
           arity=st.integers(1, 4))
    @settings(max_examples=60)
    def test_equality_proofs_always_verify(self, x, seed, arity):
        g = SMALL_GROUP
        rng = random.Random(seed)
        gens = tuple(rng.choice(g.elements()) for _ in range(arity))
        stmt = sigma.EQDLStatement(gens=gens,
                                   targets=tuple(g.exp(b, x) for b in gens))
        tr = sigma.prove(g, stmt, x, rng, sigma.fiat_shamir_source(g))
        assert sigma.verify_transcript(g, stmt, tr, require_hashed=True)


def _statement_and_transcript(params, kind, rng):
    """An honest hashed proof of a ``kind`` statement with a non-zero
    challenge, so that a changed target always breaks its equation."""
    g, q, marker = params.g, params.q, params.exp(params.g, 2)
    y = params.exp(g, rng.randrange(1, q))
    while True:
        x = rng.randrange(1, q)
        if kind == "knowledge":
            stmt, witness = sigma.PDLStatement(g=g, v=params.exp(g, x)), x
        elif kind == "equality":
            gens = tuple(params.exp(g, rng.randrange(1, q)) for _ in range(3))
            stmt = sigma.EQDLStatement(gens=gens,
                                       targets=tuple(params.exp(b, x) for b in gens))
            witness = x
        elif kind == "bid cell":
            is_marker = rng.random() < 0.5
            ct = encrypt(params, marker if is_marker else 1, y, x)
            stmt = sigma.BidValidityStatement(y=y, g=g, marker=marker,
                                              alpha=ct.alpha, beta=ct.beta)
            witness = (x, is_marker)
        else:
            rs = [rng.randrange(q) for _ in range(3)]
            cts = [encrypt(params, marker if j == 1 else 1, y, r)
                   for j, r in enumerate(rs)]
            stmt = sigma.SumValidityStatement(
                y=y, g=g, marker=marker, alphas=tuple(c.alpha for c in cts),
                betas=tuple(c.beta for c in cts))
            witness = sum(rs) % q
        tr = sigma.prove(params, stmt, witness, rng, sigma.fiat_shamir_source(params))
        if tr.challenge:
            return stmt, tr


def _tampered(params, stmt, tr, tamper):
    """The statement and transcript with one part changed, or unchanged."""
    q = params.q
    if tamper == "response":
        tr = sigma.Transcript(commitment=tr.commitment, challenge=tr.challenge,
                              response=(tr.response + 1) % q)
    elif tamper == "one commitment short":
        tr = sigma.Transcript(commitment=tr.commitment[:-1], challenge=tr.challenge,
                              response=tr.response)
    elif tamper in ("target 2", "target 3"):
        targets = list(stmt.targets)
        i = int(tamper[-1]) - 1
        targets[i] = targets[i] * params.g % params.p
        stmt = sigma.EQDLStatement(gens=stmt.gens, targets=tuple(targets))
    elif tamper == "challenge split":
        tr = sigma.OrTranscript(branches=tr.branches, challenge=(tr.challenge + 1) % q)
    elif tamper in ("plain branch", "marked branch"):
        branches = list(tr.branches)
        i = 1 if tamper == "marked branch" else 0
        b = branches[i]
        branches[i] = sigma.Transcript(commitment=b.commitment, challenge=b.challenge,
                                       response=(b.response + 1) % q)
        tr = sigma.OrTranscript(branches=tuple(branches), challenge=tr.challenge)
    return stmt, tr


def _by_powers(group):
    """``group`` with its log tables hidden: every equation is checked by
    its powers."""
    bare = GroupParams(group.p, group.q, group.g)
    object.__setattr__(bare, "_logs_pending", False)
    return bare


def _counting(monkeypatch, names=("exp",)):
    """Count calls of the named ``GroupParams`` methods until undone."""
    calls = collections.Counter()
    for name in names:
        def counting(self, *args, _name=name, _orig=getattr(GroupParams, name)):
            calls[_name] += 1
            return _orig(self, *args)
        monkeypatch.setattr(GroupParams, name, counting)
    return calls


# No log table (p > 2^16) and not wide (p < 2^128): powers go to ``pow``.
P17_GROUP = validate_group(73369, 1019, 62156)


class TestVerifierWork:
    """What ``verify_transcript`` costs per statement kind, accepting and
    rejecting.  Checked by powers (a group with no log table): 2 powers per
    equation, stopping at the first that fails.  In a group with log tables
    every value of these proofs has a logarithm, so no power is raised, with
    the same verdicts.  A bid cell or a sum takes one inverse for the
    marker."""

    @pytest.mark.parametrize("require_hashed", [False, True], ids=["plain", "hashed"])
    @pytest.mark.parametrize("group", [SMALL_GROUP, LARGE_GROUP, MID_GROUP, P17_GROUP],
                             ids=["small", "large", "mid", "p73369"])
    @pytest.mark.parametrize("kind,tamper,accepts,exps,invs", [
        ("knowledge", None, True, 2, 0),
        ("knowledge", "response", False, 2, 0),
        ("equality", None, True, 6, 0),
        ("equality", "response", False, 2, 0),
        ("equality", "target 2", False, 4, 0),
        ("equality", "target 3", False, 6, 0),
        ("equality", "one commitment short", False, 0, 0),
        ("bid cell", None, True, 8, 1),
        ("bid cell", "challenge split", False, 0, 1),
        ("bid cell", "plain branch", False, 2, 1),
        ("bid cell", "marked branch", False, 6, 1),
        ("sum", None, True, 4, 1),
        ("sum", "response", False, 2, 1),
    ])
    def test_powers_per_check(self, monkeypatch, group, require_hashed, kind, tamper,
                              accepts, exps, invs):
        stmt, tr = _statement_and_transcript(group, kind, random.Random(17))
        stmt, tr = _tampered(group, stmt, tr, tamper)
        assert (group.logs is not None) == (group.p < 1 << 16)
        calls = _counting(monkeypatch, ("exp", "inv"))
        verdict = sigma.verify_transcript(group, stmt, tr, require_hashed)
        monkeypatch.undo()
        if group.logs is not None:
            exps = 0
        assert (verdict, calls["exp"], calls["inv"]) == (accepts, exps, invs)


class TestPreparedChecks:
    """An equation is checked by logarithms in a group with log tables: the
    same verdict as checking its powers (the group with its tables hidden),
    with no power raised while every value has a logarithm, and the powers
    for an equation with a value that has none."""

    KINDS = [
        ("knowledge", None), ("knowledge", "response"),
        ("equality", None), ("equality", "response"), ("equality", "target 3"),
        ("equality", "one commitment short"),
        ("bid cell", None), ("bid cell", "challenge split"),
        ("bid cell", "plain branch"), ("bid cell", "marked branch"),
        ("sum", None), ("sum", "response"),
    ]

    @pytest.mark.parametrize("require_hashed", [False, True], ids=["plain", "hashed"])
    @pytest.mark.parametrize("group", [SMALL_GROUP, MID_GROUP, LARGE_GROUP],
                             ids=["small", "mid", "large"])
    @pytest.mark.parametrize("kind,tamper", KINDS)
    def test_same_verdict_as_the_powers(self, monkeypatch, group, require_hashed,
                                        kind, tamper):
        bare = _by_powers(group)
        for seed in range(4):
            stmt, tr = _tampered(group, *_statement_and_transcript(
                group, kind, random.Random(seed)), tamper)
            cores = sigma.statement_cores(group, stmt)
            powers = _counting(monkeypatch)
            by_powers = sigma.verify_transcript(bare, stmt, tr, require_hashed)
            monkeypatch.undo()
            assert bare.logs is None
            assert powers["exp"] > 0 or tamper in ("one commitment short", "challenge split")
            calls = _counting(monkeypatch)
            assert sigma.verify_transcript(group, stmt, tr, require_hashed,
                                           cores=cores) == by_powers
            assert sigma.verify_transcript(group, stmt, tr, require_hashed) == by_powers
            monkeypatch.undo()
            assert by_powers == (tamper is None)
            if group.logs is not None:
                assert calls["exp"] == 0

    @pytest.mark.parametrize("change", ["minus p", "plus p", "non-member"])
    def test_commitment_without_a_log_falls_back(self, monkeypatch, change):
        """A commitment with no logarithm has its equation checked by powers,
        with the verdict that check gives: z - p and z + p pass as z does,
        since the product is reduced mod p, and p - z fails."""
        group = MID_GROUP
        stmt, tr = _statement_and_transcript(group, "knowledge", random.Random(3))
        (z,) = tr.commitment
        other = {"minus p": z - group.p, "plus p": z + group.p,
                 "non-member": group.p - z}[change]
        changed = tr._replace(commitment=(other,))
        calls = _counting(monkeypatch)
        verdict = sigma.verify_transcript(group, stmt, changed, False)
        assert calls["exp"] == 2
        monkeypatch.undo()
        assert verdict == sigma.verify_transcript(_by_powers(group), stmt, changed, False)
        assert verdict == (change != "non-member")

    def test_statement_value_without_a_log_keeps_the_powers(self, monkeypatch):
        """A generator outside the subgroup has its equation checked by
        powers, and the statement's other equation by logarithms, accepting
        and rejecting as the powers do."""
        group = MID_GROUP
        x, outside = 5, group.p - group.g
        stmt = sigma.EQDLStatement(gens=(outside, group.g),
                                   targets=(group.exp(outside, x), group.exp(group.g, x)))
        assert group.logs[outside] is None
        tr = sigma.prove(group, stmt, x, random.Random(2), sigma.fiat_shamir_source(group))
        for changed, accepts in ((tr, True), (tr._replace(response=tr.response + 1), False)):
            calls = _counting(monkeypatch)
            verdict = sigma.verify_transcript(group, stmt, changed, True)
            monkeypatch.undo()
            assert calls["exp"] == 2
            assert verdict == accepts
            assert verdict == sigma.verify_transcript(_by_powers(group), stmt, changed, True)
