"""Subgroup membership and batched proof equations.

Every posted group element must lie in the order-q subgroup before a proof
check sees it, and so must every commitment.  In wide groups each round's
commitments are screened and its proof equations checked as one
small-exponent batch when the round settles; the failure raised must be the
one that checking each proof on arrival raises first.
"""

import copy
import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from auctionlab import groups, protocol, sigma
from auctionlab.defenses import DefenseFlags
from auctionlab.errors import ProofRejected
from auctionlab.groups import LARGE_GROUP, MID_GROUP, SMALL_GROUP, GroupParams
from auctionlab.protocol import (
    ROUND_BID,
    ROUND_DECRYPT,
    ROUND_OUTCOME,
    AuctionConfig,
    AuctionRun,
    BidderAgent,
    bidder_name,
    run_auction,
)

P, Q, G = LARGE_GROUP.p, LARGE_GROUP.q, LARGE_GROUP.g


def _per_proof(params: GroupParams) -> GroupParams:
    """The same group with batching off: every equation is checked as it
    arrives, the way a narrow group checks them."""
    params = GroupParams(p=params.p, q=params.q, g=params.g)
    object.__setattr__(params, "wide", False)
    return params


def _rejection(config, bids, seed, factory):
    with pytest.raises(ProofRejected) as caught:
        run_auction(config, bids, seed, agent_factory=factory)
    exc = caught.value
    return exc.author, exc.round_name, exc.detail


# --------------------------------------------------------------------------
# A negated masking share voids an auction with every defense on
# --------------------------------------------------------------------------

class NegatedShareGrinder(BidderAgent):
    """Posts p - γ for its masking share at one cell, with a hashed proof
    of the true share re-ground until its challenge is even: then
    (p - γ)^c = γ^c, and the proof verifies for the negated share.  The
    cell's Γ-product turns into -1 and no cell decrypts to 1."""

    honest = False

    def __init__(self, run, index, rng, cell):
        super().__init__(run, index, rng)
        self.cell = cell                     # 0-based
        self.grinds = 0

    def _post(self, round_name, kind, payload):
        if kind == "outcome":
            i, j = self.cell
            honest = self._outcome_statement(i, j)
            gamma, delta = honest.targets
            negated = sigma.EQDLStatement(gens=honest.gens,
                                          targets=(self.params.p - gamma, delta))
            while True:
                self.grinds += 1
                tr = sigma.prove(self.params, negated, self.m[i][j], self.rng,
                                 sigma.fiat_shamir_source(self.params))
                if tr.challenge % 2 == 0:
                    break
            payload["gamma"][i][j] = negated.targets[0]
            payload["proofs"][i][j] = sigma.transcript_to_payload(tr)
        return super()._post(round_name, kind, payload)


class NegatingBidder(BidderAgent):
    """Replaces one posted element v of its chosen round by p - v."""

    def __init__(self, run, index, rng, round_name, field):
        super().__init__(run, index, rng)
        self.round_name, self.field = round_name, field

    def _post(self, round_name, kind, payload):
        if round_name == self.round_name and kind == "bid":
            payload[self.field][1] = self.params.p - payload[self.field][1]
        elif round_name == self.round_name and kind == "outcome":
            payload[self.field][1][2] = self.params.p - payload[self.field][1][2]
        return super()._post(round_name, kind, payload)

    def send_decrypt_shares(self):
        super().send_decrypt_shares()
        if self.round_name == ROUND_DECRYPT:
            phi = self.run.seller.shares[self.name]
            phi[0][1] = self.params.p - phi[0][1]


class TestNegatedShareVoid:
    """Mid group, all four defenses, n=3, k=4, bids (3, 1, 2): bidder 1
    wins at price 3, and bidder 2 negates its share at that cell."""

    CONFIG = AuctionConfig(n=3, k=4, params=MID_GROUP, marker=9,
                           flags=DefenseFlags.all_on())

    @pytest.mark.parametrize("seed", range(8))
    def test_refused_in_the_outcome_round(self, seed):
        grinders = []

        def factory(run, index, rng):
            if index == 2:
                grinders.append(NegatedShareGrinder(run, index, rng, (0, 2)))
                return grinders[-1]
            return BidderAgent(run, index, rng)

        assert _rejection(self.CONFIG, [3, 1, 2], seed, factory) == (
            bidder_name(2), ROUND_OUTCOME,
            "malformed outcome: element outside the order-q subgroup")
        assert grinders[0].grinds >= 1

    def test_interactive_non_member_refused_before_any_session(self, monkeypatch):
        """Large group, interactive proofs: p - γ is refused when the round
        is read, before any verifier opens a session."""
        config = AuctionConfig(n=3, k=4, params=LARGE_GROUP, marker=9)
        run = AuctionRun(config, [3, 1, 2], 4, agent_factory=lambda run, index, rng: (
            NegatingBidder(run, index, rng, ROUND_OUTCOME, "gamma") if index == 2
            else BidderAgent(run, index, rng)))
        run.step_keygen()
        run.step_bid()
        sessions = []
        prove = BidderAgent.prove
        monkeypatch.setattr(BidderAgent, "prove", lambda self, stmt, source: (
            sessions.append(stmt) or prove(self, stmt, source)))
        with pytest.raises(ProofRejected) as caught:
            run.step_outcome()
        exc = caught.value
        assert (exc.author, exc.round_name, exc.detail) == (
            bidder_name(2), ROUND_OUTCOME,
            "malformed outcome: element outside the order-q subgroup")
        assert sessions == []


class TestNonMembersRefused:
    """p - v for a posted α, β, γ, δ or φ is refused with its author and
    round, in either proof mode, before any proof of it is checked."""

    @pytest.mark.parametrize("round_name,field,what", [
        (ROUND_BID, "alphas", "bid"),
        (ROUND_BID, "betas", "bid"),
        (ROUND_OUTCOME, "gamma", "outcome"),
        (ROUND_OUTCOME, "delta", "outcome"),
        (ROUND_DECRYPT, "phi", "decrypt shares"),
    ])
    @pytest.mark.parametrize("flags", [DefenseFlags(), DefenseFlags.all_on()],
                             ids=["interactive", "all"])
    def test_refused(self, flags, round_name, field, what):
        config = AuctionConfig(n=3, k=4, params=MID_GROUP, marker=9, flags=flags)

        def factory(run, index, rng):
            if index == 2:
                return NegatingBidder(run, index, rng, round_name, field)
            return BidderAgent(run, index, rng)

        assert _rejection(config, [3, 1, 2], 2, factory) == (
            bidder_name(2), round_name,
            f"malformed {what}: element outside the order-q subgroup")


class NegatedFixBidder(BidderAgent):
    """Posts p - γ for the first cell of each of its fix posts."""

    def _post(self, round_name, kind, payload):
        if kind == "outcome-fix":
            payload["gamma"][0] = self.params.p - payload["gamma"][0]
        return super()._post(round_name, kind, payload)


class TestOutcomeSharesCheckedOnce:
    """Small group, noise-product check on, n=2, k=2, seed 1: one redraw,
    so the outcome round is read three times."""

    CONFIG = AuctionConfig(n=2, k=2, params=SMALL_GROUP, marker=4,
                           flags=DefenseFlags(noise_product_check=True))

    def test_each_posted_share_once(self, monkeypatch):
        checked, walked = [], []
        check, walk = protocol.check_elements, protocol.check_payload

        def counting(params, author, round_name, what, *rows):
            if round_name == ROUND_OUTCOME:
                checked.extend(v for row in rows for v in row)
            return check(params, author, round_name, what, *rows)

        def walking(config, kind, author, round_name, payload, row=None):
            if kind in ("outcome", "outcome-fix"):
                walked.append(id(payload))
            return walk(config, kind, author, round_name, payload, row)

        monkeypatch.setattr(protocol, "check_elements", counting)
        monkeypatch.setattr(protocol, "check_payload", walking)
        run, _ = run_auction(self.CONFIG, [1, 2], 1)
        posted, payloads = [], []
        for post in run.board.select(round=ROUND_OUTCOME):
            payloads.append(id(post.payload))
            for name in ("gamma", "delta"):
                shares = post.payload[name]
                if post.kind == "outcome":
                    shares = [v for row in shares for v in row]
                posted.extend(shares)
        assert any(run.board.select(kind="outcome-fix"))
        assert sorted(checked) == sorted(posted)
        assert sorted(walked) == sorted(payloads)     # one walk per post

    def test_non_member_in_a_fix_post_refused(self):
        factory = lambda run, index, rng: (NegatedFixBidder if index == 2
                                           else BidderAgent)(run, index, rng)
        assert _rejection(self.CONFIG, [1, 2], 1, factory) == (
            bidder_name(2), ROUND_OUTCOME,
            "malformed outcome: element outside the order-q subgroup")


# --------------------------------------------------------------------------
# Batched checks raise what per-proof checks raise
# --------------------------------------------------------------------------

class SessionTamperer(BidderAgent):
    """Answers chosen sessions for its masking shares with a changed
    transcript.  ``plan`` maps a 0-based cell to the session numbers (0 for
    the first verifier that asks, 1 for the next) to change, and ``change``
    turns a transcript into the one returned.  It verifies the others as an
    honest bidder does, so every bidder is a verifier."""

    def __init__(self, run, index, rng, plan, change):
        super().__init__(run, index, rng)
        self.plan, self.change = plan, change
        self.asked = {}

    def is_share(self, stmt, cell):
        """Whether ``stmt`` proves this bidder's masking share at ``cell``."""
        return (self.run.gammas is not None
                and stmt == self.run.outcome_statements[self.index - 1][cell[0]][cell[1]])

    def prove(self, stmts, challenge_source):
        return [self.changed(stmt, tr)
                for stmt, tr in zip(stmts, super().prove(stmts, challenge_source))]

    def changed(self, stmt, tr):
        for cell, sessions in self.plan.items():
            if self.is_share(stmt, cell):
                count = self.asked[cell] = self.asked.get(cell, -1) + 1
                if count in sessions:
                    return self.change(tr)
        return tr


def _bump_response(tr):
    return tr._replace(response=(tr.response + 1) % Q)


def _negate_commitment(tr):
    return tr._replace(commitment=(P - tr.commitment[0], *tr.commitment[1:]))


def _tamperers(plans, change):
    def factory(run, index, rng):
        if index in plans:
            return SessionTamperer(run, index, rng, plans[index], change)
        return BidderAgent(run, index, rng)
    return factory


def _batch_verdicts(monkeypatch):
    """A list that gains the verdict of every batch tried as one equation."""
    verdicts = []
    holds = sigma.EquationBatch._holds_together
    monkeypatch.setattr(sigma.EquationBatch, "_holds_together",
                        lambda self, pending: verdicts.append(holds(self, pending))
                        or verdicts[-1])
    return verdicts


class TestBatchFallback:
    """Large group, interactive, n=3, k=4.  Verifier 1 checks bidders 2 and
    3, then verifier 2 checks bidders 1 and 3, then verifier 3 checks
    bidders 1 and 2; each in entry order, bidder by bidder and cell by
    cell."""

    CONFIG = AuctionConfig(n=3, k=4, params=LARGE_GROUP, marker=9)
    BIDS = [3, 1, 2]

    @pytest.mark.parametrize("plans,want", [
        ({2: {(1, 2): {0, 1}}}, (2, "masking proof failed at cell (2,3)")),
        # Bidder 1's second session comes after bidder 3's first.
        ({1: {(0, 0): {1}}, 3: {(2, 3): {0}}}, (3, "masking proof failed at cell (3,4)")),
        ({1: {(0, 0): {1}}, 2: {(2, 1): {1}}}, (1, "masking proof failed at cell (1,1)")),
    ], ids=["one-cell", "earlier-verifier-first", "same-verifier-entry-order"])
    def test_corrupted_response(self, monkeypatch, plans, want):
        factory = _tamperers(plans, _bump_response)
        per_proof = dataclasses.replace(self.CONFIG, params=_per_proof(LARGE_GROUP))
        expected = _rejection(per_proof, self.BIDS, 5, factory)
        assert expected == (bidder_name(want[0]), ROUND_OUTCOME, want[1])
        verdicts = _batch_verdicts(monkeypatch)
        assert _rejection(self.CONFIG, self.BIDS, 5, factory) == expected
        assert verdicts[-1] is False           # the outcome batch failed

    def test_non_member_pair_refused(self):
        """Two commitments replaced by p - z in one round: the small-exponent
        test alone would accept them whenever the two weights have the same
        parity.  The round's membership screen catches them when the round
        settles, and the first is refused, as checking on arrival does."""
        factory = _tamperers({2: {(0, 1): {0}, (2, 3): {0}}}, _negate_commitment)
        want = (bidder_name(2), ROUND_OUTCOME,
                "malformed proof at cell (1,2): commitment outside the order-q subgroup")
        assert _rejection(self.CONFIG, self.BIDS, 5, factory) == want
        per_proof = dataclasses.replace(self.CONFIG, params=_per_proof(LARGE_GROUP))
        assert _rejection(per_proof, self.BIDS, 5, factory) == want

    def test_immediate_failure_waits_for_earlier_false_equations(self):
        """Bidder 2's bumped response at cell (1,1) comes before its
        negated commitment at cell (1,2), so it is the one raised."""
        class Both(SessionTamperer):
            def changed(self, stmt, tr):
                tr = super().changed(stmt, tr)
                if self.is_share(stmt, (0, 1)):
                    return _negate_commitment(tr)
                return tr

        def factory(run, index, rng):
            if index == 2:
                return Both(run, index, rng, {(0, 0): {0}}, _bump_response)
            return BidderAgent(run, index, rng)

        assert _rejection(self.CONFIG, self.BIDS, 5, factory) == (
            bidder_name(2), ROUND_OUTCOME, "masking proof failed at cell (1,1)")

    def test_hashed_bid_round(self):
        """Hashed proofs are batched too: bidder 2's re-posted bid with a
        changed ciphertext fails its first cell."""
        config = AuctionConfig(n=3, k=4, params=LARGE_GROUP, marker=9,
                               flags=DefenseFlags(ni_proofs=True))
        run = AuctionRun(config, self.BIDS, 5)
        run.step_keygen()
        for index in range(1, 4):
            run.bidder(index).submit_bid(run.bids[index - 1])
        payload = dict(run.board.latest_by_author(ROUND_BID, "bid")[bidder_name(2)].payload)
        payload["alphas"] = [payload["alphas"][0] * G % P, *payload["alphas"][1:]]
        run.board.append(ROUND_BID, bidder_name(2), "bid", payload)
        with pytest.raises(ProofRejected) as caught:
            run._verify_bids()
        assert (caught.value.author, caught.value.detail) == (
            bidder_name(2), "validity proof failed at price 1")


def _negate_first(tr):
    """``tr`` with its first commitment z replaced by p - z, in its first
    branch when it is an OR transcript."""
    if isinstance(tr, sigma.OrTranscript):
        return tr._replace(branches=(_negate_commitment(tr.branches[0]), tr.branches[1]))
    return _negate_commitment(tr)


class CommitmentNegator(BidderAgent):
    """Replaces the first commitment z of its proof of the ``ordinal``-th
    statement it posts in ``round_name`` (0-based) by p - z: in every
    session under interactive proofs, and under hashed ones in the posted
    transcript, whose challenge it hashes over p - z so that only the
    equation and membership fail."""

    def __init__(self, run, index, rng, round_name, ordinal):
        super().__init__(run, index, rng)
        self.round_name, self.ordinal = round_name, ordinal
        self.current, self.posted, self.chosen = None, 0, None

    def submit_bid(self, price):
        self.current = ROUND_BID
        return super().submit_bid(price)

    def post_outcome(self):
        self.current = ROUND_OUTCOME
        return super().post_outcome()

    def send_decrypt_shares(self):
        self.current = ROUND_DECRYPT
        return super().send_decrypt_shares()

    def _posted_proof(self, stmt, witness):
        if self.current == self.round_name:
            chosen = self.posted == self.ordinal
            self.posted += 1
            if chosen:
                self.chosen = stmt
                if not self.config.interactive:
                    params = self.params
                    tr = sigma.prove(params, stmt, witness, self.rng,
                                     lambda st, com: sigma.fiat_shamir_challenge(
                                         params, st, (params.p - com[0], *com[1:])))
                    return sigma.transcript_to_payload(_negate_first(tr))
        return super()._posted_proof(stmt, witness)

    def prove(self, stmts, challenge_source):
        return [_negate_first(tr) if stmt == self.chosen else tr
                for stmt, tr in zip(stmts, super().prove(stmts, challenge_source))]


class TestScreenedRounds:
    """Large group, n=4, k=8, bids (3, 5, 1, 7), seed 2: bidder 3 negates
    one commitment in the bid, outcome or decrypt round.  Each of those
    rounds holds more than 64 commitments in either proof mode, so the
    batch screens them by its rows, and the refusal must be the one that
    checking each commitment on arrival gives."""

    BIDS = [3, 5, 1, 7]

    @pytest.mark.parametrize("round_name,ordinal,where", [
        (ROUND_BID, 2, " at price 3"),
        (ROUND_OUTCOME, 5, " at cell (1,6)"),
        (ROUND_DECRYPT, 0, ""),
    ])
    @pytest.mark.parametrize("flags", [DefenseFlags(), DefenseFlags(ni_proofs=True)],
                             ids=["interactive", "hashed"])
    def test_same_refusal_as_checking_on_arrival(self, monkeypatch, flags, round_name,
                                                 ordinal, where):
        config = AuctionConfig(n=4, k=8, params=LARGE_GROUP, marker=9, flags=flags)

        def factory(run, index, rng):
            if index == 3:
                return CommitmentNegator(run, index, rng, round_name, ordinal)
            return BidderAgent(run, index, rng)

        per_proof = dataclasses.replace(config, params=_per_proof(LARGE_GROUP))
        expected = _rejection(per_proof, self.BIDS, 2, factory)
        assert expected == (bidder_name(3), round_name, f"malformed proof{where}: "
                            "commitment outside the order-q subgroup")
        screens = []
        screened = sigma.EquationBatch._screened
        monkeypatch.setattr(sigma.EquationBatch, "_screened", lambda self, coms, rows: (
            screens.append((len(coms), screened(self, coms, rows))) or screens[-1][1]))
        assert _rejection(config, self.BIDS, 2, factory) == expected
        assert screens[-1][0] > 64 and screens[-1][1] is False

    @pytest.mark.parametrize("change", ["stale-hash", "response-plus-q"])
    def test_other_failures_wait_for_the_commitments(self, change):
        """Hashed proofs, n=3, k=4: bidder 2 re-posts its bid with the first
        commitment of its first cell negated and its hash left stale, or
        also with that branch's response raised by q.  Either failure is
        found as the proof arrives, and the commitment's refusal comes
        first, as when commitments are tested on arrival."""
        def refusal(params):
            config = AuctionConfig(n=3, k=4, params=params, marker=9,
                                   flags=DefenseFlags(ni_proofs=True))
            run = AuctionRun(config, [3, 1, 2], 5)
            run.step_keygen()
            for index in range(1, 4):
                run.bidder(index).submit_bid(run.bids[index - 1])
            payload = copy.deepcopy(
                run.board.latest_by_author(ROUND_BID, "bid")[bidder_name(2)].payload)
            branch = payload["proofs"][0]["or"][0]
            branch["com"][0] = P - branch["com"][0]
            if change == "response-plus-q":
                branch["resp"] += Q
            run.board.append(ROUND_BID, bidder_name(2), "bid", payload)
            with pytest.raises(ProofRejected) as caught:
                run._verify_bids()
            return caught.value.author, caught.value.detail

        want = (bidder_name(2),
                "malformed proof at price 1: commitment outside the order-q subgroup")
        assert refusal(_per_proof(LARGE_GROUP)) == want
        assert refusal(LARGE_GROUP) == want


class TestSymbolCounts:
    """One honest interactive n=4, k=8 auction, bids (3, 5, 1, 7), seed 3:
    how many Jacobi symbols and powers it computes."""

    @staticmethod
    def _counted(monkeypatch, params):
        counts = {"jacobi": 0, "exp": 0}
        jacobi, exp = groups._jacobi, groups.GroupParams.exp

        def counting_jacobi(a, n):
            counts["jacobi"] += 1
            return jacobi(a, n)

        def counting_exp(self, x, e):
            counts["exp"] += 1
            return exp(self, x, e)

        monkeypatch.setattr(groups, "_jacobi", counting_jacobi)
        monkeypatch.setattr(groups.GroupParams, "exp", counting_exp)
        run_auction(AuctionConfig(n=4, k=8, params=params, marker=9), [3, 5, 1, 7], 3)
        return counts

    def test_large_group(self, monkeypatch):
        """453 symbols for the marker and the posted elements, 12 for the key
        round's commitments one at a time, and 64 rows for each of the bid,
        outcome and decrypt rounds (408, 768 and 128 commitments).  A bid
        cell's witness is re-encrypted once, when it is posted, not in each
        of the three sessions that prove it."""
        assert self._counted(monkeypatch, LARGE_GROUP) == {"jacobi": 657, "exp": 2123}

    def test_no_symbols_in_the_mid_group(self, monkeypatch):
        """A narrow group reads membership from its table of logarithms."""
        assert self._counted(monkeypatch, MID_GROUP)["jacobi"] == 0


# --------------------------------------------------------------------------
# The batch itself
# --------------------------------------------------------------------------

def _equality_proof(rng, arity):
    """An honest interactive proof that one exponent links ``arity``
    generator/target pairs in the large group."""
    x = rng.randrange(1, Q)
    gens = tuple(LARGE_GROUP.exp(G, rng.randrange(1, Q)) for _ in range(arity))
    stmt = sigma.EQDLStatement(gens=gens, targets=tuple(LARGE_GROUP.exp(b, x) for b in gens))
    return stmt, sigma.prove(LARGE_GROUP, stmt, x, rng,
                             sigma.verifier_source(LARGE_GROUP, rng))


def _corrupted(stmt, tr, how):
    """A member-only corruption: every element stays in the subgroup."""
    if how == "response":
        tr = tr._replace(response=(tr.response + 1) % Q)
    elif how == "commitment":
        tr = tr._replace(commitment=(tr.commitment[0] * G % P, *tr.commitment[1:]))
    elif how == "target":
        stmt = sigma.EQDLStatement(gens=stmt.gens,
                                   targets=(*stmt.targets[:-1], stmt.targets[-1] * G % P))
    elif how == "challenge":
        tr = tr._replace(challenge=(tr.challenge + 1) % Q)
    return stmt, tr


class TestEquationBatch:
    @given(seed=st.integers(0, 2**32), arity=st.integers(1, 3),
           plan=st.lists(st.sampled_from([None, None, "response", "commitment",
                                          "target", "challenge"]),
                         min_size=1, max_size=6))
    @settings(max_examples=25, deadline=None)
    def test_verdict_is_the_and_of_single_verdicts(self, seed, arity, plan):
        rng = random.Random(seed)
        batch = sigma.EquationBatch(LARGE_GROUP)
        singles = []
        for key, how in enumerate(plan):
            stmt, tr = _corrupted(*_equality_proof(rng, arity), how)
            singles.append(sigma.verify_transcript(LARGE_GROUP, stmt, tr, False))
            assert sigma.verify_transcript(LARGE_GROUP, stmt, tr, False,
                                           batch=batch, key=key)
        first = next((key for key, ok in enumerate(singles) if not ok), None)
        assert batch.first_failure() == first
        assert batch.pending == []

    def test_narrow_groups_check_on_arrival(self):
        rng = random.Random(3)
        stmt = sigma.PDLStatement(g=MID_GROUP.g, v=MID_GROUP.exp(MID_GROUP.g, 7))
        tr = sigma.prove(MID_GROUP, stmt, 7, rng, sigma.verifier_source(MID_GROUP, rng))
        bad = tr._replace(response=(tr.response + 1) % MID_GROUP.q)
        batch = sigma.EquationBatch(MID_GROUP)
        assert sigma.verify_transcript(MID_GROUP, stmt, tr, False, batch=batch, key=0)
        assert not sigma.verify_transcript(MID_GROUP, stmt, bad, False, batch=batch, key=1)
        assert batch.pending == [] and batch.first_failure() is None

    @staticmethod
    def _negated_pair_batches():
        """32 batches, each of two knowledge proofs whose commitments are
        replaced by p - z: both false, and both outside the subgroup."""
        for seed in range(32):
            rng = random.Random(seed)
            batch = sigma.EquationBatch(LARGE_GROUP)
            for key in range(2):
                x = rng.randrange(1, Q)
                stmt = sigma.PDLStatement(g=G, v=LARGE_GROUP.exp(G, x))
                tr = _negate_commitment(sigma.prove(LARGE_GROUP, stmt, x, rng,
                                                    sigma.verifier_source(LARGE_GROUP, rng)))
                assert not sigma.verify_transcript(LARGE_GROUP, stmt, tr, False)
                batch.add(key, sigma.transcript_equations(LARGE_GROUP, stmt, tr))
            yield batch

    def test_non_members_fool_a_bare_batch(self, monkeypatch):
        """Without membership checks the small-exponent test is unsound
        (Boyd-Pavlovski): with the screen passed by, the product step alone
        accepts two negated commitments whenever their signs cancel, when
        the two weights have the same parity, about half the time."""
        monkeypatch.setattr(sigma.EquationBatch, "_screened", lambda self, coms, rows: True)
        accepted = 0
        for batch in self._negated_pair_batches():
            accepted += batch.first_failure() is None
        assert 4 <= accepted <= 28

    def test_non_member_commitment_refused_when_its_equation_holds(self):
        """Target and commitment both negated, under an odd challenge: the
        equation holds, but the commitment lies outside the subgroup, so
        the walk after the failed screen still names the check."""
        x, r, c = 5, 7, 3
        stmt = sigma.PDLStatement(g=G, v=P - LARGE_GROUP.exp(G, x))
        tr = sigma.Transcript((P - LARGE_GROUP.exp(G, r),), c, r + c * x)
        assert sigma.verify_transcript(LARGE_GROUP, stmt, tr, False)
        batch = sigma.EquationBatch(LARGE_GROUP)
        batch.add("negated", sigma.transcript_equations(LARGE_GROUP, stmt, tr))
        assert batch.first_failure() == "negated"

    def test_screened_batch_refuses_every_negated_pair(self):
        """The same 32 batches, screened: each fails at its first proof."""
        assert [batch.first_failure() for batch in self._negated_pair_batches()] == [0] * 32


# Four fixed keys: their statements' targets keep fixed-base tables across
# examples, so a batch of 200 proofs costs about 200 powers.
_KEYS = [(x, sigma.PDLStatement(g=G, v=LARGE_GROUP.exp(G, x))) for x in (5, 7, 11, 13)]
_PER_PROOF = _per_proof(LARGE_GROUP)


class TestScreenedBatch:
    @given(seed=st.integers(0, 2**32), size=st.integers(1, 200),
           negated=st.lists(st.integers(0, 199), max_size=3),
           twice=st.booleans(), bumped=st.one_of(st.none(), st.integers(0, 199)))
    @settings(max_examples=30, deadline=None)
    def test_first_failure_matches_checking_on_arrival(self, seed, size, negated,
                                                        twice, bumped):
        """Knowledge proofs with up to three commitments replaced by p - z,
        the first of them posted a second time when ``twice``, and maybe one
        member-only false equation: the batch names the proof that checking
        each on arrival, membership and then equations, fails first."""
        rng = random.Random(seed)
        proofs = []
        for _ in range(size):
            x, stmt = rng.choice(_KEYS)
            proofs.append((stmt, sigma.prove(LARGE_GROUP, stmt, x, rng,
                                             sigma.verifier_source(LARGE_GROUP, rng))))
        negated = list(dict.fromkeys(i % size for i in negated))
        for i in negated:
            stmt, tr = proofs[i]
            proofs[i] = stmt, _negate_commitment(tr)
        if bumped is not None:
            stmt, tr = proofs[bumped % size]
            proofs[bumped % size] = stmt, _bump_response(tr)
        if twice and negated:
            proofs.insert(rng.randrange(len(proofs) + 1), proofs[negated[0]])
        batch = sigma.EquationBatch(LARGE_GROUP)
        for key, (stmt, tr) in enumerate(proofs):
            batch.add(key, sigma.transcript_equations(LARGE_GROUP, stmt, tr))
        first = next((key for key, (stmt, tr) in enumerate(proofs)
                      if not (_PER_PROOF.are_elements(tr.commitment)
                              and sigma.verify_transcript(_PER_PROOF, stmt, tr, False))), None)
        assert batch.first_failure() == first
        assert (first is None) == (not negated and bumped is None)

        coms = [tr.commitment[0] for _, tr in proofs]
        weights = [rng.getrandbits(64) for _ in coms]
        weights[0], weights[-1] = 2**64 - 1, 0
        rows = sigma._subset_rows(P, coms, weights)
        assert sigma._horner(P, rows) == LARGE_GROUP.multi_exp(coms, weights)


class TestTranscriptShape:
    def test_nested_or_branch_is_a_failed_proof(self):
        """An OR branch that is itself an OR, with two commitments like a
        real branch, is refused as a failed proof, not a bare exception."""
        config = AuctionConfig(n=2, k=3, flags=DefenseFlags(ni_proofs=True))
        run = AuctionRun(config, [1, 2], 5)
        run.step_keygen()
        for index in (1, 2):
            run.bidder(index).submit_bid(run.bids[index - 1])
        payload = dict(run.board.latest_by_author(ROUND_BID, "bid")[bidder_name(2)].payload)
        proof = dict(payload["proofs"][0])
        leaf = {"com": [1], "resp": 0, "hash": "sha256"}
        inner = {"or": [{**leaf, "chal": 0}, {**leaf, "chal": 1}], "chal": 1, "hash": "sha256"}
        proof["or"] = [inner, proof["or"][1]]
        proof["chal"] = (1 + proof["or"][1]["chal"]) % config.params.q
        payload["proofs"] = [proof, *payload["proofs"][1:]]
        run.board.append(ROUND_BID, bidder_name(2), "bid", payload)
        with pytest.raises(ProofRejected) as caught:
            run._verify_bids()
        assert (caught.value.author, caught.value.detail) == (
            bidder_name(2), "validity proof failed at price 1")
