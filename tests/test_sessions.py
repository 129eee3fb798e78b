"""Interactive rounds in list form, against a per-statement reference.

``protocol.check_round`` asks each author's agent once per verifier for the
sessions of that author's consecutive entries, and checks the transcripts
in entry order.  ``reference_check_round`` below is the loop it replaced:
one session per entry, asked for alone and checked as soon as it ends, with
no statement prepared ahead (every equation checked by its powers).  After
each round both must have checked the same transcripts of the same
statements in the same order, left every rng in the same state and reached
the same outcome; both must refuse the same proof.
"""

import contextlib

import pytest

from auctionlab import protocol, sigma
from auctionlab.attacks import CopycatBidder, NoiseRemovalBidder, dishonest_bidder
from auctionlab.errors import ProofRejected
from auctionlab.groups import MID_GROUP
from auctionlab.protocol import AuctionConfig, AuctionRun, BidderAgent

CONFIG = AuctionConfig(n=4, k=6, params=MID_GROUP, marker=9)
BIDS = [2, 5, 3, 6]


def reference_check_round(run, round_name, verifiers, entries):
    """Each verifier checks every entry another author posted, in entry
    order, each in a session of its own."""
    config, agents = run.config, run.agents
    batch = sigma.EquationBatch(config.params)
    for verifier in verifiers:
        source = sigma.verifier_source(config.params, verifier.rng)
        for author, stmt, _, failure, where in entries:
            if author == verifier.name:
                continue
            try:
                agent = agents.get(author)
                if agent is None:
                    raise ProofRejected(author, round_name, f"missing proof{where}")
                (tr,) = agent.prove([stmt], source)
                protocol.check_proof(config, author, round_name, stmt, tr, failure,
                                     where, batch)
            except Exception:
                protocol._raise_first_failure(batch, round_name)
                raise
    protocol._raise_first_failure(batch, round_name)


@contextlib.contextmanager
def reference_rounds():
    saved = protocol.check_round
    protocol.check_round = reference_check_round
    try:
        yield
    finally:
        protocol.check_round = saved


STEPS = ("step_keygen", "step_bid", "step_outcome", "step_decrypt", "determine_winner")


def rng_states(run):
    """The state of every agent's rng and the seller's: every verifier's."""
    return [agent.rng.getstate() for agent in run.agents.values()] + [
        run.seller.rng.getstate()]


def copycats(rerandomize):
    def factory(run, index, rng):
        if index == CopycatBidder.target_index:
            return BidderAgent(run, index, rng)
        return CopycatBidder(run, index, rng, rerandomize)
    return factory


RUNS = {
    "honest": (BIDS, None),
    "noise-removal-1": (BIDS, dishonest_bidder(4, NoiseRemovalBidder, 1)),
    "noise-removal-5": (BIDS, dishonest_bidder(4, NoiseRemovalBidder, 5)),
    "impersonation": ([3] * 4, copycats(False)),
    "impersonation-rerandomized": ([3] * 4, copycats(True)),
}


@pytest.mark.parametrize("seed", [3, 8])
@pytest.mark.parametrize("name", sorted(RUNS))
def test_list_sessions_match_the_reference(monkeypatch, name, seed):
    """Step by step, both runs check the same transcripts of the same
    statements in the same order, reach the same outcome and leave every
    rng in the same state."""
    checked = []
    verify = sigma.verify_transcript

    def recording(params, stmt, tr, *args, **kwargs):
        checked.append((stmt, tr))
        return verify(params, stmt, tr, *args, **kwargs)

    monkeypatch.setattr(sigma, "verify_transcript", recording)
    bids, factory = RUNS[name]
    listed = AuctionRun(CONFIG, bids, seed, agent_factory=factory)
    reference = AuctionRun(CONFIG, bids, seed, agent_factory=factory)
    for step in STEPS:
        outcome = getattr(listed, step)()
        listed_checks = checked[:]
        checked.clear()
        with reference_rounds():
            assert getattr(reference, step)() == outcome
        assert checked == listed_checks, step
        checked.clear()
        assert rng_states(listed) == rng_states(reference), step
    assert listed.board.to_json() == reference.board.to_json()


class Forgetful(BidderAgent):
    """Drops the witness of the ``ordinal``-th statement it posts (0-based:
    the key share, then the k cells and the sum, then the masking shares in
    row order), so its prover has no proof for it in the middle of a list."""

    def __init__(self, run, index, rng, ordinal):
        super().__init__(run, index, rng)
        self.ordinal, self.posted = ordinal, 0

    def _posted_proof(self, stmt, witness):
        proof = super()._posted_proof(stmt, witness)
        if self.posted == self.ordinal:
            del self.witnesses[stmt]
        self.posted += 1
        return proof


@pytest.mark.parametrize("ordinal,round_name,detail", [
    (3, "bid", "validity proof failed at price 3"),
    (1 + 6 + 1 + 10, "outcome", "masking proof failed at cell (2,5)"),
])
def test_prover_without_a_proof_mid_list(ordinal, round_name, detail):
    factory = dishonest_bidder(2, Forgetful, ordinal)
    refusals = []
    for context in (contextlib.nullcontext, reference_rounds):
        with context(), pytest.raises(ProofRejected) as caught:
            AuctionRun(CONFIG, BIDS, 5, agent_factory=factory).run()
        exc = caught.value
        refusals.append((exc.author, exc.round_name, exc.detail))
    assert refusals == [("bidder-2", round_name, detail)] * 2
