"""Attack playbook against the auction.

Nothing in here bypasses honest verification; every manoeuvre produces
messages and transcripts that the honest agents' own checking code accepts
(or visibly rejects, when a countermeasure is switched on).

The structural weakness exploited throughout: an interactive three-move
proof lets a relay transform a genuine prover's messages into an accepting
transcript for a different, affinely related claim.  With commitment z,
challenge c and response s for witness x, the pair (z^b, c, c*a*h + b*s)
convinces a verifier for the claim a*h + b*x.  Stripping everyone else's
outcome masking, forging the matching equality proofs, and letting the
seller read bids off the unmasked cells is that one trick applied three
different ways.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, fields

from . import defenses, elgamal, recovery, sigma
from .errors import (
    AuthRejected,
    MissingShares,
    ModeMismatch,
    ProofRejected,
    RestartRequired,
)
from .groups import GroupParams

# Attack code reads what the run kept when each round closed (the base grid
# AuctionRun.bases, the masking shares AuctionRun.gammas and .deltas), and
# reads the board only while a round is still open.  compute_outcome_bases
# stays importable from here: the perfbench tracer rebinds every protocol
# name this module holds, and its tests look it up.
from .protocol import (  # noqa: F401
    ROUND_BID,
    AuctionConfig,
    AuctionRun,
    BidderAgent,
    bidder_name,
    cell_products,
    compute_outcome_bases,
    encode_bid,
    expected_winner,
    with_restarts,
)


@dataclass
class AttackReport:
    """What an attack run did and whether it achieved its goal."""

    scenario: str
    success: bool
    detail: str
    true_bids: list[int] | None = None
    recovered_bids: list[int] | None = None
    winner_bidder: int | None = None
    winner_price: int | None = None
    status: str | None = None
    error: str | None = None
    extras: dict = field(default_factory=dict)
    # The run's message board, for transcript export; never serialised.
    board: object | None = None

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "board"}


def dishonest_bidder(index: int, agent_cls, *args):
    """Agent factory for ``AuctionRun``: bidder ``index`` (1-based) is
    ``agent_cls(run, index, rng, *args)``, every other bidder is honest."""
    def factory(run, i, rng):
        if i == index:
            return agent_cls(run, i, rng, *args)
        return BidderAgent(run, i, rng)
    return factory


# --------------------------------------------------------------------------
# The affine relay against a single knowledge proof
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class AffineClaim:
    """Claim to the witness a*h + b*x, where x is someone else's secret."""

    h: int
    a: int
    b: int


def one_minus_x_claim() -> AffineClaim:
    """The classic special case: claim 1 - x for the target w = g / v."""
    return AffineClaim(h=1, a=1, b=-1)


class InteractiveProver:
    """A genuine prover as seen on the wire: commit once, respond once."""

    def __init__(self, params: GroupParams, stmt, witness: int,
                 rng: random.Random):
        self.session = sigma.ProverSession(params, stmt, witness)
        self.stmt = stmt
        self.rng = rng

    def commit(self) -> tuple[int, ...]:
        return self.session.commit(self.rng)

    def respond(self, challenge: int) -> int:
        return self.session.respond(challenge)


@dataclass(frozen=True)
class MitmResult:
    claim: AffineClaim
    claimed_value: int                      # w = g^(a*h) * v^b
    victor_transcript: sigma.Transcript
    peggy_transcript: sigma.Transcript


def mitm_affine_pdl(params: GroupParams, claim: AffineClaim,
                    peggy: InteractiveProver,
                    victor_source: sigma.ChallengeSource,
                    flags: defenses.DefenseFlags | None = None) -> MitmResult:
    """Relay Peggy's knowledge proof into an accepting proof of the affine
    claim.  Peggy's own run completes normally; she never learns that her
    messages served a second, transformed conversation."""
    if flags is not None and flags.ni_proofs:
        raise ModeMismatch("hashed challenges leave no verifier to relay")
    v = peggy.stmt.v
    q = params.q
    w = params.exp(params.g, claim.a * claim.h % q) * params.exp(v, claim.b) % params.p
    claimed_stmt = sigma.PDLStatement(g=params.g, v=w)

    (z,) = peggy.commit()
    y = params.exp(z, claim.b)
    c = victor_source(claimed_stmt, (y,)) % q
    s = peggy.respond(c)
    u = (c * claim.a * claim.h + claim.b * s) % q

    return MitmResult(
        claim=claim,
        claimed_value=w,
        victor_transcript=sigma.Transcript(commitment=(y,), challenge=c, response=u),
        peggy_transcript=sigma.Transcript(commitment=(z,), challenge=c, response=s),
    )


def reencrypt_bid_copy(params: GroupParams, ct: elgamal.Ciphertext, y: int,
                       x: int) -> elgamal.Ciphertext:
    """Fresh-looking ciphertext of the same plaintext: multiply in an
    encryption of 1 with randomiser x."""
    return elgamal.Ciphertext(
        alpha=ct.alpha * params.exp(y, x) % params.p,
        beta=ct.beta * params.exp(params.g, x) % params.p,
    )


# --------------------------------------------------------------------------
# Outcome-round masking removal and the forged equality proof
# --------------------------------------------------------------------------

def noise_removal_shares(run: AuctionRun, mallory_index: int,
                         exponent: int = 1):
    """Masking shares that cancel everyone else's: base^exponent divided by
    the product of the other bidders' posted shares.  The full products
    then come out as base^exponent, so each decrypted cell is the marker
    raised to exponent * (cell count)."""
    params, n, k = run.config.params, run.config.n, run.config.k
    posts = run.board.latest_by_author("outcome", "outcome")
    # A matrix of ones leads each product, so with n = 1 nothing is cancelled.
    ones = [[1] * k for _ in range(n)]
    gammas, deltas = [ones], [ones]
    for h in range(1, n + 1):
        if h == mallory_index:
            continue
        post = posts.get(bidder_name(h))
        if post is None:
            raise MissingShares(f"no outcome shares from {bidder_name(h)} yet")
        gammas.append(post.payload["gamma"])
        deltas.append(post.payload["delta"])
    others_g, others_d = cell_products(params, gammas), cell_products(params, deltas)
    bases = run.bases
    gamma = [[params.exp(ba, exponent) * params.inv(og) % params.p
              for (ba, _), og in zip(base_row, og_row)]
             for base_row, og_row in zip(bases, others_g)]
    delta = [[params.exp(bb, exponent) * params.inv(od) % params.p
              for (_, bb), od in zip(base_row, od_row)]
             for base_row, od_row in zip(bases, others_d)]
    return gamma, delta


def forge_outcome_eqdl(run: AuctionRun, mallory_name: str, i: int, j: int,
                       exponent: int,
                       victor_source: sigma.ChallengeSource) -> sigma.Transcript:
    """Accepting equality proof for a masking share whose exponent the
    prover does not know.

    The share's implicit witness is exponent minus the sum of the other
    bidders' cell exponents.  So: open a fresh session with every other
    bidder for their own share at this cell, fold the inverses of their
    commitments into ours, forward the verifier's challenge to all of them,
    and answer with c*exponent minus the sum of their responses."""
    if not run.config.interactive:
        raise ModeMismatch("forging needs a forwardable verifier challenge")
    params = run.config.params
    mine = int(mallory_name.split("-")[1]) - 1
    stmt = sigma.EQDLStatement(
        gens=run.bases[i][j],
        targets=(run.gammas[mine][i][j], run.deltas[mine][i][j]))

    others = [agent for name, agent in run.agents.items() if name != mallory_name]
    if not others:
        # Nobody to cancel: the share is base^exponent and the witness is
        # simply the exponent, so prove it straight.
        return sigma.prove(params, stmt, exponent,
                           run.agents[mallory_name].rng, victor_source)

    sessions = [o.open_outcome_session(i, j) for o in others]
    commitments = [s.commit(o.rng) for s, o in zip(sessions, others)]
    lam = mu = 1
    for cl, cm in commitments:
        lam = lam * params.inv(cl) % params.p
        mu = mu * params.inv(cm) % params.p

    c = victor_source(stmt, (lam, mu)) % params.q
    total = sum(s.respond(c) for s in sessions)
    response = (c * exponent - total) % params.q
    return sigma.Transcript(commitment=(lam, mu), challenge=c, response=response)


class NoiseRemovalBidder(BidderAgent):
    """Posts masking shares that cancel everyone else's, and forges the
    matching proofs by relaying the other bidders' sessions.  Under hashed
    proofs it has nothing to post and gets caught."""

    honest = False

    def __init__(self, run: AuctionRun, index: int, rng: random.Random,
                 exponent: int = 1):
        super().__init__(run, index, rng)
        self.exponent = exponent

    def post_outcome(self):
        gamma, delta = noise_removal_shares(self.run, self.index,
                                            self.exponent)
        payload = {"bidder": self.index, "gamma": gamma, "delta": delta,
                   "proofs": None}
        return self._post("outcome", "outcome", payload)

    def prove_outcome_cell(self, i, j, challenge_source):
        return forge_outcome_eqdl(self.run, self.name, i, j, self.exponent,
                                  challenge_source)


def recovered_bids_from_v(params: GroupParams, v, marker: int, exponent: int,
                          n: int, k: int) -> list[int]:
    """Seller-side recovery: each unmasked cell is marker^(exponent * count);
    read the counts off a power table of marker^exponent, then invert the
    outcome map."""
    step = params.exp(marker, exponent)
    image = [recovery.exponent_from_power(params, value, step, n)
             for row in v for value in row]
    return recovery.recover_bids(image, n, k).prices()


def recovered_bids_by_enumeration(params: GroupParams, config: AuctionConfig,
                                  v, exponent: int) -> list[int] | None:
    """Fallback for per-bidder markers: match the unmasked table against
    every possible bid constellation."""
    from itertools import product

    n, k = config.n, config.k
    matrix = recovery.build_matrix(n, k)
    for candidate in product(range(1, k + 1), repeat=n):
        flat = [bit for price in candidate for bit in encode_bid(price, k)]
        predicted = [[1] * k for _ in range(n)]
        for i in range(n):
            for j in range(k):
                for h in range(n):
                    # Bidder h's bids counted in cell (i, j) by the outcome map.
                    count = sum(matrix.entry(i * k + j, h * k + d) * flat[h * k + d]
                                for d in range(k))
                    predicted[i][j] = (predicted[i][j] *
                                      params.exp(config.marker_for(h + 1),
                                                 exponent * count)) % params.p
        if all(predicted[i][j] == v[i][j] for i in range(n) for j in range(k)):
            return list(candidate)
    return None


def full_privacy_attack(config: AuctionConfig, bids: list[int], seed: int,
                        exponent: int = 1,
                        mallory_index: int | None = None) -> AttackReport:
    """End-to-end bid disclosure: one bidder strips all outcome masking,
    forges the proofs, and the colluding seller reads every bid off the
    decrypted table."""
    mallory = mallory_index if mallory_index is not None else config.n
    order = [i for i in range(1, config.n + 1) if i != mallory] + [mallory]
    factory = dishonest_bidder(mallory, NoiseRemovalBidder, exponent)

    report = AttackReport(scenario="full-privacy-attack", success=False,
                          detail="", true_bids=list(bids),
                          extras={"mallory_index": mallory,
                                  "exponent": exponent})

    def attempt(attempt_seed):
        run = AuctionRun(config, bids, attempt_seed, agent_factory=factory,
                         outcome_order=order)
        report.board = run.board
        try:
            return run.run()
        except RestartRequired as exc:
            if "cancellation" not in exc.reason:
                raise         # chance base collapse: restart like anyone would
            report.detail = "product check caught the stripped masking"
            report.error = "RestartRequired"
            report.extras["detected"] = True
            report.extras["flagged_cells"] = [list(c) for c in exc.cells]
            return None

    try:
        outcome = with_restarts(attempt, seed, 200)
    except RestartRequired:
        report.detail = "no run survived the restart checks"
        return report
    except ProofRejected as exc:
        report.detail = f"honest agents rejected {exc.author} in round {exc.round_name}"
        report.error = "ProofRejected"
        return report
    if outcome is None:               # the product check caught the attack
        return report

    report.status = outcome.status
    report.winner_bidder = outcome.winner_bidder
    report.winner_price = outcome.winner_price
    if config.markers_per_bidder is not None:
        recovered = recovered_bids_by_enumeration(config.params, config,
                                                  outcome.v, exponent)
    else:
        recovered = recovered_bids_from_v(config.params, outcome.v,
                                          config.marker, exponent,
                                          config.n, config.k)
    report.recovered_bids = recovered
    want_winner = expected_winner(bids)
    report.success = (recovered == list(bids)
                      and (outcome.winner_bidder, outcome.winner_price) == want_winner)
    report.detail = ("every bid recovered from the seller's view"
                     if report.success else "recovery incomplete")
    return report


# --------------------------------------------------------------------------
# Impersonation
# --------------------------------------------------------------------------

class CopycatBidder(BidderAgent):
    """An identity run by the attacker: its own keys, but its bid is a copy
    of the target's (optionally re-randomised).  Interactive proof requests
    are relayed to the target, with responses shifted when re-randomised."""

    honest = False

    def __init__(self, run: AuctionRun, index: int, rng: random.Random,
                 target_index: int, rerandomize: bool = False):
        super().__init__(run, index, rng)
        self.target_index = target_index
        self.rerandomize = rerandomize
        self.shift: int | None = None

    def submit_bid(self, price: int):
        post = self.run.board.latest_by_author(ROUND_BID, "bid").get(
            bidder_name(self.target_index))
        if post is None:
            raise MissingShares("target has not posted a bid to copy")
        alphas = list(post.payload["alphas"])
        betas = list(post.payload["betas"])
        proofs = post.payload["proofs"]
        sum_proof = post.payload["sum_proof"]
        if self.rerandomize:
            self.shift = self.rng.randrange(1, self.params.q)
            copies = [reencrypt_bid_copy(self.params, elgamal.Ciphertext(a, b),
                                         self.run.joint_y, self.shift)
                      for a, b in zip(alphas, betas)]
            alphas = [ct.alpha for ct in copies]
            betas = [ct.beta for ct in copies]
            proofs = None          # static transcripts cannot be shifted
            sum_proof = None
        payload = {"bidder": self.index, "alphas": alphas, "betas": betas,
                   "proofs": proofs, "sum_proof": sum_proof}
        return self._post(ROUND_BID, "bid", payload)

    def prove_bid_cell(self, j, challenge_source):
        target = self.run.bidder(self.target_index)
        tr = target.prove_bid_cell(j, lambda stmt, com: challenge_source(None, com))
        if not self.rerandomize:
            return tr
        e = self.shift
        q = self.params.q
        shifted = tuple(
            sigma.Transcript(commitment=b.commitment, challenge=b.challenge,
                             response=(b.response + b.challenge * e) % q)
            for b in tr.branches
        )
        return sigma.OrTranscript(branches=shifted, challenge=tr.challenge)

    def prove_bid_sum(self, challenge_source):
        target = self.run.bidder(self.target_index)
        tr = target.prove_bid_sum(lambda stmt, com: challenge_source(None, com))
        if not self.rerandomize:
            return tr
        bump = self.config.k * self.shift % self.params.q
        return sigma.Transcript(
            commitment=tr.commitment, challenge=tr.challenge,
            response=(tr.response + tr.challenge * bump) % self.params.q)


def impersonation_attack(config: AuctionConfig, target_bid: int, seed: int,
                         rerandomize: bool = False) -> AttackReport:
    """Fake auction around one real bidder.  The attacker runs every other
    identity, replays the target's encrypted bid as theirs, and completes
    the protocol; the winning price is the target's secret bid.

    With authentication on, the forged bid posts carry no valid tags and
    the honest side rejects them in the bid round.
    """
    report = AttackReport(scenario="impersonation", success=False, detail="",
                          true_bids=[target_bid],
                          extras={"target_index": 1,
                                  "rerandomize": rerandomize})

    if config.flags.authenticate:
        # Keys are anchored, so the fake identities cannot even share a
        # board with the target: run keygen with everyone genuine, then try
        # to slip copied bids in under the other names.
        run = AuctionRun(config, [target_bid] * config.n, seed)
        report.board = run.board
        run.step_keygen()
        run.bidder(1).submit_bid(target_bid)
        target_post = run.board.latest_by_author(ROUND_BID, "bid")[bidder_name(1)]
        for index in range(2, config.n + 1):
            payload = dict(target_post.payload)
            payload["bidder"] = index
            run.board.append(ROUND_BID, bidder_name(index), "bid", payload,
                             auth=None)
        try:
            run._check_auth(ROUND_BID)
        except AuthRejected as exc:
            report.error = "AuthRejected"
            report.detail = (f"forged post as {exc.author} rejected in the "
                             f"{exc.round_name} round")
            report.extras["rejected_round"] = exc.round_name
            return report
        report.detail = "forged posts passed tag checks; defense inert"
        return report

    def factory(run, index, rng):
        if index == 1:
            return BidderAgent(run, index, rng)
        return CopycatBidder(run, index, rng, target_index=1,
                             rerandomize=rerandomize)

    def attempt(attempt_seed):
        run = AuctionRun(config, [target_bid] * config.n, attempt_seed,
                         agent_factory=factory)
        report.board = run.board
        outcome = run.run()
        if outcome.status == "multiple-ones":
            raise RestartRequired("no decisive outcome", outcome.ones)
        return outcome

    try:
        outcome = with_restarts(attempt, seed, 50)
    except RestartRequired:
        report.detail = "no decisive outcome"
        return report
    except ProofRejected as exc:
        report.error = "ProofRejected"
        report.detail = str(exc)
        report.extras["rejected_round"] = exc.round_name
        return report
    report.status = outcome.status
    report.winner_bidder = outcome.winner_bidder
    report.winner_price = outcome.winner_price
    report.recovered_bids = ([outcome.winner_price]
                             if outcome.winner_price is not None else None)
    report.success = outcome.winner_price == target_bid
    report.detail = ("winning price equals the target's secret bid"
                     if report.success else "price did not match")
    return report


# --------------------------------------------------------------------------
# Exponent games in the outcome and decryption rounds
# --------------------------------------------------------------------------

class ZeroNoiseColluder(BidderAgent):
    """Sets its own cell exponent to cancel the others' sum at one chosen
    cell, making that losing cell decrypt to 1.  All proofs stay honest."""

    honest = False

    def __init__(self, run: AuctionRun, index: int, rng: random.Random,
                 cell: tuple[int, int]):
        super().__init__(run, index, rng)
        self.cell = cell              # 1-based

    def post_outcome(self):
        i, j = self.cell[0] - 1, self.cell[1] - 1
        total = 0
        for name, agent in self.run.agents.items():
            if name != self.name:
                total += agent.m[i][j]
        self.m[i][j] = (-total) % self.params.q
        return super().post_outcome()


def force_zero_noise(config: AuctionConfig, bids: list[int],
                     cell: tuple[int, int], seed: int) -> AttackReport:
    """Make a chosen losing cell read as a win.  Without the product check
    the seller faces two 1 cells and cannot decide; with it the collapsed
    cell is redrawn and the true result survives."""
    matrix = recovery.build_matrix(config.n, config.k)
    flat = [bit for price in bids for bit in encode_bid(price, config.k)]
    image = recovery.apply_f(matrix, flat)
    ci, cj = cell
    if image[(ci - 1) * config.k + (cj - 1)] == 0:
        raise ValueError(f"cell {cell} is the winning cell; pick a losing one")

    colluder = config.n
    order = [i for i in range(1, config.n + 1) if i != colluder] + [colluder]
    factory = dishonest_bidder(colluder, ZeroNoiseColluder, cell)

    report = AttackReport(scenario="exceptional-values", success=False,
                          detail="", true_bids=list(bids),
                          extras={"cell": list(cell),
                                  "colluder_index": colluder})

    def attempt(attempt_seed):
        run = AuctionRun(config, bids, attempt_seed, agent_factory=factory,
                         outcome_order=order)
        report.board = run.board
        return run, run.run()

    try:
        run, outcome = with_restarts(attempt, seed, 200)
    except RestartRequired:
        report.detail = "no run survived the restart checks"
        return report

    report.status = outcome.status
    report.winner_bidder = outcome.winner_bidder
    report.winner_price = outcome.winner_price
    report.extras["v_at_cell"] = outcome.v[ci - 1][cj - 1]
    report.extras["ones"] = [list(c) for c in outcome.ones]
    target_agent = run.bidder(ci)
    if outcome.status != "no-winner" and target_agent.phi is not None:
        try:
            row = target_agent.own_row_values()
            report.extras["forced_row_view"] = row
            report.extras["row_bidder_thinks_won"] = row[cj - 1] == 1
        except MissingShares:
            pass
    report.success = (outcome.v[ci - 1][cj - 1] == 1
                      and outcome.status != "winner")
    if report.success:
        report.detail = "forced cell reads 1; result is undecidable"
    elif outcome.status == "winner":
        want = expected_winner(bids)
        correct = (outcome.winner_bidder, outcome.winner_price) == want
        report.detail = ("redraw removed the forced cell; correct winner stands"
                         if correct else "unique but wrong winner")
        report.extras["winner_correct"] = correct
    else:
        report.detail = "attack did not bite"
    return report


class WrongKeyBidder(BidderAgent):
    """Decrypts every cell with a consistently shifted exponent.  The
    same-exponent proof still verifies; only a proof that also binds the
    keygen share exposes the switch."""

    honest = False

    def __init__(self, run: AuctionRun, index: int, rng: random.Random,
                 offset: int = 1):
        super().__init__(run, index, rng)
        self.offset = offset

    def decrypt_exponent(self) -> int:
        return (self.share.x + self.offset) % self.params.q


def wrong_key_decrypt(config: AuctionConfig, bids: list[int], seed: int,
                      offset: int = 1,
                      cheater_index: int | None = None) -> AttackReport:
    """One bidder decrypts with the wrong key.  Every cell comes out
    garbage, nobody sees a 1, and the auction dies with no winner, with
    no proof pointing at anyone unless key consistency is on."""
    cheater = cheater_index if cheater_index is not None else config.n
    factory = dishonest_bidder(cheater, WrongKeyBidder, offset)

    report = AttackReport(scenario="wrong-key", success=False, detail="",
                          true_bids=list(bids),
                          extras={"cheater_index": cheater, "offset": offset})
    run = AuctionRun(config, bids, seed, agent_factory=factory)
    report.board = run.board
    try:
        outcome = run.run()
    except ProofRejected as exc:
        report.error = "ProofRejected"
        report.detail = (f"decrypt share by {exc.author} rejected: the proof "
                         "must bind the keygen share")
        return report
    except RestartRequired as exc:
        report.error = "RestartRequired"
        report.detail = "stopped before decryption: " + exc.reason
        return report

    report.status = outcome.status
    report.winner_bidder = outcome.winner_bidder
    report.winner_price = outcome.winner_price
    report.success = outcome.status == "no-winner"
    report.detail = ("no cell decrypted to 1; outcome undecidable"
                     if report.success
                     else f"run ended as {outcome.status} despite the bad key")
    return report
