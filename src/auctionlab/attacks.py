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

``attack_runs`` is the one restart loop of the attack runs, and the one
place that tells a chance restart from the product check's detection.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, fields
from operator import methodcaller

from . import defenses, elgamal, recovery, sigma
from .errors import (
    AuthRejected,
    InconsistentExponents,
    MissingShares,
    ModeMismatch,
    NotAPower,
    ProofRejected,
    RestartRequired,
)
from .groups import GroupParams

# Attack code reads what the run kept when each round closed (the base grid
# AuctionRun.bases and the masking statements AuctionRun.outcome_statements),
# and reads the board only while a round is still open.  A dishonest agent
# answers a verifier through the one BidderAgent.prove it overrides: it
# relays or forges the statements it posted without a witness, and hands
# every other statement to the honest prover.  compute_outcome_bases is not
# called here; the benchmark harness's tracer tests rebind and restore it
# under this module's name.
from .protocol import (
    NOISE_CANCELLED,
    ROUND_BID,
    AuctionConfig,
    AuctionRun,
    BidderAgent,
    bid_statements,
    bidder_name,
    cell_products,
    compute_outcome_bases,
    decisive,
    expected_winner,
    with_restarts,
)


@dataclass
class AttackReport:
    """What an attack run did and whether it achieved its goal; a report
    starts unsuccessful, with no detail."""

    scenario: str
    success: bool = False
    detail: str = ""
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

    def record(self, outcome) -> None:
        """Keep the run's status and declared winner."""
        self.status = outcome.status
        self.winner_bidder = outcome.winner_bidder
        self.winner_price = outcome.winner_price


def dishonest_bidder(index: int, agent_cls, *args):
    """Agent factory for ``AuctionRun``: bidder ``index`` (1-based) is
    ``agent_cls(run, index, rng, *args)``, every other bidder is honest."""
    def factory(run, i, rng):
        if i == index:
            return agent_cls(run, i, rng, *args)
        return BidderAgent(run, i, rng)
    return factory


def attack_runs(report: AttackReport, config: AuctionConfig, bids: list[int],
                seed: int, factory, steps=methodcaller("run")):
    """``(run, steps(run))`` for a fresh ``AuctionRun`` per seed under
    ``with_restarts``, each attempt's board kept on ``report.board``;
    ``steps`` defaults to ``run.run()``.  A NOISE_CANCELLED restart of a
    run with a NoiseRemovalBidder is the product check's detection: it is
    recorded on the report and the run comes back with None.  Any other
    restart is chance."""
    def fresh_run(attempt_seed):
        run = AuctionRun(config, bids, attempt_seed, agent_factory=factory)
        report.board = run.board
        try:
            return run, steps(run)
        except RestartRequired as exc:
            stripped = any(isinstance(agent, NoiseRemovalBidder)
                           for agent in run.agents.values())
            if exc.reason != NOISE_CANCELLED or not stripped:
                raise
            report.detail = "product check caught the stripped masking"
            report.error = "RestartRequired"
            report.extras["detected"] = True
            report.extras["flagged_cells"] = [list(c) for c in exc.cells]
            return run, None

    return with_restarts(fresh_run, seed)


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


@dataclass(frozen=True)
class MitmResult:
    claim: AffineClaim
    claimed_value: int                      # w = g^(a*h) * v^b
    victor_transcript: sigma.Transcript
    peggy_transcript: sigma.Transcript


def mitm_affine_pdl(params: GroupParams, claim: AffineClaim,
                    peggy: sigma.ProverSession,
                    victor_source: sigma.ChallengeSource,
                    flags: defenses.DefenseFlags | None = None) -> MitmResult:
    """Relay Peggy's knowledge proof, a live session as seen on the wire,
    into an accepting proof of the affine claim.  Peggy's own run completes
    normally; she never learns that her messages served a second,
    transformed conversation."""
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
    return elgamal.ct_mul(params, ct, elgamal.encrypt(params, 1, y, x))


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
    others = [{"gamma": ones, "delta": ones}]
    for h in range(1, n + 1):
        if h == mallory_index:
            continue
        post = posts.get(bidder_name(h))
        if post is None:
            raise MissingShares(f"no outcome shares from {bidder_name(h)} yet")
        others.append(post.payload)

    def stripped(side, key):
        products = cell_products(params, [payload[key] for payload in others])
        return [[params.exp(base[side], exponent) * params.inv(o) % params.p
                 for base, o in zip(base_row, o_row)]
                for base_row, o_row in zip(run.bases, products)]

    return stripped(0, "gamma"), stripped(1, "delta")


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
    stmt = run.outcome_statements[run.agents[mallory_name].index - 1][i][j]

    others = [agent for name, agent in run.agents.items() if name != mallory_name]
    if not others:
        # Nobody to cancel: the share is base^exponent and the witness is
        # simply the exponent, so prove it straight.
        return sigma.prove(params, stmt, exponent,
                           run.agents[mallory_name].rng, victor_source)

    sessions = [sigma.ProverSession(params, run.outcome_statements[o.index - 1][i][j],
                                    o.m[i][j], o.rng)
                for o in others]
    commitments = [s.commit() for s in sessions]
    lam, mu = (params.inv(params.mul(*column)) for column in zip(*commitments))

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
        self.forged: dict = {}               # posted statement -> its cell

    def post_outcome(self):
        gamma, delta = noise_removal_shares(self.run, self.index,
                                            self.exponent)
        bases = self.run.bases
        self.forged = {
            sigma.EQDLStatement(gens=bases[i][j], targets=(g, d)): (i, j)
            for i, (g_row, d_row) in enumerate(zip(gamma, delta))
            for j, (g, d) in enumerate(zip(g_row, d_row))}
        payload = {"bidder": self.index, "gamma": gamma, "delta": delta,
                   "proofs": None}
        return self._post("outcome", "outcome", payload)

    def prove(self, stmts, challenge_source):
        """Forge a session for each posted share of ``stmts``, in order,
        and hand every other statement to the honest prover (a redrawn
        share, under the product check, has its witness)."""
        out = []
        for stmt in stmts:
            cell = self.forged.get(stmt)
            out.extend(super().prove([stmt], challenge_source) if cell is None else
                       [forge_outcome_eqdl(self.run, self.name, *cell, self.exponent,
                                           challenge_source)])
        return out


def recovered_bids_from_v(params: GroupParams, v, marker: int, exponent: int,
                          n: int, k: int) -> list[int] | None:
    """Seller-side recovery with one shared marker: each unmasked cell is
    marker^(exponent * count); read the counts off a power table of
    marker^exponent, then invert the outcome map over the integers.  None
    when the table is the image of no bid vector."""
    step = params.exp(marker, exponent)
    try:
        image = [recovery.exponent_from_power(params, value, step, n)
                 for row in v for value in row]
        return recovery.recover_bids(image, n, k).prices()
    except (NotAPower, InconsistentExponents):
        return None


def full_privacy_attack(config: AuctionConfig, bids: list[int], seed: int,
                        exponent: int = 1) -> AttackReport:
    """End-to-end bid disclosure: the last bidder strips all outcome
    masking, forges the proofs, and the colluding seller reads every bid off
    the decrypted table, whether the bidders share one marker or each has
    their own."""
    mallory = config.n
    factory = dishonest_bidder(mallory, NoiseRemovalBidder, exponent)

    report = AttackReport(scenario="full-privacy-attack", true_bids=list(bids),
                          extras={"mallory_index": mallory,
                                  "exponent": exponent})

    try:
        _, outcome = attack_runs(report, config, bids, seed, factory)
    except RestartRequired:
        report.detail = "no run survived the restart checks"
        return report
    except ProofRejected as exc:
        report.detail = f"honest agents rejected {exc.author} in round {exc.round_name}"
        report.error = "ProofRejected"
        return report
    if outcome is None:               # the product check caught the attack
        return report

    report.record(outcome)
    params = config.params
    if config.markers_per_bidder is not None:
        steps = [params.exp(marker, exponent) for marker in config.markers_per_bidder]
        recovered = recovery.invert_outcome_map(outcome.v, steps, params.mul, 1)
    else:
        recovered = recovered_bids_from_v(params, outcome.v, config.marker,
                                          exponent, config.n, config.k)
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
    of bidder ``target_index``'s, re-randomised when asked.  The copy is
    posted without a tag: the attacker holds no tag key for the name it
    copies into.  A request to prove a copied statement is relayed to the
    target as a request for the statement it copies, with responses shifted
    when re-randomised."""

    honest = False
    target_index = 1

    def __init__(self, run: AuctionRun, index: int, rng: random.Random,
                 rerandomize: bool):
        super().__init__(run, index, rng)
        self.rerandomize = rerandomize
        self.shift: int | None = None
        self.copied: dict = {}               # copy's statement -> target's

    def submit_bid(self, price: int):
        post = self.run.board.latest_by_author(ROUND_BID, "bid").get(
            bidder_name(self.target_index))
        if post is None:
            raise MissingShares("target has not posted a bid to copy")
        params, y, bid = self.params, self.run.joint_y, post.payload
        alphas, betas = list(bid["alphas"]), list(bid["betas"])
        proofs, sum_proof = bid["proofs"], bid["sum_proof"]
        cells, total = bid_statements(
            params, y, self.config.marker_for(self.target_index), alphas, betas)
        if self.rerandomize:
            self.shift = self.rng.randrange(1, params.q)
            copies = [reencrypt_bid_copy(params, elgamal.Ciphertext(a, b), y, self.shift)
                      for a, b in zip(alphas, betas)]
            alphas = [ct.alpha for ct in copies]
            betas = [ct.beta for ct in copies]
            proofs = sum_proof = None      # static transcripts cannot be shifted
        copy_cells, copy_total = bid_statements(
            params, y, self.config.marker_for(self.index), alphas, betas)
        self.copied = dict(zip((*copy_cells, copy_total), (*cells, total)))
        payload = {"bidder": self.index, "alphas": alphas, "betas": betas,
                   "proofs": proofs, "sum_proof": sum_proof}
        return self.run.board.append(ROUND_BID, self.name, "bid", payload)

    def prove(self, stmts, challenge_source):
        """Relay a list of copied statements to the target, and hand any
        other list to the honest prover: a round's entries are all copies
        (the bid round) or all the copycat's own."""
        originals = [self.copied.get(stmt) for stmt in stmts]
        if None in originals:
            return super().prove(stmts, challenge_source)
        target = self.run.bidder(self.target_index)
        transcripts = target.prove(originals, lambda _, com: challenge_source(None, com))
        if not self.rerandomize:
            return transcripts
        return [self._shifted(tr) for tr in transcripts]

    def _shifted(self, tr):
        """The target's transcript answering for the re-randomised copy."""
        q = self.params.q
        if isinstance(tr, sigma.OrTranscript):     # a cell: shifted by one copy
            return tr._replace(branches=tuple(_shifted(b, self.shift, q)
                                              for b in tr.branches))
        return _shifted(tr, self.config.k * self.shift, q)   # the sum of k copies


def _shifted(tr: sigma.Transcript, e: int, q: int) -> sigma.Transcript:
    """``tr`` answering for a witness larger by ``e``."""
    return tr._replace(response=(tr.response + tr.challenge * e) % q)


def impersonation_attack(config: AuctionConfig, target_bid: int, seed: int,
                         rerandomize: bool = False) -> AttackReport:
    """Fake auction around one real bidder.  The attacker runs every other
    identity, replays the target's encrypted bid as theirs, and completes
    the protocol; the winning price is the target's secret bid.

    With authentication on, the copied bid posts carry no tags and the
    honest side rejects them in the bid round.
    """
    target = CopycatBidder.target_index
    report = AttackReport(scenario="impersonation", true_bids=[target_bid],
                          extras={"target_index": target,
                                  "rerandomize": rerandomize})

    def factory(run, index, rng):
        if index == target:
            return BidderAgent(run, index, rng)
        return CopycatBidder(run, index, rng, rerandomize)

    try:
        _, outcome = attack_runs(report, config, [target_bid] * config.n, seed,
                                 factory, steps=decisive)
    except RestartRequired:
        report.detail = "no decisive outcome"
        return report
    except (AuthRejected, ProofRejected) as exc:
        report.error = type(exc).__name__
        report.detail = (str(exc) if isinstance(exc, ProofRejected) else
                         f"forged post as {exc.author} rejected in the "
                         f"{exc.round_name} round")
        report.extras["rejected_round"] = exc.round_name
        return report
    report.record(outcome)
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
    ci, cj = cell
    if not (1 <= ci <= config.n and 1 <= cj <= config.k):
        raise ValueError(f"cell {cell} outside 1..{config.n} x 1..{config.k}")
    if (ci, cj) == expected_winner(bids):
        raise ValueError(f"cell {cell} is the winning cell; pick a losing one")

    colluder = config.n
    factory = dishonest_bidder(colluder, ZeroNoiseColluder, cell)

    report = AttackReport(scenario="exceptional-values", true_bids=list(bids),
                          extras={"cell": list(cell),
                                  "colluder_index": colluder})

    try:
        run, outcome = attack_runs(report, config, bids, seed, factory)
    except RestartRequired:
        report.detail = "no run survived the restart checks"
        return report

    report.record(outcome)
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
    """Decrypts every cell with its key share shifted by ``offset``.  The
    same-exponent proof still verifies; only a proof that also binds the
    keygen share exposes the switch."""

    honest = False
    offset = 1

    def decrypt_exponent(self) -> int:
        return (self.share.x + self.offset) % self.params.q


def wrong_key_decrypt(config: AuctionConfig, bids: list[int],
                      seed: int) -> AttackReport:
    """The last bidder decrypts with the wrong key.  Every cell comes out
    garbage, nobody sees a 1, and the auction dies with no winner, with
    no proof pointing at anyone unless key consistency is on.  A chance
    restart before decryption starts the next run (``attack_runs``)."""
    cheater = config.n
    factory = dishonest_bidder(cheater, WrongKeyBidder)

    report = AttackReport(scenario="wrong-key", true_bids=list(bids),
                          extras={"cheater_index": cheater,
                                  "offset": WrongKeyBidder.offset})
    try:
        _, outcome = attack_runs(report, config, bids, seed, factory)
    except ProofRejected as exc:
        report.error = "ProofRejected"
        report.detail = (f"decrypt share by {exc.author} rejected: the proof "
                         "must bind the keygen share")
        return report
    except RestartRequired as exc:
        report.error = "RestartRequired"
        report.detail = "no run survived the restart checks: " + exc.reason
        return report

    report.record(outcome)
    report.success = outcome.status == "no-winner"
    report.detail = ("no cell decrypted to 1; outcome undecidable"
                     if report.success
                     else f"run ended as {outcome.status} despite the bad key")
    return report
