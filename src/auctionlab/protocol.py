"""The five-round fully private first-price auction.

Rounds, all driven through the bulletin board:

1. keygen   - every bidder posts a public key share with a knowledge proof,
              and privately draws the outcome exponents and bid randomisers
              it will spend later.
2. bid      - every bidder posts k ciphertexts, one per price: the marker at
              the price it bids, 1 elsewhere, with validity and sum proofs.
3. outcome  - every bidder raises the published cell bases to its private
              outcome exponents and posts the resulting masking shares with
              equality proofs.  The n x k grid of cell bases is built from
              the posted bids in O(nk) products, once per bid state, and
              every reader of the run shares it (``AuctionRun.outcome_bases``).
4. decrypt  - every bidder sends its decryption share for every cell to the
              seller with a proof; the seller withholds publication until
              all have arrived, then posts each bidder's shares for all rows
              other than the bidder's own.
5. result   - the seller divides masked products by decryption products; a
              cell that lands on 1 names the winner and the price.

Honest agents verify every proof they see.  In hashed-proof mode they check
static transcripts; in interactive mode they engage the poster in a fresh
commit/challenge/respond session.  Attack code must get past these checks,
never around them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from . import defenses, elgamal, sigma
from .board import BulletinBoard, Post
from .errors import (
    AuthRejected,
    MissingShares,
    ModeMismatch,
    PriceOutOfRange,
    ProofRejected,
    RestartRequired,
)
from .groups import SMALL_GROUP, GroupParams

ROUND_KEYGEN = "keygen"
ROUND_BID = "bid"
ROUND_OUTCOME = "outcome"
ROUND_DECRYPT = "decrypt"
ROUND_RESULT = "result"

SELLER = "seller"


def bidder_name(index: int) -> str:
    """1-based bidder index to board author name."""
    return f"bidder-{index}"


@dataclass(frozen=True)
class AuctionConfig:
    """Static run parameters: group, sizes, price marker, defense flags."""

    n: int
    k: int
    params: GroupParams = SMALL_GROUP
    marker: int = 4
    flags: defenses.DefenseFlags = field(default_factory=defenses.DefenseFlags)
    markers_per_bidder: tuple[int, ...] | None = None

    @property
    def interactive(self) -> bool:
        return not self.flags.ni_proofs

    def marker_for(self, index: int) -> int:
        """Price marker for a 1-based bidder index."""
        if self.markers_per_bidder is not None:
            return self.markers_per_bidder[index - 1]
        return self.marker

    def validate(self) -> None:
        if self.n < 1 or self.k < 1:
            raise ValueError("need n >= 1 bidders and k >= 1 prices")
        if self.n >= self.params.q:
            raise ValueError("bidder count must stay below the subgroup order")
        markers = self.markers_per_bidder or (self.marker,)
        if self.markers_per_bidder is not None and len(markers) != self.n:
            raise ValueError("need one marker per bidder")
        for m in markers:
            if m == 1 or not self.params.is_element(m):
                raise ValueError(f"marker {m} must be a subgroup element other than 1")


def encode_bid(price: int, k: int) -> list[int]:
    """One-hot 0/1 vector of length k with the 1 at the chosen price."""
    if not 1 <= price <= k:
        raise PriceOutOfRange(f"price {price} outside 1..{k}")
    out = [0] * k
    out[price - 1] = 1
    return out


def compute_outcome_bases(params: GroupParams, alphas, betas):
    """Every cell's base pair, as an n x k grid (0-based) of
    ``(alpha_base, beta_base)``.

    Cell (i, j) takes the product of all bids at higher prices, bidder i's
    bids at lower prices, and earlier bidders' bids at price j, over the
    alpha and beta components separately.  The grid comes from one suffix
    product over the column totals, one running prefix along each bidder's
    row and one running prefix down each price column: O(nk) products for
    all n*k cells, the multiplicative twin of ``recovery.apply_f``'s
    ``above``, ``own_below`` and ``ranked_before``."""
    p = params.p
    n, k = len(alphas), len(alphas[0])
    # above[j]: every bid at prices j+1..k-1, alpha and beta.
    above_a, above_b = [1] * k, [1] * k
    for j in range(k - 1, 0, -1):
        ca, cb = above_a[j], above_b[j]
        for h in range(n):
            ca = ca * alphas[h][j] % p
            cb = cb * betas[h][j] % p
        above_a[j - 1], above_b[j - 1] = ca, cb
    # ranked_before[j]: bidders 0..i-1 at price j, grown row by row.
    before_a, before_b = [1] * k, [1] * k
    grid = []
    for i in range(n):
        row_a, row_b = alphas[i], betas[i]
        own_a = own_b = 1                  # bidder i at prices 0..j-1
        row = []
        for j in range(k):
            row.append((above_a[j] * own_a % p * before_a[j] % p,
                        above_b[j] * own_b % p * before_b[j] % p))
            own_a = own_a * row_a[j] % p
            own_b = own_b * row_b[j] % p
            before_a[j] = before_a[j] * row_a[j] % p
            before_b[j] = before_b[j] * row_b[j] % p
        grid.append(row)
    return grid


def base_is_structurally_empty(n: int, k: int, i: int, j: int) -> bool:
    """True when cell (i, j) has no factors at all (only (1,1) with k=1),
    so its base is the empty product 1 by construction, not by accident."""
    return i == 0 and j == 0 and k == 1


# --------------------------------------------------------------------------
# Board readers
# --------------------------------------------------------------------------

def collect_keyshares(board: BulletinBoard, n: int) -> list[int]:
    posts = board.latest_by_author(ROUND_KEYGEN, "keyshare")
    out = []
    for i in range(1, n + 1):
        post = posts.get(bidder_name(i))
        if post is None:
            raise MissingShares(f"no key share from {bidder_name(i)}")
        out.append(post.payload["y"])
    return out


def collect_bids(board: BulletinBoard, n: int):
    posts = board.latest_by_author(ROUND_BID, "bid")
    alphas, betas = [], []
    for i in range(1, n + 1):
        post = posts.get(bidder_name(i))
        if post is None:
            raise MissingShares(f"no bid from {bidder_name(i)}")
        alphas.append(list(post.payload["alphas"]))
        betas.append(list(post.payload["betas"]))
    return alphas, betas


def collect_outcome(board: BulletinBoard, n: int):
    """Masking share matrices per bidder, with later fix posts merged in."""
    gammas: dict[str, list[list[int]]] = {}
    deltas: dict[str, list[list[int]]] = {}
    for post in board.select(round=ROUND_OUTCOME):
        if post.kind == "outcome":
            gammas[post.author] = [list(row) for row in post.payload["gamma"]]
            deltas[post.author] = [list(row) for row in post.payload["delta"]]
        elif post.kind == "outcome-fix":
            g = gammas.get(post.author)
            d = deltas.get(post.author)
            if g is None or d is None:
                raise MissingShares(f"fix before outcome from {post.author}")
            for (ci, cj), gv, dv in zip(post.payload["cells"],
                                        post.payload["gamma"],
                                        post.payload["delta"]):
                g[ci - 1][cj - 1] = gv
                d[ci - 1][cj - 1] = dv
    out_g, out_d = [], []
    for i in range(1, n + 1):
        name = bidder_name(i)
        if name not in gammas:
            raise MissingShares(f"no outcome shares from {name}")
        out_g.append(gammas[name])
        out_d.append(deltas[name])
    return out_g, out_d


# --------------------------------------------------------------------------
# Agents
# --------------------------------------------------------------------------

class BidderAgent:
    """An honest bidder.  Holds the private key share, the outcome
    exponents, the bid randomisers, and answers proof requests."""

    honest = True

    def __init__(self, run: "AuctionRun", index: int, rng: random.Random):
        self.run = run
        self.index = index                     # 1-based
        self.name = bidder_name(index)
        self.rng = rng
        self.config = run.config
        self.params = run.config.params
        self.share: elgamal.KeyShare | None = None
        self.m: list[list[int]] | None = None  # outcome exponents, n x k
        self.r: list[int] | None = None        # bid randomisers, length k
        self.price: int | None = None
        self.joint_y: int | None = None
        self.phi: list[list[int]] | None = None
        self.auth_key: bytes | None = None

    # -- posting ----------------------------------------------------------

    def _post(self, round_name: str, kind: str, payload: dict) -> Post:
        auth = None
        if self.config.flags.authenticate:
            auth = defenses.authenticate_post(
                self.auth_key, round_name, self.name, kind, payload)
        return self.run.board.append(round_name, self.name, kind, payload, auth)

    def keygen(self) -> Post:
        """Draw the key share plus all later private randomness, then post
        the public share (with a knowledge proof in hashed mode)."""
        params, q = self.params, self.params.q
        self.share = elgamal.gen_keyshare(params, self.rng)
        n, k = self.config.n, self.config.k
        self.m = [[self.rng.randrange(1, q) for _ in range(k)] for _ in range(n)]
        self.r = [self.rng.randrange(q) for _ in range(k)]
        payload = {"bidder": self.index, "y": self.share.y, "proof": None}
        if not self.config.interactive:
            stmt = sigma.PDLStatement(g=params.g, v=self.share.y)
            tr = sigma.prove_pdl(params, stmt, self.share.x, self.rng,
                                 sigma.fiat_shamir_source(params))
            payload["proof"] = sigma.transcript_to_payload(tr)
        return self._post(ROUND_KEYGEN, "keyshare", payload)

    def learn_joint_key(self) -> None:
        shares = collect_keyshares(self.run.board, self.config.n)
        self.joint_y = elgamal.aggregate_keys(self.params, shares).y

    def submit_bid(self, price: int) -> Post:
        self.price = price
        bits = encode_bid(price, self.config.k)
        params = self.params
        marker = self.config.marker_for(self.index)
        alphas, betas, proofs = [], [], []
        for j, bit in enumerate(bits):
            ct = sigma.make_bid_ciphertext(params, self.joint_y, marker,
                                           bool(bit), self.r[j])
            alphas.append(ct.alpha)
            betas.append(ct.beta)
        payload = {"bidder": self.index, "alphas": alphas, "betas": betas,
                   "proofs": None, "sum_proof": None}
        if not self.config.interactive:
            fs = sigma.fiat_shamir_source(params)
            for j, bit in enumerate(bits):
                stmt = sigma.BidValidityStatement(
                    y=self.joint_y, g=params.g, marker=marker,
                    alpha=alphas[j], beta=betas[j])
                tr = sigma.bid_validity_prove(params, stmt, self.r[j],
                                              bool(bit), self.rng, fs)
                proofs.append(sigma.transcript_to_payload(tr))
            sum_stmt = sigma.SumValidityStatement(
                y=self.joint_y, g=params.g, marker=marker,
                alphas=tuple(alphas), betas=tuple(betas))
            sum_tr = sigma.sum_validity_prove(params, sum_stmt,
                                              sum(self.r) % params.q,
                                              self.rng, fs)
            payload["proofs"] = proofs
            payload["sum_proof"] = sigma.transcript_to_payload(sum_tr)
        return self._post(ROUND_BID, "bid", payload)

    # -- outcome ----------------------------------------------------------

    def outcome_shares(self):
        """(gamma, delta) matrices from the current board and own exponents."""
        params = self.params
        n, k = self.config.n, self.config.k
        bases = self.run.outcome_bases()
        gamma = [[0] * k for _ in range(n)]
        delta = [[0] * k for _ in range(n)]
        for i in range(n):
            for j in range(k):
                ba, bb = bases[i][j]
                gamma[i][j] = params.exp(ba, self.m[i][j])
                delta[i][j] = params.exp(bb, self.m[i][j])
        return gamma, delta

    def post_outcome(self) -> Post:
        gamma, delta = self.outcome_shares()
        payload = {"bidder": self.index, "gamma": gamma, "delta": delta,
                   "proofs": None}
        if not self.config.interactive:
            payload["proofs"] = self._outcome_proof_payloads(gamma, delta)
        return self._post(ROUND_OUTCOME, "outcome", payload)

    def _outcome_proof_payloads(self, gamma, delta):
        params = self.params
        n, k = self.config.n, self.config.k
        bases = self.run.outcome_bases()
        fs = sigma.fiat_shamir_source(params)
        rows = []
        for i in range(n):
            row = []
            for j in range(k):
                ba, bb = bases[i][j]
                stmt = sigma.EQDLStatement(gens=(ba, bb),
                                           targets=(gamma[i][j], delta[i][j]))
                tr = sigma.eqdl_run(params, stmt, self.m[i][j], self.rng, fs)
                row.append(sigma.transcript_to_payload(tr))
            rows.append(row)
        return rows

    def redraw_exponents(self, cells) -> Post:
        """Replace the outcome exponents at the flagged cells (1-based) and
        post corrected shares."""
        params = self.params
        bases = self.run.outcome_bases()
        new_g, new_d, proofs = [], [], []
        for ci, cj in cells:
            i, j = ci - 1, cj - 1
            self.m[i][j] = self.rng.randrange(1, params.q)
            ba, bb = bases[i][j]
            gv = params.exp(ba, self.m[i][j])
            dv = params.exp(bb, self.m[i][j])
            new_g.append(gv)
            new_d.append(dv)
            if not self.config.interactive:
                stmt = sigma.EQDLStatement(gens=(ba, bb), targets=(gv, dv))
                tr = sigma.eqdl_run(params, stmt, self.m[i][j], self.rng,
                                    sigma.fiat_shamir_source(params))
                proofs.append(sigma.transcript_to_payload(tr))
        payload = {"bidder": self.index, "cells": [list(c) for c in cells],
                   "gamma": new_g, "delta": new_d,
                   "proofs": proofs if not self.config.interactive else None}
        return self._post(ROUND_OUTCOME, "outcome-fix", payload)

    # -- decryption -------------------------------------------------------

    def decrypt_exponent(self) -> int:
        """The exponent this bidder applies to the delta products.  Honest
        bidders use their key share; subclasses may misbehave here."""
        return self.share.x

    def compute_decrypt_shares(self):
        params = self.params
        n, k = self.config.n, self.config.k
        _, deltas = collect_outcome(self.run.board, n)
        x = self.decrypt_exponent()
        phi = [[0] * k for _ in range(n)]
        for i in range(n):
            for j in range(k):
                prod = 1
                for a in range(n):
                    prod = prod * deltas[a][i][j] % params.p
                phi[i][j] = params.exp(prod, x)
        self.phi = phi
        return phi

    def decrypt_statement(self) -> sigma.EQDLStatement:
        """Same-exponent statement over every cell; under the key
        consistency defense it additionally binds the keygen share."""
        params = self.params
        n, k = self.config.n, self.config.k
        _, deltas = collect_outcome(self.run.board, n)
        gens, targets = [], []
        if self.config.flags.key_consistency:
            gens.append(params.g)
            targets.append(self.share.y)
        for i in range(n):
            for j in range(k):
                prod = 1
                for a in range(n):
                    prod = prod * deltas[a][i][j] % params.p
                gens.append(prod)
                targets.append(self.phi[i][j])
        return sigma.EQDLStatement(gens=tuple(gens), targets=tuple(targets))

    def send_decrypt_shares(self) -> None:
        phi = self.compute_decrypt_shares()
        proof = None
        if not self.config.interactive:
            stmt = self.decrypt_statement()
            tr = sigma.eqdl_run(self.params, stmt, self.decrypt_exponent(),
                                self.rng, sigma.fiat_shamir_source(self.params))
            proof = sigma.transcript_to_payload(tr)
        self.run.seller.receive_shares(self.name, phi, proof)

    # -- interactive proving ----------------------------------------------

    def _require_interactive(self):
        if not self.config.interactive:
            raise ModeMismatch("no interactive sessions under hashed proofs")

    def prove_keyshare(self, challenge_source: sigma.ChallengeSource) -> sigma.Transcript:
        self._require_interactive()
        stmt = sigma.PDLStatement(g=self.params.g, v=self.share.y)
        return sigma.prove_pdl(self.params, stmt, self.share.x, self.rng,
                               challenge_source)

    def prove_bid_cell(self, j: int,
                       challenge_source: sigma.ChallengeSource) -> sigma.OrTranscript:
        """OR proof for own price cell j (0-based)."""
        self._require_interactive()
        params = self.params
        marker = self.config.marker_for(self.index)
        is_marker = (self.price - 1 == j)
        ct = sigma.make_bid_ciphertext(params, self.joint_y, marker,
                                       is_marker, self.r[j])
        stmt = sigma.BidValidityStatement(y=self.joint_y, g=params.g,
                                          marker=marker, alpha=ct.alpha,
                                          beta=ct.beta)
        return sigma.bid_validity_prove(params, stmt, self.r[j], is_marker,
                                        self.rng, challenge_source)

    def prove_bid_sum(self, challenge_source: sigma.ChallengeSource) -> sigma.Transcript:
        self._require_interactive()
        params = self.params
        alphas, betas = collect_bids(self.run.board, self.config.n)
        mine = self.index - 1
        stmt = sigma.SumValidityStatement(
            y=self.joint_y, g=params.g, marker=self.config.marker_for(self.index),
            alphas=tuple(alphas[mine]), betas=tuple(betas[mine]))
        return sigma.sum_validity_prove(params, stmt, sum(self.r) % params.q,
                                        self.rng, challenge_source)

    def open_outcome_session(self, i: int, j: int) -> sigma.ProverSession:
        """Fresh session proving own masking share at cell (i, j), 0-based."""
        self._require_interactive()
        params = self.params
        ba, bb = self.run.outcome_bases()[i][j]
        gamma = params.exp(ba, self.m[i][j])
        delta = params.exp(bb, self.m[i][j])
        stmt = sigma.EQDLStatement(gens=(ba, bb), targets=(gamma, delta))
        return sigma.ProverSession(params, stmt, self.m[i][j])

    def prove_outcome_cell(self, i: int, j: int,
                           challenge_source: sigma.ChallengeSource) -> sigma.Transcript:
        session = self.open_outcome_session(i, j)
        com = session.commit(self.rng)
        c = challenge_source(session.stmt, com) % self.params.q
        return sigma.Transcript(commitment=com, challenge=c,
                                response=session.respond(c))

    def prove_decrypt(self, challenge_source: sigma.ChallengeSource) -> sigma.Transcript:
        self._require_interactive()
        stmt = self.decrypt_statement()
        return sigma.eqdl_run(self.params, stmt, self.decrypt_exponent(),
                              self.rng, challenge_source)

    # -- own-row view ------------------------------------------------------

    def own_row_values(self) -> list[int]:
        """v values for this bidder's row, from published shares plus the
        bidder's own decryption share."""
        params = self.params
        n, k = self.config.n, self.config.k
        gammas, _ = collect_outcome(self.run.board, n)
        # All publications are authored by the seller; the subject bidder
        # is named in the payload.
        published = {
            post.payload["bidder"]: post
            for post in self.run.board.select(round=ROUND_DECRYPT,
                                              kind="decrypt-publish")
        }
        mine = self.index - 1
        row = []
        for j in range(k):
            pg = 1
            for a in range(n):
                pg = pg * gammas[a][mine][j] % params.p
            pphi = self.phi[mine][j]
            for h in range(1, n + 1):
                if h == self.index:
                    continue
                post = published.get(h)
                if post is None:
                    raise MissingShares(f"no published shares from {bidder_name(h)}")
                val = post.payload["phi"][mine][j]
                if val is None:
                    raise MissingShares("own row withheld in publication")
                pphi = pphi * val % params.p
            row.append(pg * params.inv(pphi) % params.p)
        return row


class SellerAgent:
    """Collects decryption shares, verifies their proofs, publishes the
    redacted table, and computes the result.  Never bids."""

    def __init__(self, run: "AuctionRun", rng: random.Random):
        self.run = run
        self.name = SELLER
        self.rng = rng
        self.config = run.config
        self.params = run.config.params
        self.shares: dict[str, list[list[int]]] = {}
        self.proofs: dict[str, dict | None] = {}
        self.auth_key: bytes | None = None

    def receive_shares(self, author: str, phi, proof_payload) -> None:
        self.shares[author] = phi
        self.proofs[author] = proof_payload

    def verify_decrypt_shares(self) -> None:
        n = self.config.n
        for i in range(1, n + 1):
            name = bidder_name(i)
            if name not in self.shares:
                raise MissingShares(f"no decryption shares from {name}")
        for i in range(1, n + 1):
            name = bidder_name(i)
            agent = self.run.agents[name]
            phi = self.shares[name]
            stmt = self._decrypt_statement_for(name, phi)
            if self.config.interactive:
                tr = agent.prove_decrypt(sigma.verifier_source(self.params, self.rng))
                ok = sigma.verify_transcript(self.params, stmt, tr,
                                             require_hashed=False)
            else:
                payload = self.proofs[name]
                if payload is None:
                    raise ProofRejected(name, ROUND_DECRYPT, "missing proof")
                tr = sigma.transcript_from_payload(payload)
                ok = sigma.verify_transcript(self.params, stmt, tr,
                                             require_hashed=True)
            if not ok:
                raise ProofRejected(name, ROUND_DECRYPT, "decrypt share proof failed")

    def _decrypt_statement_for(self, name: str, phi) -> sigma.EQDLStatement:
        params = self.params
        n, k = self.config.n, self.config.k
        _, deltas = collect_outcome(self.run.board, n)
        gens, targets = [], []
        if self.config.flags.key_consistency:
            y = collect_keyshares(self.run.board, n)[int(name.split("-")[1]) - 1]
            gens.append(params.g)
            targets.append(y)
        for i in range(n):
            for j in range(k):
                prod = 1
                for a in range(n):
                    prod = prod * deltas[a][i][j] % params.p
                gens.append(prod)
                targets.append(phi[i][j])
        return sigma.EQDLStatement(gens=tuple(gens), targets=tuple(targets))

    def publish_shares(self) -> None:
        """Post every bidder's shares for all rows except the bidder's own."""
        n = self.config.n
        for h in range(1, n + 1):
            name = bidder_name(h)
            phi = self.shares[name]
            redacted = [
                [None if i == h - 1 else phi[i][j] for j in range(self.config.k)]
                for i in range(n)
            ]
            payload = {"bidder": h, "phi": redacted}
            auth = None
            if self.config.flags.authenticate:
                auth = defenses.authenticate_post(
                    self.auth_key, ROUND_DECRYPT, self.name, "decrypt-publish",
                    payload)
            self.run.board.append(ROUND_DECRYPT, self.name, "decrypt-publish",
                                  payload, auth)

    def compute_result(self) -> "AuctionOutcome":
        params = self.params
        n, k = self.config.n, self.config.k
        gammas, _ = collect_outcome(self.run.board, n)
        v = [[0] * k for _ in range(n)]
        for i in range(n):
            for j in range(k):
                pg = pphi = 1
                for a in range(n):
                    pg = pg * gammas[a][i][j] % params.p
                    pphi = pphi * self.shares[bidder_name(a + 1)][i][j] % params.p
                v[i][j] = pg * params.inv(pphi) % params.p
        ones = [(i + 1, j + 1) for i in range(n) for j in range(k) if v[i][j] == 1]
        if len(ones) == 1:
            outcome = AuctionOutcome(status="winner", v=v, ones=ones,
                                     winner_bidder=ones[0][0],
                                     winner_price=ones[0][1])
        elif not ones:
            outcome = AuctionOutcome(status="no-winner", v=v, ones=[],
                                     winner_bidder=None, winner_price=None)
        else:
            outcome = AuctionOutcome(status="multiple-ones", v=v, ones=ones,
                                     winner_bidder=None, winner_price=None)
        payload = {
            "status": outcome.status,
            "winner_bidder": outcome.winner_bidder,
            "winner_price": outcome.winner_price,
            "ones": [list(c) for c in outcome.ones],
        }
        auth = None
        if self.config.flags.authenticate:
            auth = defenses.authenticate_post(self.auth_key, ROUND_RESULT,
                                              self.name, "result", payload)
        self.run.board.append(ROUND_RESULT, self.name, "result", payload, auth)
        return outcome


@dataclass(frozen=True)
class AuctionOutcome:
    status: str                       # winner | no-winner | multiple-ones
    v: list[list[int]]
    ones: list[tuple[int, int]]       # 1-based cells where v = 1
    winner_bidder: int | None
    winner_price: int | None


# --------------------------------------------------------------------------
# The run driver
# --------------------------------------------------------------------------

class AuctionRun:
    """One complete auction over a fresh board.

    ``agent_factory(run, index, rng)`` lets scenarios slot in misbehaving
    agents at chosen indices; everyone else is honest.  ``outcome_order`` and
    ``bid_order`` override the default 1..n posting order by 1-based index.
    """

    def __init__(self, config: AuctionConfig, bids: list[int], seed: int,
                 agent_factory=None, outcome_order: list[int] | None = None,
                 bid_order: list[int] | None = None,
                 registry: "defenses.AuthRegistry | None" = None):
        config.validate()
        if len(bids) != config.n:
            raise ValueError(f"need {config.n} bids, got {len(bids)}")
        self.config = config
        self.bids = list(bids)
        self.seed = seed
        self.board = BulletinBoard()
        self.outcome_order = outcome_order or list(range(1, config.n + 1))
        self.bid_order = bid_order or list(range(1, config.n + 1))
        self._bases_key = None               # bid vectors behind _bases
        self._bases = None

        master = random.Random(seed)
        self.agents: dict[str, BidderAgent] = {}
        for index in range(1, config.n + 1):
            rng = random.Random(master.randrange(1 << 63))
            if agent_factory is not None:
                agent = agent_factory(self, index, rng)
            else:
                agent = BidderAgent(self, index, rng)
            self.agents[agent.name] = agent
        self.seller = SellerAgent(self, random.Random(master.randrange(1 << 63)))

        self.registry = registry
        if config.flags.authenticate:
            if self.registry is None:
                self.registry = defenses.AuthRegistry()
            reg_rng = random.Random(master.randrange(1 << 63))
            for name, agent in self.agents.items():
                if name not in self.registry.keys:
                    self.registry.register(name, reg_rng)
                agent.auth_key = self.registry.keys[name]
            if SELLER not in self.registry.keys:
                self.registry.register(SELLER, reg_rng)
            self.seller.auth_key = self.registry.keys[SELLER]

    # -- helpers -----------------------------------------------------------

    def bidder(self, index: int) -> BidderAgent:
        return self.agents[bidder_name(index)]

    def honest_agents(self) -> list[BidderAgent]:
        return [a for a in self.agents.values() if a.honest]

    def outcome_bases(self):
        """The outcome-base grid (see ``compute_outcome_bases``) for the bids
        now on the board.  It is built once per bid state and shared by
        every reader; a late or re-posted bid gets a fresh grid."""
        bids = collect_bids(self.board, self.config.n)
        if bids != self._bases_key:
            self._bases = compute_outcome_bases(self.config.params, *bids)
            self._bases_key = bids
        return self._bases

    def _check_auth(self, round_name: str) -> None:
        if not self.config.flags.authenticate:
            return
        for post in self.board.select(round=round_name):
            if not defenses.verify_post(self.registry, post):
                raise AuthRejected(post.author, round_name)

    # -- rounds ------------------------------------------------------------

    def step_keygen(self) -> None:
        for index in range(1, self.config.n + 1):
            self.bidder(index).keygen()
        self._check_auth(ROUND_KEYGEN)
        self._verify_keygen()
        for agent in self.agents.values():
            agent.learn_joint_key()

    def _verify_keygen(self) -> None:
        params = self.config.params
        shares = self.board.latest_by_author(ROUND_KEYGEN, "keyshare")
        for name, post in shares.items():
            if not params.is_element(post.payload["y"]):
                raise ProofRejected(name, ROUND_KEYGEN,
                                    "key share is outside the order-q subgroup")
        for verifier in self.honest_agents():
            for name, post in shares.items():
                if name == verifier.name:
                    continue
                stmt = sigma.PDLStatement(g=params.g, v=post.payload["y"])
                if self.config.interactive:
                    author = self.agents[name]
                    tr = author.prove_keyshare(
                        sigma.verifier_source(params, verifier.rng))
                    ok = sigma.verify_transcript(params, stmt, tr,
                                                 require_hashed=False)
                else:
                    if post.payload["proof"] is None:
                        raise ProofRejected(name, ROUND_KEYGEN, "missing proof")
                    tr = sigma.transcript_from_payload(post.payload["proof"])
                    ok = sigma.verify_transcript(params, stmt, tr,
                                                 require_hashed=True)
                if not ok:
                    raise ProofRejected(name, ROUND_KEYGEN, "key share proof failed")

    def step_bid(self) -> None:
        for index in self.bid_order:
            self.bidder(index).submit_bid(self.bids[index - 1])
        self._check_auth(ROUND_BID)
        self._verify_bids()

    def _verify_bids(self) -> None:
        params = self.config.params
        posts = self.board.latest_by_author(ROUND_BID, "bid")
        joint = elgamal.aggregate_keys(
            params, collect_keyshares(self.board, self.config.n)).y
        for verifier in self.honest_agents():
            for name, post in posts.items():
                if name == verifier.name:
                    continue
                author_index = post.payload["bidder"]
                marker = self.config.marker_for(author_index)
                alphas = post.payload["alphas"]
                betas = post.payload["betas"]
                for j in range(self.config.k):
                    stmt = sigma.BidValidityStatement(
                        y=joint, g=params.g, marker=marker,
                        alpha=alphas[j], beta=betas[j])
                    if self.config.interactive:
                        author = self.agents[name]
                        tr = author.prove_bid_cell(
                            j, sigma.verifier_source(params, verifier.rng))
                        ok = sigma.verify_transcript(params, stmt, tr,
                                                     require_hashed=False)
                    else:
                        tr = sigma.transcript_from_payload(post.payload["proofs"][j])
                        ok = sigma.verify_transcript(params, stmt, tr,
                                                     require_hashed=True)
                    if not ok:
                        raise ProofRejected(name, ROUND_BID,
                                            f"validity proof failed at price {j + 1}")
                sum_stmt = sigma.SumValidityStatement(
                    y=joint, g=params.g, marker=marker,
                    alphas=tuple(alphas), betas=tuple(betas))
                if self.config.interactive:
                    author = self.agents[name]
                    tr = author.prove_bid_sum(
                        sigma.verifier_source(params, verifier.rng))
                    ok = sigma.verify_transcript(params, sum_stmt, tr,
                                                 require_hashed=False)
                else:
                    tr = sigma.transcript_from_payload(post.payload["sum_proof"])
                    ok = sigma.verify_transcript(params, sum_stmt, tr,
                                                 require_hashed=True)
                if not ok:
                    raise ProofRejected(name, ROUND_BID, "sum proof failed")

    def step_outcome(self) -> None:
        if self.config.flags.noise_product_check:
            cells = defenses.scan_exceptional_bases(self.config.params,
                                                    self.board, self.config.n,
                                                    self.config.k)
            if cells:
                raise RestartRequired("exceptional base product", cells)
        for index in self.outcome_order:
            self.bidder(index).post_outcome()
        self._check_auth(ROUND_OUTCOME)
        if self.config.flags.noise_product_check:
            self._noise_product_pass()
        self._verify_outcome()

    def _noise_product_pass(self, max_rounds: int = 10) -> None:
        cancelled = defenses.check_noise_cancellation(
            self.config.params, self.board, self.config.n, self.config.k)
        if cancelled:
            raise RestartRequired("noise cancellation detected", cancelled)
        for _ in range(max_rounds):
            flagged = defenses.check_noise_products(
                self.config.params, self.board, self.config.n, self.config.k)
            if not flagged:
                return
            for index in range(1, self.config.n + 1):
                self.bidder(index).redraw_exponents(flagged)
        raise RestartRequired("noise products kept collapsing", [])

    def _verify_outcome(self) -> None:
        params = self.config.params
        n, k = self.config.n, self.config.k
        bases = self.outcome_bases()
        gammas, deltas = collect_outcome(self.board, n)
        proof_posts = self.board.latest_by_author(ROUND_OUTCOME, "outcome")
        fix_posts = list(self.board.select(round=ROUND_OUTCOME, kind="outcome-fix"))
        for verifier in self.honest_agents():
            for a in range(n):
                name = bidder_name(a + 1)
                if name == verifier.name:
                    continue
                for i in range(n):
                    for j in range(k):
                        stmt = sigma.EQDLStatement(
                            gens=bases[i][j],
                            targets=(gammas[a][i][j], deltas[a][i][j]))
                        if self.config.interactive:
                            author = self.agents[name]
                            tr = author.prove_outcome_cell(
                                i, j, sigma.verifier_source(params, verifier.rng))
                            ok = sigma.verify_transcript(params, stmt, tr,
                                                         require_hashed=False)
                        else:
                            payload = self._outcome_proof_payload(
                                proof_posts, fix_posts, name, i, j)
                            if payload is None:
                                raise ProofRejected(name, ROUND_OUTCOME,
                                                    f"missing proof at cell ({i + 1},{j + 1})")
                            tr = sigma.transcript_from_payload(payload)
                            ok = sigma.verify_transcript(params, stmt, tr,
                                                         require_hashed=True)
                        if not ok:
                            raise ProofRejected(name, ROUND_OUTCOME,
                                                f"masking proof failed at cell ({i + 1},{j + 1})")

    @staticmethod
    def _outcome_proof_payload(proof_posts, fix_posts, name, i, j):
        """Latest hashed proof payload for author's cell (i, j), 0-based."""
        payload = None
        post = proof_posts.get(name)
        if post is not None and post.payload.get("proofs") is not None:
            payload = post.payload["proofs"][i][j]
        for fix in fix_posts:
            if fix.author != name or fix.payload.get("proofs") is None:
                continue
            for idx, (ci, cj) in enumerate(fix.payload["cells"]):
                if (ci - 1, cj - 1) == (i, j):
                    payload = fix.payload["proofs"][idx]
        return payload

    def step_decrypt(self) -> None:
        for index in range(1, self.config.n + 1):
            self.bidder(index).send_decrypt_shares()
        self.seller.verify_decrypt_shares()
        self.seller.publish_shares()
        self._check_auth(ROUND_DECRYPT)

    def determine_winner(self) -> AuctionOutcome:
        return self.seller.compute_result()

    def run(self) -> AuctionOutcome:
        self.step_keygen()
        self.step_bid()
        self.step_outcome()
        self.step_decrypt()
        return self.determine_winner()


def run_auction(config: AuctionConfig, bids: list[int], seed: int,
                **kwargs) -> tuple[AuctionRun, AuctionOutcome]:
    run = AuctionRun(config, bids, seed, **kwargs)
    return run, run.run()


def run_with_restarts(config: AuctionConfig, bids: list[int], seed: int,
                      max_attempts: int = 200, retry_multiple_ones: bool = True,
                      **kwargs):
    """Re-run with derived seeds until the auction lands on a decisive
    outcome.  Chance exponent collisions in a small group routinely produce
    stray 1 cells; an operator restarts such an undecidable auction, which
    is also what the pre-publication checks demand via RestartRequired.

    Returns (run, outcome, attempts_used).
    """
    last_exc: RestartRequired | None = None
    for attempt in range(max_attempts):
        try:
            run, outcome = run_auction(config, bids, seed + attempt, **kwargs)
        except RestartRequired as exc:
            last_exc = exc
            continue
        if outcome.status == "multiple-ones" and retry_multiple_ones:
            continue
        return run, outcome, attempt + 1
    if last_exc is not None:
        raise last_exc
    raise RestartRequired(f"no decisive outcome in {max_attempts} attempts", [])


def expected_winner(bids: list[int]) -> tuple[int, int]:
    """Analytic result: highest price wins, lowest index breaks ties."""
    price = max(bids)
    return bids.index(price) + 1, price
