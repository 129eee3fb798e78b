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
              the posted bids in O(nk) products, once, when the bid round
              closes (``AuctionRun.bases``).
4. decrypt  - every bidder sends its decryption share for every cell to the
              seller with a proof; the seller withholds publication until
              all have arrived, then posts each bidder's shares for all rows
              other than the bidder's own.
5. result   - the seller divides masked products by decryption products; a
              cell that lands on 1 names the winner and the price.

Each round is read off the board once, when it closes: its verify step
parses the posts, builds each statement once, and keeps what it read on the
run for every later reader, so a post added to a closed round changes
nothing.  Honest agents verify every proof they see (``check_round``).  In
hashed-proof mode they check static transcripts, each once, and every
verifier shares the verdict; in interactive mode each verifier engages the
poster in a fresh commit/challenge/respond session.  Attack code must get
past these checks, never around them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial

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
            raise ValueError(f"bidder count {self.n} must stay below the "
                             f"subgroup order {self.params.q}")
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


def cell_products(params: GroupParams, matrices):
    """Cell-wise product of a list of n x k matrices: the Γ-products of the
    bidders' masking shares γ, the Δ-products of their shares δ, or the
    product of their decryption shares φ."""
    p = params.p
    out = [[1] * len(row) for row in matrices[0]]
    for matrix in matrices:
        for out_row, row in zip(out, matrix):
            for j, value in enumerate(row):
                out_row[j] = out_row[j] * value % p
    return out


def decrypt_statement(params: GroupParams, delta_products, phi,
                      y_share: int | None = None) -> sigma.EQDLStatement:
    """One exponent raises every cell's Δ-product to its decryption share φ.
    Under the key-consistency defense the keygen share y = g^x is bound in
    front, so decrypting with any exponent other than the key share fails."""
    gens = [params.g] if y_share is not None else []
    targets = [y_share] if y_share is not None else []
    for delta_row, phi_row in zip(delta_products, phi):
        gens.extend(delta_row)
        targets.extend(phi_row)
    return sigma.EQDLStatement(gens=tuple(gens), targets=tuple(targets))


def check_elements(params: GroupParams, author: str, round_name: str,
                   what: str, *rows) -> None:
    """Refuse posted group elements that are not integers in 0 < v < p,
    before any proof or challenge encoding sees them.  Subgroup membership
    is not checked here."""
    p = params.p
    if not all(type(v) is int and 0 < v < p for row in rows for v in row):
        raise ProofRejected(author, round_name,
                            f"malformed {what}: element outside 0 < v < p")


def _is_list(value, length: int) -> bool:
    return type(value) in (list, tuple) and len(value) == length


def _outcome_shape_problem(post: Post, n: int, k: int) -> str | None:
    """What makes an outcome or fix post unfit for the n x k grid, or None.

    An outcome post holds n x k ``gamma`` and ``delta`` grids, and a grid of
    proofs or None.  A fix post names cells in 1..n x 1..k and holds one
    ``gamma``, one ``delta`` and, unless its proofs are None, one proof per
    cell."""
    payload = post.payload
    if post.kind == "outcome":
        for name in ("gamma", "delta", "proofs"):
            grid = payload.get(name)
            if name == "proofs" and grid is None:
                continue
            if not (_is_list(grid, n) and all(_is_list(row, k) for row in grid)):
                return f"{name} is not a {n} x {k} grid"
    elif post.kind == "outcome-fix":
        cells = payload.get("cells")
        if type(cells) not in (list, tuple):
            return "cells is not a list"
        for cell in cells:
            if not (_is_list(cell, 2) and all(type(c) is int for c in cell)
                    and 1 <= cell[0] <= n and 1 <= cell[1] <= k):
                return f"fix cell {cell!r} outside 1..{n} x 1..{k}"
        for name in ("gamma", "delta", "proofs"):
            entries = payload.get(name)
            if name == "proofs" and entries is None:
                continue
            if not _is_list(entries, len(cells)):
                return f"fix {name} does not hold one entry per cell"
    return None


def _canonical_scalars(tr, q: int) -> bool:
    """Every challenge and response of ``tr``, OR branches included, lies
    in 0 <= v < q."""
    if isinstance(tr, sigma.OrTranscript):
        return (0 <= tr.challenge < q and _canonical_scalars(tr.branches[0], q)
                and _canonical_scalars(tr.branches[1], q))
    return 0 <= tr.challenge < q and 0 <= tr.response < q


def check_proof(config: AuctionConfig, rng: random.Random, author: str,
                round_name: str, stmt, payload, prove, failure: str,
                where: str = "") -> None:
    """Check ``author``'s proof of ``stmt`` in the run's proof mode, or
    raise ProofRejected naming the author, the round and ``where``.

    Interactive: ``prove(challenge_source)`` runs a fresh session against a
    verifier drawing its challenges from ``rng``.  Hashed: the posted
    ``payload`` is parsed, every commitment must lie in 0 < z < p, and the
    challenge must be the canonical hash.  In both modes every challenge and
    response (OR branches included) must lie in 0 <= v < q, so that no
    statement has a second accepting transcript made by adding q and no
    verifier raises a base to an oversized response.  The proof is missing
    when the one the mode needs is None.  ``check_round`` decides which
    verifier checks which proof."""
    params, interactive = config.params, config.interactive
    if (prove if interactive else payload) is None:
        raise ProofRejected(author, round_name, f"missing proof{where}")
    if interactive:
        tr = prove(sigma.verifier_source(params, rng))
    else:
        try:
            tr = sigma.transcript_from_payload(payload)
        except ValueError as exc:
            raise ProofRejected(author, round_name,
                                f"malformed proof{where}: {exc}") from exc
        p = params.p
        for z in tr.commitment:
            if not 0 < z < p:
                raise ProofRejected(author, round_name,
                                    f"malformed proof{where}: commitment "
                                    "outside 0 < z < p")
    if not _canonical_scalars(tr, params.q):
        raise ProofRejected(author, round_name,
                            f"malformed proof{where}: response or "
                            "challenge outside 0 <= v < q")
    if not sigma.verify_transcript(params, stmt, tr, require_hashed=not interactive):
        raise ProofRejected(author, round_name, failure + where)


def check_round(config: AuctionConfig, round_name: str, verifiers,
                entries) -> None:
    """Have each verifier (a party with a ``name`` and an ``rng``) check
    every entry another author posted, verifier by verifier, in entry order.
    An entry is ``(author, statement, posted proof, prover, failure, where)``
    as ``check_proof`` takes them.  Interactive sessions run once per
    verifier.  A hashed proof's verdict depends on its statement and
    transcript alone, so the first verifier that reaches it checks it and
    every later one shares that verdict."""
    pending = entries
    for verifier in verifiers:
        left = []
        for entry in pending:
            author, stmt, payload, prove, failure, where = entry
            if author == verifier.name:
                left.append(entry)            # nobody checks their own proof
                continue
            check_proof(config, verifier.rng, author, round_name, stmt, payload,
                        prove, failure, where)
            if config.interactive:
                left.append(entry)            # every verifier runs a session
        pending = left


# --------------------------------------------------------------------------
# Board readers
# --------------------------------------------------------------------------

def _latest_payloads(board: BulletinBoard, round_name: str, kind: str, n: int,
                     what: str, fields: tuple[str, ...]) -> dict[str, dict]:
    """Every author's latest ``kind`` payload in the round, by author, after
    refusing one that lacks any of ``fields``.  Every bidder must have one."""
    out = {}
    for name, post in board.latest_by_author(round_name, kind).items():
        payload = post.payload
        for field_name in fields:
            if type(payload) is not dict or field_name not in payload:
                raise ProofRejected(name, round_name,
                                    f"malformed {what}: no {field_name}")
        out[name] = payload
    for i in range(1, n + 1):
        if bidder_name(i) not in out:
            raise MissingShares(f"no {what} from {bidder_name(i)}")
    return out


def collect_keyshares(board: BulletinBoard, n: int) -> dict[str, dict]:
    """Every author's latest key share payload, with ``y`` and ``proof``."""
    return _latest_payloads(board, ROUND_KEYGEN, "keyshare", n, "key share",
                            ("y", "proof"))


def collect_bids(board: BulletinBoard, n: int) -> dict[str, dict]:
    """Every author's latest bid payload, with all of its fields."""
    return _latest_payloads(board, ROUND_BID, "bid", n, "bid",
                            ("bidder", "alphas", "betas", "proofs", "sum_proof"))


def collect_outcome(board: BulletinBoard, n: int):
    """Masking share matrices γ and δ per bidder, and the grid of hashed
    proofs behind them (None where none was posted), with later fix posts
    merged in."""
    grids: dict[str, tuple] = {}
    for post in board.select(round=ROUND_OUTCOME):
        payload = post.payload
        if post.kind == "outcome":
            gamma = [list(row) for row in payload["gamma"]]
            proofs = payload.get("proofs")
            grids[post.author] = (
                gamma, [list(row) for row in payload["delta"]],
                [list(row) for row in proofs] if proofs is not None
                else [[None] * len(row) for row in gamma])
        elif post.kind == "outcome-fix":
            if post.author not in grids:
                raise MissingShares(f"fix before outcome from {post.author}")
            g, d, pr = grids[post.author]
            cells = payload["cells"]
            for (ci, cj), gv, dv, proof in zip(
                    cells, payload["gamma"], payload["delta"],
                    payload.get("proofs") or [None] * len(cells)):
                g[ci - 1][cj - 1] = gv
                d[ci - 1][cj - 1] = dv
                pr[ci - 1][cj - 1] = proof
    for i in range(1, n + 1):
        if bidder_name(i) not in grids:
            raise MissingShares(f"no outcome shares from {bidder_name(i)}")
    gammas, deltas, proofs = zip(*(grids[bidder_name(i)] for i in range(1, n + 1)))
    return list(gammas), list(deltas), list(proofs)


# --------------------------------------------------------------------------
# Agents
# --------------------------------------------------------------------------

class Party:
    """A bidder or the seller: posts to the run's board under its name, with
    a tag from its key when the authentication defense is on."""

    def _post(self, round_name: str, kind: str, payload: dict) -> Post:
        auth = None
        if self.config.flags.authenticate:
            auth = defenses.authenticate_post(
                self.auth_key, round_name, self.name, kind, payload)
        return self.run.board.append(round_name, self.name, kind, payload, auth)


class BidderAgent(Party):
    """An honest bidder.  Holds the private key share, the outcome
    exponents, the bid randomisers and every statement it posts, and proves
    those statements on request."""

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
        self.phi: list[list[int]] | None = None
        self.auth_key: bytes | None = None
        # The statements behind this bidder's posts, as posted.
        self.key_stmt: sigma.PDLStatement | None = None
        self.cell_stmts: list[sigma.BidValidityStatement] | None = None
        self.sum_stmt: sigma.SumValidityStatement | None = None
        self.outcome_stmts: list[list[sigma.EQDLStatement]] | None = None
        self.decrypt_stmt: sigma.EQDLStatement | None = None

    def _posted_proof(self, stmt, witness) -> dict | None:
        """The hashed transcript posted with ``stmt``; None in interactive
        mode, where proofs are sessions instead."""
        if self.config.interactive:
            return None
        tr = sigma.prove(self.params, stmt, witness, self.rng,
                         sigma.fiat_shamir_source(self.params))
        return sigma.transcript_to_payload(tr)

    def _session(self, stmt, witness, challenge_source: sigma.ChallengeSource):
        """One interactive proof of a posted statement."""
        if not self.config.interactive:
            raise ModeMismatch("no interactive sessions under hashed proofs")
        return sigma.prove(self.params, stmt, witness, self.rng, challenge_source)

    # -- posting ----------------------------------------------------------

    def keygen(self) -> Post:
        """Draw the key share plus all later private randomness, then post
        the public share (with a knowledge proof in hashed mode)."""
        params, q = self.params, self.params.q
        self.share = elgamal.gen_keyshare(params, self.rng)
        n, k = self.config.n, self.config.k
        self.m = [[self.rng.randrange(1, q) for _ in range(k)] for _ in range(n)]
        self.r = [self.rng.randrange(q) for _ in range(k)]
        self.key_stmt = sigma.PDLStatement(g=params.g, v=self.share.y)
        payload = {"bidder": self.index, "y": self.share.y,
                   "proof": self._posted_proof(self.key_stmt, self.share.x)}
        return self._post(ROUND_KEYGEN, "keyshare", payload)

    def submit_bid(self, price: int) -> Post:
        self.price = price
        params, y = self.params, self.run.joint_y
        marker = self.config.marker_for(self.index)
        bits = encode_bid(price, self.config.k)
        cts = [elgamal.encrypt(params, marker if bit else 1, y, r)
               for bit, r in zip(bits, self.r)]
        self.cell_stmts = [
            sigma.BidValidityStatement(y=y, g=params.g, marker=marker,
                                       alpha=ct.alpha, beta=ct.beta)
            for ct in cts]
        self.sum_stmt = sigma.SumValidityStatement(
            y=y, g=params.g, marker=marker,
            alphas=tuple(ct.alpha for ct in cts), betas=tuple(ct.beta for ct in cts))
        proofs = [self._posted_proof(stmt, (r, bool(bit)))
                  for stmt, r, bit in zip(self.cell_stmts, self.r, bits)]
        payload = {"bidder": self.index,
                   "alphas": list(self.sum_stmt.alphas),
                   "betas": list(self.sum_stmt.betas),
                   "proofs": None if self.config.interactive else proofs,
                   "sum_proof": self._posted_proof(self.sum_stmt,
                                                   sum(self.r) % params.q)}
        return self._post(ROUND_BID, "bid", payload)

    # -- outcome ----------------------------------------------------------

    def _outcome_statement(self, bases, i: int, j: int) -> sigma.EQDLStatement:
        """Own masking shares at cell (i, j), 0-based: the cell's base pair
        raised to the outcome exponent, as the statement that proves them."""
        ba, bb = bases[i][j]
        m = self.m[i][j]
        return sigma.EQDLStatement(
            gens=(ba, bb), targets=(self.params.exp(ba, m), self.params.exp(bb, m)))

    def post_outcome(self) -> Post:
        bases = self.run.bases
        stmts = self.outcome_stmts = [
            [self._outcome_statement(bases, i, j) for j in range(self.config.k)]
            for i in range(self.config.n)]
        proofs = [[self._posted_proof(s, self.m[i][j]) for j, s in enumerate(row)]
                  for i, row in enumerate(stmts)]
        payload = {"bidder": self.index,
                   "gamma": [[s.targets[0] for s in row] for row in stmts],
                   "delta": [[s.targets[1] for s in row] for row in stmts],
                   "proofs": None if self.config.interactive else proofs}
        return self._post(ROUND_OUTCOME, "outcome", payload)

    def redraw_exponents(self, cells) -> Post:
        """Replace the outcome exponents at the flagged cells (1-based) and
        post corrected shares."""
        bases = self.run.bases
        stmts, proofs = [], []
        for ci, cj in cells:
            i, j = ci - 1, cj - 1
            self.m[i][j] = self.rng.randrange(1, self.params.q)
            stmts.append(self._outcome_statement(bases, i, j))
            self.outcome_stmts[i][j] = stmts[-1]
            proofs.append(self._posted_proof(stmts[-1], self.m[i][j]))
        payload = {"bidder": self.index, "cells": [list(c) for c in cells],
                   "gamma": [s.targets[0] for s in stmts],
                   "delta": [s.targets[1] for s in stmts],
                   "proofs": None if self.config.interactive else proofs}
        return self._post(ROUND_OUTCOME, "outcome-fix", payload)

    # -- decryption -------------------------------------------------------

    def decrypt_exponent(self) -> int:
        """The exponent this bidder applies to the delta products.  Honest
        bidders use their key share; subclasses may misbehave here."""
        return self.share.x

    def send_decrypt_shares(self) -> None:
        """Raise every cell's Δ-product to ``decrypt_exponent`` and send the
        shares to the seller, with a hashed proof in hashed mode."""
        params, delta_products = self.params, self.run.delta_products
        x = self.decrypt_exponent()
        self.phi = [[params.exp(d, x) for d in row] for row in delta_products]
        y = self.share.y if self.config.flags.key_consistency else None
        self.decrypt_stmt = decrypt_statement(params, delta_products, self.phi, y)
        self.run.seller.receive_shares(self.name, self.phi,
                                       self._posted_proof(self.decrypt_stmt, x))

    # -- interactive proving ----------------------------------------------

    def prove_keyshare(self, challenge_source: sigma.ChallengeSource) -> sigma.Transcript:
        return self._session(self.key_stmt, self.share.x, challenge_source)

    def prove_bid_cell(self, j: int,
                       challenge_source: sigma.ChallengeSource) -> sigma.OrTranscript:
        """OR proof for own price cell j (0-based)."""
        return self._session(self.cell_stmts[j], (self.r[j], self.price - 1 == j),
                             challenge_source)

    def prove_bid_sum(self, challenge_source: sigma.ChallengeSource) -> sigma.Transcript:
        return self._session(self.sum_stmt, sum(self.r) % self.params.q,
                             challenge_source)

    def open_outcome_session(self, i: int, j: int) -> sigma.ProverSession:
        """Fresh session proving own masking share at cell (i, j), 0-based."""
        if not self.config.interactive:
            raise ModeMismatch("no interactive sessions under hashed proofs")
        return sigma.ProverSession(self.params, self.outcome_stmts[i][j], self.m[i][j])

    def prove_outcome_cell(self, i: int, j: int,
                           challenge_source: sigma.ChallengeSource) -> sigma.Transcript:
        return self._session(self.outcome_stmts[i][j], self.m[i][j], challenge_source)

    def prove_decrypt(self, challenge_source: sigma.ChallengeSource) -> sigma.Transcript:
        return self._session(self.decrypt_stmt, self.decrypt_exponent(),
                             challenge_source)

    # -- own-row view ------------------------------------------------------

    def own_row_values(self) -> list[int]:
        """v values for this bidder's row, from published shares plus the
        bidder's own decryption share."""
        params, mine = self.params, self.index - 1
        # All publications are authored by the seller; the subject bidder
        # is named in the payload.
        published = {
            post.payload["bidder"]: post.payload["phi"][mine]
            for post in self.run.board.select(round=ROUND_DECRYPT,
                                              kind="decrypt-publish")
        }
        rows = [self.phi[mine]]
        for h in range(1, self.config.n + 1):
            if h != self.index:
                if h not in published:
                    raise MissingShares(f"no published shares from {bidder_name(h)}")
                rows.append(published[h])
        if any(None in row for row in rows):
            raise MissingShares("own row withheld in publication")
        phi_row = cell_products(params, [[row] for row in rows])[0]
        return [pg * params.inv(pphi) % params.p
                for pg, pphi in zip(self.run.gamma_products[mine], phi_row)]


class SellerAgent(Party):
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
        run, n = self.run, self.config.n
        keys = run.keys if self.config.flags.key_consistency else [None] * n
        entries = []
        for i in range(1, n + 1):
            name = bidder_name(i)
            if name not in self.shares:
                raise MissingShares(f"no decryption shares from {name}")
            check_elements(self.params, name, ROUND_DECRYPT, "decrypt shares",
                           *self.shares[name])
            stmt = decrypt_statement(self.params, run.delta_products,
                                     self.shares[name], keys[i - 1])
            entries.append((name, stmt, self.proofs[name],
                            run.agents[name].prove_decrypt,
                            "decrypt share proof failed", ""))
        check_round(self.config, ROUND_DECRYPT, [self], entries)

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
            self._post(ROUND_DECRYPT, "decrypt-publish", {"bidder": h, "phi": redacted})

    def compute_result(self) -> "AuctionOutcome":
        params = self.params
        n, k = self.config.n, self.config.k
        gamma_products = self.run.gamma_products
        phi_products = cell_products(
            params, [self.shares[bidder_name(a)] for a in range(1, n + 1)])
        v = [[pg * params.inv(pphi) % params.p
              for pg, pphi in zip(g_row, phi_row)]
             for g_row, phi_row in zip(gamma_products, phi_products)]
        ones = [(i + 1, j + 1) for i in range(n) for j in range(k) if v[i][j] == 1]
        status = "winner" if len(ones) == 1 else "multiple-ones" if ones else "no-winner"
        bidder, price = ones[0] if status == "winner" else (None, None)
        outcome = AuctionOutcome(status=status, v=v, ones=ones,
                                 winner_bidder=bidder, winner_price=price)
        payload = {
            "status": outcome.status,
            "winner_bidder": outcome.winner_bidder,
            "winner_price": outcome.winner_price,
            "ones": [list(c) for c in outcome.ones],
        }
        self._post(ROUND_RESULT, "result", payload)
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
    Each round's verify step keeps what it read: ``keys`` and ``joint_y``,
    the base grid ``bases``, and the masking shares with their products.
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
        self.keys: list[int] | None = None
        self.joint_y: int | None = None
        self.bases = None                    # see compute_outcome_bases
        self.gammas = self.deltas = None
        self.gamma_products = self.delta_products = None

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

    def _check_auth(self, round_name: str, since: int = 0) -> None:
        """Check the tags of the round's posts from board position ``since``."""
        if not self.config.flags.authenticate:
            return
        for post in self.board.posts[since:]:
            if post.round == round_name and not defenses.verify_post(self.registry, post):
                raise AuthRejected(post.author, round_name)

    # -- rounds ------------------------------------------------------------

    def step_keygen(self) -> None:
        for index in range(1, self.config.n + 1):
            self.bidder(index).keygen()
        self._check_auth(ROUND_KEYGEN)
        self._verify_keygen()

    def _verify_keygen(self) -> None:
        """Read the key shares, check them, and keep them with the joint key."""
        params, n = self.config.params, self.config.n
        shares = collect_keyshares(self.board, n)
        entries = []
        for name, payload in shares.items():
            y = payload["y"]
            if type(y) is not int or not params.is_element(y):
                raise ProofRejected(name, ROUND_KEYGEN,
                                    "key share is outside the order-q subgroup")
            author = self.agents.get(name)        # None: not in this auction
            entries.append((name, sigma.PDLStatement(g=params.g, v=y),
                            payload["proof"], author and author.prove_keyshare,
                            "key share proof failed", ""))
        check_round(self.config, ROUND_KEYGEN, self.honest_agents(), entries)
        self.keys = [shares[bidder_name(i)]["y"] for i in range(1, n + 1)]
        self.joint_y = elgamal.aggregate_keys(params, self.keys).y

    def step_bid(self) -> None:
        for index in self.bid_order:
            self.bidder(index).submit_bid(self.bids[index - 1])
        self._check_auth(ROUND_BID)
        self._verify_bids()

    def _verify_bids(self) -> None:
        """Read the bids, check them, and keep the outcome-base grid."""
        params, n, k = self.config.params, self.config.n, self.config.k
        bids = collect_bids(self.board, n)
        y, g = self.joint_y, params.g
        entries = []
        for name, payload in bids.items():
            for field_name in ("alphas", "betas", "proofs"):
                values = payload[field_name]
                if field_name == "proofs" and not values:
                    continue                      # missing: reported per price
                if type(values) not in (list, tuple):
                    raise ProofRejected(name, ROUND_BID,
                                        f"malformed bid: {field_name} is not a list")
                if len(values) != k:
                    raise ProofRejected(name, ROUND_BID,
                                        f"malformed bid: {len(values)} "
                                        f"{field_name} for {k} prices")
            alphas, betas = payload["alphas"], payload["betas"]
            check_elements(params, name, ROUND_BID, "bid", alphas, betas)
            bidder = payload["bidder"]
            if type(bidder) is not int or not 1 <= bidder <= n:
                raise ProofRejected(name, ROUND_BID,
                                    f"malformed bid: bidder {bidder!r} outside 1..{n}")
            marker = self.config.marker_for(bidder)
            author = self.agents.get(name)        # None: not in this auction
            proofs = payload["proofs"] or [None] * k
            for j in range(k):
                stmt = sigma.BidValidityStatement(y=y, g=g, marker=marker,
                                                  alpha=alphas[j], beta=betas[j])
                entries.append((name, stmt, proofs[j],
                                author and partial(author.prove_bid_cell, j),
                                "validity proof failed", f" at price {j + 1}"))
            stmt = sigma.SumValidityStatement(y=y, g=g, marker=marker,
                                              alphas=tuple(alphas), betas=tuple(betas))
            entries.append((name, stmt, payload["sum_proof"],
                            author and author.prove_bid_sum, "sum proof failed", ""))
        check_round(self.config, ROUND_BID, self.honest_agents(), entries)
        rows = [bids[bidder_name(i)] for i in range(1, n + 1)]
        self.bases = compute_outcome_bases(params, [row["alphas"] for row in rows],
                                           [row["betas"] for row in rows])

    def step_outcome(self) -> None:
        if self.config.flags.noise_product_check:
            cells = defenses.scan_exceptional_bases(self.bases)
            if cells:
                raise RestartRequired("exceptional base product", cells)
        for index in self.outcome_order:
            self.bidder(index).post_outcome()
        self._check_auth(ROUND_OUTCOME)
        if self.config.flags.noise_product_check:
            fixes_from = len(self.board.posts)
            self._noise_product_pass()
            self._check_auth(ROUND_OUTCOME, since=fixes_from)
        self._verify_outcome()

    def _outcome_shares(self):
        """``collect_outcome`` for this run, after refusing any outcome or
        fix post whose shape does not fit the n x k grid."""
        n, k = self.config.n, self.config.k
        for post in self.board.select(round=ROUND_OUTCOME):
            problem = _outcome_shape_problem(post, n, k)
            if problem is not None:
                raise ProofRejected(post.author, ROUND_OUTCOME,
                                    f"malformed outcome: {problem}")
        return collect_outcome(self.board, n)

    def _noise_product_pass(self, max_rounds: int = 10) -> None:
        params, n = self.config.params, self.config.n
        products = cell_products(params, self._outcome_shares()[0])
        cancelled = defenses.check_noise_cancellation(self.bases, products)
        if cancelled:
            raise RestartRequired("noise cancellation detected", cancelled)
        for _ in range(max_rounds):
            flagged = defenses.check_noise_products(products)
            if not flagged:
                return
            for index in range(1, n + 1):
                self.bidder(index).redraw_exponents(flagged)
            products = cell_products(params, self._outcome_shares()[0])
        raise RestartRequired("noise products kept collapsing", [])

    def _verify_outcome(self) -> None:
        """Read the masking shares and keep them with their cell products
        before checking them: a relaying prover reads them in its sessions."""
        params, n, k = self.config.params, self.config.n, self.config.k
        gammas, deltas, proofs = self._outcome_shares()
        for a in range(n):
            check_elements(params, bidder_name(a + 1), ROUND_OUTCOME,
                           "outcome", *gammas[a], *deltas[a])
        self.gammas, self.deltas = gammas, deltas
        self.gamma_products = cell_products(params, gammas)
        self.delta_products = cell_products(params, deltas)
        bases = self.bases
        entries = []
        for a in range(n):
            name = bidder_name(a + 1)
            prove = self.agents[name].prove_outcome_cell
            for i in range(n):
                for j in range(k):
                    stmt = sigma.EQDLStatement(
                        gens=bases[i][j], targets=(gammas[a][i][j], deltas[a][i][j]))
                    entries.append((name, stmt, proofs[a][i][j], partial(prove, i, j),
                                    "masking proof failed", f" at cell ({i + 1},{j + 1})"))
        check_round(self.config, ROUND_OUTCOME, self.honest_agents(), entries)

    def step_decrypt(self) -> None:
        for index in range(1, self.config.n + 1):
            self.bidder(index).send_decrypt_shares()
        self.seller.verify_decrypt_shares()
        self.seller.publish_shares()
        self._check_auth(ROUND_DECRYPT)

    def determine_winner(self) -> AuctionOutcome:
        return self.seller.compute_result()

    def run(self) -> AuctionOutcome:
        try:
            self.step_keygen()
            self.step_bid()
            self.step_outcome()
            self.step_decrypt()
            return self.determine_winner()
        finally:
            self.config.params._drop_tables()   # tables live for one run


def run_auction(config: AuctionConfig, bids: list[int], seed: int,
                **kwargs) -> tuple[AuctionRun, AuctionOutcome]:
    run = AuctionRun(config, bids, seed, **kwargs)
    return run, run.run()


def with_restarts(attempt, seed: int, max_attempts: int):
    """Call ``attempt(seed)``, ``attempt(seed + 1)``, ... until a call
    returns without RestartRequired, and return what it returned.  The last
    of ``max_attempts`` calls raises whatever it raises."""
    for offset in range(max_attempts - 1):
        try:
            return attempt(seed + offset)
        except RestartRequired:
            pass
    return attempt(seed + max_attempts - 1)


def run_with_restarts(config: AuctionConfig, bids: list[int], seed: int,
                      max_attempts: int = 200, **kwargs):
    """Re-run with derived seeds until the auction lands on a decisive
    outcome.  Chance exponent collisions in a small group routinely produce
    stray 1 cells; an operator restarts such an undecidable auction, which
    is also what the pre-publication checks demand via RestartRequired.

    Returns (run, outcome, attempts_used).
    """
    def attempt(attempt_seed):
        run, outcome = run_auction(config, bids, attempt_seed, **kwargs)
        if outcome.status == "multiple-ones":
            raise RestartRequired(
                f"no decisive outcome in {max_attempts} attempts", [])
        return run, outcome

    run, outcome = with_restarts(attempt, seed, max_attempts)
    return run, outcome, run.seed - seed + 1


def expected_winner(bids: list[int]) -> tuple[int, int]:
    """Analytic result: highest price wins, lowest index breaks ties."""
    price = max(bids)
    return bids.index(price) + 1, price
