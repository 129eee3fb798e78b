"""The benchmark's own answers, computed without the program under test.

Every function here takes plain data (ints, lists, decoded JSON) and returns
a list of problems; an empty list means the output is correct.  Nothing in
this file imports auctionlab, so a fault in the program cannot also hide in
its own checker.
"""

from __future__ import annotations

import re

ROUNDS = ("keygen", "bid", "outcome", "decrypt", "result")
_ROUND_WORD = re.compile(r"\b(" + "|".join(ROUNDS) + r")\b")


# --------------------------------------------------------------------------
# Honest auctions
# --------------------------------------------------------------------------

def expected_winner(bids: list[int]) -> tuple[int, int]:
    """(bidder, price), 1-based: highest price, lowest index among ties."""
    price = max(bids)
    return bids.index(price) + 1, price


def cell_counts(bids: list[int], k: int) -> list[list[int]]:
    """l[i][j] (0-based cell): bids at higher prices, bidder i's own lower
    bid, and earlier bidders at the same price.  Only the winning cell is 0."""
    counts = []
    for i, own in enumerate(bids):
        row = []
        for j in range(k):
            price = j + 1
            above = sum(1 for b in bids if b > price)
            below = 1 if own < price else 0
            earlier = sum(1 for b in bids[:i] if b == price)
            row.append(above + below + earlier)
        counts.append(row)
    return counts


def expected_grid(p: int, q: int, marker: int, bids: list[int], k: int,
                  exponent_sums) -> list[list[int]]:
    """v[i][j] = marker^(l[i][j] * M[i][j]) mod p, where M is the sum of all
    bidders' final outcome exponents at the cell."""
    counts = cell_counts(bids, k)
    return [[pow(marker, counts[i][j] * exponent_sums[i][j] % q, p)
             for j in range(k)] for i in range(len(bids))]


def check_honest(p: int, q: int, marker: int, bids: list[int], k: int,
                 exponent_sums, v, status: str, winner) -> list[str]:
    """An honest auction's grid, status and winner against the bids."""
    problems = []
    want = expected_winner(bids)
    if status != "winner":
        problems.append(f"status {status!r}, want 'winner'")
    if tuple(winner) != want:
        problems.append(f"winner {tuple(winner)}, want {want}")
    grid = expected_grid(p, q, marker, bids, k, exponent_sums)
    for i, (got_row, want_row) in enumerate(zip(v, grid)):
        for j, (got, exp) in enumerate(zip(got_row, want_row)):
            if got != exp:
                problems.append(f"v[{i + 1}][{j + 1}] = {got}, want {exp}")
    if len(v) != len(grid) or any(len(r) != k for r in v):
        problems.append("grid has the wrong shape")
    ones = [(i + 1, j + 1) for i, row in enumerate(v)
            for j, val in enumerate(row) if val == 1]
    if ones != [want]:
        problems.append(f"cells reading 1: {ones}, want [{want}]")
    return problems


# --------------------------------------------------------------------------
# Transcripts: the board's canonical payload encoding, decoded
# --------------------------------------------------------------------------

def decode_payload(data: bytes):
    """Inverse of the board's canonical encoding (see board.canonical_bytes)."""
    obj, end = _decode(data, 0)
    if end != len(data):
        raise ValueError(f"{len(data) - end} trailing bytes")
    return obj


def _decode(data: bytes, pos: int):
    tag = data[pos:pos + 1]
    pos += 1
    if tag == b"n":
        return None, pos
    if tag == b"b":
        return data[pos:pos + 1] == b"1", pos + 1
    if tag in (b"i", b"s"):
        size = int.from_bytes(data[pos:pos + 4], "big")
        raw = data[pos + 4:pos + 4 + size]
        value = int.from_bytes(raw, "big") if tag == b"i" else raw.decode("utf-8")
        return value, pos + 4 + size
    if tag in (b"l", b"d"):
        count = int.from_bytes(data[pos:pos + 4], "big")
        pos += 4
        items = []
        for _ in range(count * (2 if tag == b"d" else 1)):
            item, pos = _decode(data, pos)
            items.append(item)
        if tag == b"l":
            return items, pos
        return dict(zip(items[::2], items[1::2])), pos
    raise ValueError(f"unknown tag {tag!r} at byte {pos - 1}")


def transcript_posts(transcript: list[dict]) -> list[dict]:
    """transcript.json entries with their payloads decoded."""
    return [dict(entry, payload=decode_payload(bytes.fromhex(entry["payload"])))
            for entry in transcript]


def transcript_bytes(transcript: list[dict] | None) -> int:
    """Canonical payload bytes on the board a transcript.json records."""
    if not transcript:
        return 0
    return sum(len(entry["payload"]) // 2 for entry in transcript)


def outcome_base(p: int, alphas, betas, i: int, j: int) -> tuple[int, int]:
    """Cell (i, j) base pair (0-based) from the bid ciphertexts."""
    n, k = len(alphas), len(alphas[0])
    factors = [(h, d) for h in range(n) for d in range(j + 1, k)]
    factors += [(i, d) for d in range(j)]
    factors += [(h, j) for h in range(i)]
    ba = bb = 1
    for h, d in factors:
        ba = ba * alphas[h][d] % p
        bb = bb * betas[h][d] % p
    return ba, bb


# --------------------------------------------------------------------------
# Attack scenarios
# --------------------------------------------------------------------------

def stopped_round(outcome: dict, transcript: list[dict] | None) -> str | None:
    """Round a blocked run stopped in: the round its error names, else the
    last round with a post on the board, else None (no board at all)."""
    if outcome.get("extras", {}).get("rejected_round"):
        return outcome["extras"]["rejected_round"]
    match = _ROUND_WORD.search(outcome.get("detail") or "")
    if match:
        return match.group(1)
    if transcript:
        return max((e["round"] for e in transcript), key=ROUNDS.index)
    return None


def check_attack(verdict: str, expect: dict, report: dict,
                 transcript: list[dict] | None, group: dict) -> list[str]:
    """One attack scenario's report (and transcript) against what the
    benchmark's inputs say must have happened."""
    out = report["outcome"]
    problems = []
    if report.get("expectation_met") is not True:
        problems.append("scenario reports its expectation unmet")
    if verdict == "recover":
        if out.get("recovered_bids") != expect["bids"]:
            problems.append(f"recovered {out.get('recovered_bids')}, "
                            f"want {expect['bids']}")
        winner = (out.get("winner_bidder"), out.get("winner_price"))
        if winner != expected_winner(expect["bids"]):
            problems.append(f"declared winner {winner}, "
                            f"want {expected_winner(expect['bids'])}")
    elif verdict == "reveal":
        if out.get("winner_price") != expect["target_bid"]:
            problems.append(f"revealed price {out.get('winner_price')}, "
                            f"want {expect['target_bid']}")
    elif verdict == "forge":
        problems += _check_forgery(out, transcript, group, expect["mallory"])
    elif verdict == "relay":
        problems += _check_relay(out, group, expect["claim"])
    elif verdict == "force":
        cell = list(expect["cell"])
        want = list(expected_winner(expect["bids"]))
        ones = out.get("extras", {}).get("ones", [])
        if out.get("extras", {}).get("v_at_cell") != 1 or cell not in ones:
            problems.append(f"forced cell {cell} does not read 1")
        if want not in ones:
            problems.append(f"true winning cell {want} does not read 1")
        if out.get("status") == "winner":
            problems.append("seller still declared a unique winner")
    elif verdict == "redraw":
        winner = (out.get("winner_bidder"), out.get("winner_price"))
        if out.get("status") != "winner" or winner != expected_winner(expect["bids"]):
            problems.append(f"status {out.get('status')!r} winner {winner}, "
                            f"want {expected_winner(expect['bids'])}")
    elif verdict == "blocked":
        error = out.get("error")
        if error != expect["error"]:
            problems.append(f"error {error!r}, want {expect['error']!r}")
        where = stopped_round(out, transcript)
        if where != expect["round"]:
            problems.append(f"stopped in round {where!r}, want {expect['round']!r}")
        if transcript and where in ROUNDS:
            late = [e["round"] for e in transcript
                    if ROUNDS.index(e["round"]) > ROUNDS.index(where)]
            if late:
                problems.append(f"posts from later rounds {sorted(set(late))}")
    else:
        raise ValueError(f"unknown verdict {verdict!r}")
    return problems


def _check_forgery(out: dict, transcript, group: dict, mallory: int) -> list[str]:
    """The forged masking proof at cell (1,1) satisfies g^s = t * h^c on both
    generators, with the bases recomputed from the bid posts."""
    if not transcript:
        return ["no transcript to recompute the statement from"]
    p = group["p"]
    posts = transcript_posts(transcript)
    bids = {e["author"]: e["payload"] for e in posts if e["kind"] == "bid"}
    names = [f"bidder-{i}" for i in range(1, len(bids) + 1)]
    alphas = [bids[name]["alphas"] for name in names]
    betas = [bids[name]["betas"] for name in names]
    gamma = delta = None
    for e in posts:
        if e["author"] != f"bidder-{mallory}":
            continue
        if e["kind"] == "outcome":
            gamma, delta = e["payload"]["gamma"][0][0], e["payload"]["delta"][0][0]
        elif e["kind"] == "outcome-fix":
            for cell, gv, dv in zip(e["payload"]["cells"], e["payload"]["gamma"],
                                    e["payload"]["delta"]):
                if cell == [1, 1]:
                    gamma, delta = gv, dv
    if gamma is None:
        return [f"no outcome shares from bidder-{mallory}"]
    tr = out.get("explicit_forged_transcript") or {}
    com, c, s = tr.get("com") or [None, None], tr.get("chal"), tr.get("resp")
    if None in (c, s) or len(com) != 2 or None in com:
        return ["forged transcript missing"]
    problems = []
    for gen, target, t in zip(outcome_base(p, alphas, betas, 0, 0),
                              (gamma, delta), com):
        if pow(gen, s, p) != t * pow(target, c, p) % p:
            problems.append(f"forged proof fails g^s = t*h^c for generator {gen}")
    return problems


def _check_relay(out: dict, group: dict, claim: tuple[int, int, int]) -> list[str]:
    """Both relayed knowledge proofs verify, for the affine claim asked."""
    p, q, g = group["p"], group["q"], group["g"]
    h, a, b = claim
    v = out.get("prover_value")
    w = out.get("claimed_value")
    if v is None or w is None:
        return ["relay produced no transcripts"]
    problems = []
    if w != pow(g, a * h % q, p) * pow(v, b, p) % p:
        problems.append("claimed value is not g^(a*h) * v^b")
    for label, target in (("victor", w), ("peggy", v)):
        tr = out.get(f"{label}_transcript") or {}
        com, c, s = tr.get("com") or [], tr.get("chal"), tr.get("resp")
        t = com[0] if len(com) == 1 else None
        if None in (t, c, s) or pow(g, s, p) != t * pow(target, c, p) % p:
            problems.append(f"{label}'s transcript fails g^s = t*h^c")
    return problems
