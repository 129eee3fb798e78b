"""Post shapes: every field of every kind in ``protocol.SCHEMAS``, edited.

Small group, n=2, k=3, bids (1, 2), seed 4, in three modes: interactive
proofs, hashed proofs, and interactive proofs with tagged posts.  Bidder 2
edits one field of one of its payloads (for ``outcome-fix``, of a fix post
that restates its shares at cell (1,1)); the seller edits its publication of
bidder 1's shares.  Each field takes every value in ``WRONG`` in turn, and
each element field also takes p - v for its first posted element v.  The
verdict of every edit is pinned in ``schema_walk.json``: refused, with the
error type, author, round and detail, or accepted, with the run's status,
winner, price and whether every bidder's own-row view matches the result.
No edit may raise a bare Python exception.

After a deliberate change of verdicts, ``PYTHONPATH=src python
tests/test_schemas.py`` rewrites the table, and its diff shows which rows
moved.  Seed 4 is one whose unedited run has a winner in every mode.
"""

import copy
import dataclasses
import functools
import json
import pathlib

import pytest

from auctionlab import sigma
from auctionlab.attacks import dishonest_bidder
from auctionlab.defenses import DefenseFlags
from auctionlab.errors import AuctionLabError
from auctionlab.groups import SMALL_GROUP
from auctionlab.protocol import (
    ROUND_OUTCOME,
    SCHEMAS,
    AuctionConfig,
    AuctionRun,
    BidderAgent,
    SellerAgent,
    run_auction,
)

TABLE = pathlib.Path(__file__).with_name("schema_walk.json")
MODES = {"interactive": DefenseFlags(), "hashed": DefenseFlags(ni_proofs=True),
         "authenticate": DefenseFlags(authenticate=True)}
WRONG = {
    "str": "x", "None": None, "True": True, "-1": -1, "0": 0, "[]": [],
    "[[]]": [[]], "dict": {"x": 1}, "10**40": 10**40, "[1.5]": [1.5],
    '[["x"]]': [["x"]],
}


def _edits():
    """Every (kind, field, edit) the walk makes, ``None`` as field and edit
    for the unedited post."""
    for kind, schema in SCHEMAS.items():
        yield kind, None, None
        for field in schema.fields:
            yield from ((kind, field.name, edit) for edit in WRONG)
            if field.elements:
                yield kind, field.name, "p-v"


CASES = [f"{kind}.{field}.{edit}.{mode}" if field else f"{kind}.unedited.{mode}"
         for kind, field, edit in _edits() for mode in MODES]


def _negate_first(value):
    """``value`` with its first element v, in row order and skipping None,
    replaced by p - v."""
    if type(value) is int:
        return SMALL_GROUP.p - value
    for i, entry in enumerate(value):
        negated = None if entry is None else _negate_first(entry)
        if negated is not None:
            return [*value[:i], negated, *value[i + 1:]]


def _editor(field, edit):
    def apply(payload):
        payload = copy.deepcopy(payload)
        if field is not None:
            payload[field] = (_negate_first(payload[field]) if edit == "p-v"
                              else copy.deepcopy(WRONG[edit]))
        return payload
    return apply


class EditingBidder(BidderAgent):
    """Bidder 2, which edits its ``kind`` payload with ``edit`` before it is
    posted or sent.  For the fix kind it first posts a fix restating its
    outcome shares and proof at cell (1,1)."""

    def __init__(self, run, index, rng, kind, edit):
        super().__init__(run, index, rng)
        self.kind, self.edit = kind, edit

    def _post(self, round_name, kind, payload):
        return super()._post(round_name, kind,
                             self.edit(payload) if kind == self.kind else payload)

    def post_outcome(self):
        post = super().post_outcome()
        if self.kind == "outcome-fix":
            shares = post.payload
            proofs = shares["proofs"] and [shares["proofs"][0][0]]
            self._post(ROUND_OUTCOME, "outcome-fix", {
                "bidder": self.index, "cells": [[1, 1]], "gamma": [shares["gamma"][0][0]],
                "delta": [shares["delta"][0][0]], "proofs": proofs})
        return post

    def send_decrypt_shares(self):
        super().send_decrypt_shares()
        if self.kind == "decrypt-shares":
            seller = self.run.seller
            sent = self.edit({"phi": seller.shares[self.name],
                              "proof": seller.proofs[self.name]})
            seller.receive_shares(self.name, sent["phi"], sent["proof"])


def _verdict(kind, field, edit, mode):
    config = AuctionConfig(n=2, k=3, flags=MODES[mode])
    editor = _editor(field, edit)
    run = AuctionRun(config, [1, 2], 4,
                     agent_factory=dishonest_bidder(2, EditingBidder, kind, editor))
    if kind == "decrypt-publish":
        post = run.seller._post

        def publish(round_name, posted_kind, payload):
            if posted_kind == "decrypt-publish" and payload["bidder"] == 1:
                payload = editor(payload)
            return post(round_name, posted_kind, payload)

        run.seller._post = publish
    try:
        outcome = run.run()
        rows = [run.bidder(i).own_row_values() for i in (1, 2)]
    except AuctionLabError as exc:
        return [type(exc).__name__, getattr(exc, "author", None),
                getattr(exc, "round_name", None), getattr(exc, "detail", str(exc))]
    return ["accepted", outcome.status, outcome.winner_bidder, outcome.winner_price,
            rows == outcome.v]


def _case(case):
    kind, field, rest = case.split(".", 2)
    if field == "unedited":
        return kind, None, None, rest
    return (kind, field, *rest.rsplit(".", 1))


@functools.cache
def _table():
    return json.loads(TABLE.read_text())


@pytest.mark.parametrize("case", CASES)
def test_edit_gets_its_pinned_verdict(case):
    assert _verdict(*_case(case)) == _table()[case]


def test_table_holds_every_case():
    assert sorted(_table()) == sorted(CASES)


def test_unedited_posts_are_accepted():
    table = _table()
    for kind in SCHEMAS:
        for mode in MODES:
            assert table[f"{kind}.unedited.{mode}"] == ["accepted", "winner", 2, 2, True]


# Proof records, and twins of them in the frozen-dataclass form records
# had before they were named tuples, with the same name, fields and repr.
RECORDS = {
    "PDLStatement": (sigma.PDLStatement(2, 8), dataclasses.make_dataclass(
        "PDLStatement", [("g", int), ("v", int)], frozen=True)(2, 8)),
    "Transcript": (sigma.Transcript((16,), 1, 2), dataclasses.make_dataclass(
        "Transcript", [("commitment", tuple), ("challenge", int), ("response", int),
                       ("hash_name", str)], frozen=True)((16,), 1, 2, "sha256")),
}


@pytest.mark.parametrize("record", RECORDS)
@pytest.mark.parametrize("kind,field", [(kind, f.name) for kind, schema in SCHEMAS.items()
                                        for f in schema.fields])
def test_a_record_in_a_payload_gets_the_verdict_of_a_dataclass(monkeypatch, kind,
                                                               field, record):
    """A named-tuple record placed in a payload is refused or accepted as
    its frozen-dataclass twin is, field by field.  Under authentication a
    record encodes as a list, so its post keeps its tag and the record gets
    the interactive verdict."""
    named, twin = RECORDS[record]
    monkeypatch.setitem(WRONG, "named", named)
    monkeypatch.setitem(WRONG, "twin", twin)
    for mode in ("interactive", "hashed"):
        assert _verdict(kind, field, "named", mode) == _verdict(kind, field, "twin", mode)
    assert (_verdict(kind, field, "named", "authenticate")
            == _verdict(kind, field, "named", "interactive"))
    assert repr(named) == repr(twin)


def test_every_kind_has_a_schema(monkeypatch):
    """SCHEMAS names every kind an honest party posts, apart from the
    seller's result, plus the decryption shares a bidder sends the seller."""
    sent = []
    receive = SellerAgent.receive_shares

    def receiving(self, author, phi, proof):
        sent.append(author)
        receive(self, author, phi, proof)

    monkeypatch.setattr(SellerAgent, "receive_shares", receiving)
    config = AuctionConfig(n=2, k=2, flags=DefenseFlags(noise_product_check=True))
    run, _ = run_auction(config, [1, 2], 1)
    posted = {post.kind for post in run.board.posts} - {"result"}
    assert "outcome-fix" in posted and sent
    assert set(SCHEMAS) == posted | {"decrypt-shares"}


if __name__ == "__main__":
    rows = {case: _verdict(*_case(case)) for case in CASES}
    TABLE.write_text("{\n" + ",\n".join(f"  {json.dumps(case)}: {json.dumps(row)}"
                                        for case, row in sorted(rows.items())) + "\n}\n")
