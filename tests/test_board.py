"""Append-only message board and canonical serialization."""

import copy
import json
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from auctionlab import board as board_module
from auctionlab import defenses
from auctionlab.board import BulletinBoard, FrozenDict, FrozenList, canonical_bytes
from auctionlab.defenses import DefenseFlags
from auctionlab.groups import DEFAULT_MARKER, MID_GROUP
from auctionlab.protocol import AuctionConfig, AuctionRun, run_with_restarts


class TestCanonicalBytes:
    def test_frozen_encodings(self):
        assert canonical_bytes(None) == b"n"
        assert canonical_bytes(True) == b"b1"
        assert canonical_bytes(False) == b"b0"
        assert canonical_bytes(0) == b"i\x00\x00\x00\x01\x00"
        assert canonical_bytes(255) == b"i\x00\x00\x00\x01\xff"
        assert canonical_bytes("hi") == b"s\x00\x00\x00\x02hi"

    def test_dict_key_order_irrelevant(self):
        a = canonical_bytes({"x": 1, "y": [2, 3]})
        b = canonical_bytes({"y": [2, 3], "x": 1})
        assert a == b

    def test_distinct_values_distinct_bytes(self):
        seen = set()
        for obj in (None, False, True, 0, 1, "", "0", [0], [[0]], {"a": 0},
                    {"a": 1}, {"b": 0}, [0, 0], [1], "1", 10, 256):
            enc = canonical_bytes(obj)
            assert enc not in seen, obj
            seen.add(enc)

    @given(st.recursive(
        st.none() | st.booleans() | st.integers(0, 2**40) | st.text(max_size=8),
        lambda inner: st.lists(inner, max_size=4)
        | st.dictionaries(st.text(max_size=4), inner, max_size=4),
        max_leaves=12))
    @settings(max_examples=80)
    def test_deterministic(self, obj):
        assert canonical_bytes(obj) == canonical_bytes(obj)


class TestBoard:
    def _filled(self):
        board = BulletinBoard()
        board.append("keygen", "bidder-1", "key", {"y": 8})
        board.append("keygen", "bidder-2", "key", {"y": 9})
        board.append("bid", "bidder-1", "bid", {"alphas": [13]})
        board.append("bid", "bidder-1", "bid", {"alphas": [16]})
        return board

    def test_sequence_numbers_increase(self):
        board = self._filled()
        seqs = [post.seq for post in board.select()]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)

    def test_select_filters(self):
        board = self._filled()
        assert len(list(board.select(round="keygen"))) == 2
        assert len(list(board.select(round="bid", author="bidder-1"))) == 2
        assert list(board.select(round="bid", author="bidder-2")) == []

    def test_latest_by_author_takes_newest(self):
        board = self._filled()
        latest = board.latest_by_author("bid", "bid")
        assert latest["bidder-1"].payload == {"alphas": [16]}

    def test_posts_are_frozen(self):
        board = self._filled()
        post = next(iter(board.select()))
        with pytest.raises(Exception):
            post.seq = 99

    def test_to_json_round_trips_through_json(self):
        board = self._filled()
        dumped = json.dumps(board.to_json())
        loaded = json.loads(dumped)
        assert len(loaded) == 4
        assert loaded[0]["author"] == "bidder-1"
        assert all(isinstance(entry["payload"], str) for entry in loaded)

    def test_to_json_exports_a_payload_the_encoder_refuses(self):
        """A key share with y = -1 is refused by the keygen check; the
        board still exports, with that payload null and the encoder's
        message beside it, and every other entry as before."""
        from auctionlab.errors import ProofRejected

        run = AuctionRun(AuctionConfig(n=2, k=2), [1, 2], 0)
        run.bidder(1).keygen()
        run.board.append("keygen", "bidder-2", "keyshare",
                         {"bidder": 2, "y": -1, "proof": None})
        with pytest.raises(ProofRejected):
            run._verify_keygen()
        first, refused = json.loads(json.dumps(run.board.to_json()))
        assert first == {"seq": 0, "round": "keygen", "author": "bidder-1",
                         "kind": "keyshare", "auth": None,
                         "payload": run.board.posts[0].payload_bytes().hex()}
        assert refused == {"seq": 1, "round": "keygen", "author": "bidder-2",
                           "kind": "keyshare", "payload": None, "auth": None,
                           "payload_error": "payload ints must be non-negative"}

    @pytest.mark.parametrize("auth", [b"00", 5])
    def test_to_json_exports_a_tag_that_is_not_a_str(self, auth):
        """A key share tagged with bytes or an int is refused by the keygen
        check; the board still exports, with that tag null and its type
        named beside it."""
        from auctionlab.errors import ProofRejected

        run = AuctionRun(AuctionConfig(n=2, k=2), [1, 2], 0)
        run.bidder(1).keygen()
        run.board.append("keygen", "bidder-2", "keyshare",
                         {"bidder": 2, "y": 4, "proof": None}, auth=auth)
        with pytest.raises(ProofRejected):
            run._verify_keygen()
        first, refused = json.loads(json.dumps(run.board.to_json()))
        assert first["auth"] is None and "auth_error" not in first
        assert refused == {"seq": 1, "round": "keygen", "author": "bidder-2",
                           "kind": "keyshare", "auth": None,
                           "auth_error": f"tag of type {type(auth).__name__}",
                           "payload": run.board.posts[1].payload_bytes().hex()}

    def test_payload_bytes_match_canonical(self):
        board = self._filled()
        post = next(iter(board.select(round="keygen", author="bidder-1")))
        assert post.payload_bytes() == canonical_bytes({"y": 8})


def _posted(payload, auth=None):
    return BulletinBoard().append("bid", "bidder-1", "bid", payload, auth=auth)


PAYLOAD = {"bidder": 1, "alphas": [3, 4], "proofs": [{"com": [5], "chal": 6}],
           "cells": ([1, 2],)}


# Every way to change a dict or a list in place, by method and arguments.
DICT_EDITS = [("__setitem__", ("x", 1)), ("__delitem__", ("x",)), ("__ior__", ({"x": 1},)),
              ("clear", ()), ("pop", ("x",)), ("popitem", ()), ("setdefault", ("x", 1)),
              ("update", ({"x": 1},))]
LIST_EDITS = [("__setitem__", (0, 9)), ("__delitem__", (0,)), ("__iadd__", ([1],)),
              ("__imul__", (2,)), ("append", (5,)), ("extend", ([1],)), ("insert", (0, 1)),
              ("pop", ()), ("remove", (3,)), ("clear", ()), ("sort", ()), ("reverse", ())]
# Where in PAYLOAD each container sits.
DICTS = {"payload": lambda p: p, "proof": lambda p: p["proofs"][0]}
LISTS = {"alphas": lambda p: p["alphas"], "com": lambda p: p["proofs"][0]["com"],
         "cell-in-tuple": lambda p: p["cells"][0]}
EDITS = [(where, method, args) for where in DICTS for method, args in DICT_EDITS] + [
    (where, method, args) for where in LISTS for method, args in LIST_EDITS]


class TestFrozenPayloads:
    @pytest.mark.parametrize("auth", [None, "00"], ids=["untagged", "tagged"])
    @pytest.mark.parametrize("where,method,args", EDITS,
                             ids=[f"{where}.{method}" for where, method, _ in EDITS])
    def test_editing_a_posted_payload_raises(self, where, method, args, auth):
        post = _posted(copy.deepcopy(PAYLOAD), auth)
        container = {**DICTS, **LISTS}[where](post.payload)
        with pytest.raises(TypeError, match="cannot be changed"):
            getattr(container, method)(*args)
        assert post.payload == PAYLOAD

    def test_the_authors_later_edits_do_not_reach_the_board(self):
        mine = copy.deepcopy(PAYLOAD)
        post = _posted(mine, auth="00")
        mine["bidder"] = 2
        mine["alphas"].append(5)
        mine["proofs"][0]["com"][0] = 7
        assert post.payload == PAYLOAD
        assert post.payload_bytes() == canonical_bytes(PAYLOAD)

    @pytest.mark.parametrize("make_copy", [dict, copy.copy, copy.deepcopy,
                                           lambda p: pickle.loads(pickle.dumps(p))],
                             ids=["dict", "copy", "deepcopy", "pickle"])
    def test_copies_are_editable(self, make_copy):
        post = _posted(copy.deepcopy(PAYLOAD))
        mine = make_copy(post.payload)
        assert type(mine) is dict and mine == PAYLOAD
        mine["bidder"] = 2
        if make_copy in (dict, copy.copy):
            return
        assert type(mine["alphas"]) is list and type(mine["proofs"][0]) is dict
        mine["alphas"].append(5)
        mine["proofs"][0]["com"].append(1)
        assert post.payload == PAYLOAD

    def test_frozen_types_look_like_the_originals(self):
        post = _posted(copy.deepcopy(PAYLOAD))
        assert repr(post.payload) == repr(PAYLOAD)
        assert type(post.payload) is FrozenDict
        assert type(post.payload["alphas"]) is FrozenList
        assert type(post.payload["cells"]) is tuple
        assert post.payload["alphas"] == [3, 4] and post.payload["alphas"] + [5] == [3, 4, 5]
        assert json.loads(json.dumps(post.payload)) == json.loads(json.dumps(PAYLOAD))

    def test_only_tagged_posts_keep_their_bytes(self):
        assert _posted({"y": 8}).encoded is None
        assert _posted({"y": 8}, auth="00").encoded == canonical_bytes({"y": 8})

    def test_a_refused_payload_is_posted_without_bytes(self):
        for auth in (None, "00"):
            post = _posted({"y": -1, "z": [1.5]}, auth)
            assert post.encoded is None and post.payload == {"y": -1, "z": [1.5]}
            with pytest.raises(TypeError):
                post.payload["z"].append(1)
            with pytest.raises(ValueError, match="non-negative"):
                post.payload_bytes()

    def test_a_signed_payload_the_encoder_refuses_is_posted_untagged(self):
        signed = []
        post = BulletinBoard().append("bid", "bidder-1", "bid", {"y": -1},
                                      sign=lambda data: signed.append(data) or "00")
        assert signed == [] and post.auth is None and post.encoded is None
        assert post.payload == {"y": -1}

    def test_sign_tags_the_stored_bytes(self):
        signed = []
        post = BulletinBoard().append("bid", "bidder-1", "bid", {"y": 8},
                                      sign=lambda data: signed.append(data) or "tag")
        assert post.auth == "tag" and signed == [post.encoded] == [canonical_bytes({"y": 8})]


def test_an_honest_defended_auction_encodes_each_post_once(monkeypatch):
    """With every defense on each post is walked once, when it is appended:
    its tag is made and checked over the stored bytes."""
    encodings, posts = [], []
    encode, append = board_module.canonical_bytes, BulletinBoard.append

    def counting_encode(obj, *args, **kwargs):
        encodings.append(obj)
        return encode(obj, *args, **kwargs)

    def counting_append(self, *args, **kwargs):
        posts.append(append(self, *args, **kwargs))
        return posts[-1]

    for module in (board_module, defenses):
        monkeypatch.setattr(module, "canonical_bytes", counting_encode)
    monkeypatch.setattr(BulletinBoard, "append", counting_append)
    config = AuctionConfig(n=4, k=6, params=MID_GROUP, marker=DEFAULT_MARKER["mid"],
                           flags=DefenseFlags.all_on())
    run_with_restarts(config, [2, 6, 1, 6], 3)
    assert posts and len(encodings) == len(posts)
    assert all(post.encoded is not None for post in posts)
