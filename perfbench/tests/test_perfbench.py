"""The benchmark's own tests: workloads pass at a tiny size, checkers bite,
seeds repeat, and the tracer sees every call the program makes.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import checks
import reference
import run
import tracer as tracer_mod
import workloads
from workloads import AttackWorkload, HonestWorkload, Op

TINY = {
    "honest-defended": HonestWorkload("tiny-defended", "small", 3, 3,
                                      all_defenses=True, round_size=4),
    "honest-interactive": HonestWorkload("tiny-interactive", "small", 3, 3,
                                         all_defenses=False, round_size=2),
    "attacks": AttackWorkload("tiny-attacks", "small", 3, 3),
}


@pytest.fixture
def lab():
    # Fresh per test: load_lab drops earlier imports, and the lazy imports
    # inside old module objects would then resolve to the new ones.
    return workloads.load_lab()


def tally():
    return {"attempted": 0, "failed": 0}


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("seed", [1, 2])
def test_tiny_workload_passes_every_operation(lab, tmp_path, name, seed):
    counts = tally()
    for op in TINY[name].make_round(lab, seed, 0, tmp_path):
        assert run.run_op(op, counts) is not None, op.label
    assert counts == {"attempted": TINY[name].round_size, "failed": 0}


# --------------------------------------------------------------------------
# Checks that bite
# --------------------------------------------------------------------------

def corrupt_outcome(op: Op, change) -> Op:
    def call():
        run_, outcome, attempts = op.call()
        return run_, change(outcome), attempts
    return Op(op.label, call, op.check)


def test_flipped_grid_cell_fails(lab, tmp_path):
    op = TINY["honest-defended"].make_round(lab, 1, 0, tmp_path)[0]

    def flip(outcome):
        v = [row[:] for row in outcome.v]
        i, j = (1, 0) if outcome.winner_bidder != 2 else (0, 0)
        v[i][j] = v[i][j] * lab.groups.SMALL_GROUP.g % lab.groups.SMALL_GROUP.p
        return dataclasses.replace(outcome, v=v)

    counts = tally()
    assert run.run_op(corrupt_outcome(op, flip), counts) is None
    assert counts == {"attempted": 1, "failed": 1}


def test_wrong_winner_fails(lab, tmp_path):
    op = TINY["honest-interactive"].make_round(lab, 1, 0, tmp_path)[0]

    def move(outcome):
        return dataclasses.replace(outcome, winner_bidder=outcome.winner_bidder % 3 + 1)

    counts = tally()
    assert run.run_op(corrupt_outcome(op, move), counts) is None
    assert counts == {"attempted": 1, "failed": 1}


def test_wrong_recovered_bid_fails(lab, tmp_path):
    op = TINY["attacks"].make_round(lab, 1, 0, tmp_path)[0]
    assert op.label.startswith("privacy ")

    def call():
        out_dir = op.call()
        path = out_dir / "report.json"
        report = json.loads(path.read_text())
        bids = report["outcome"]["recovered_bids"]
        bids[0] = bids[0] % 3 + 1
        path.write_text(json.dumps(report))
        return out_dir

    counts = tally()
    assert run.run_op(Op(op.label, call, op.check), counts) is None
    assert counts == {"attempted": 1, "failed": 1}


def test_exception_counts_as_failed():
    def call():
        raise RuntimeError("boom")

    counts = tally()
    assert run.run_op(Op("raises", call, lambda out: ([], 0)), counts) is None
    assert counts == {"attempted": 1, "failed": 1}


def test_cell_counts_match_the_program(lab):
    bids = [2, 3, 3, 1]
    flat = [1 if j + 1 == b else 0 for b in bids for j in range(3)]
    image = lab.recovery.apply_f(lab.recovery.build_matrix(4, 3), flat)
    assert [c for row in checks.cell_counts(bids, 3) for c in row] == image
    assert checks.expected_winner(bids) == (2, 3)


def test_stopped_round_reads_error_then_board():
    board = [{"round": "keygen"}, {"round": "bid"}, {"round": "outcome"}]
    assert checks.stopped_round({"detail": "decrypt share by bidder-3 rejected"}, board) == "decrypt"
    assert checks.stopped_round({"detail": "caught the stripped masking"}, board) == "outcome"
    assert checks.stopped_round({"detail": "no verifier to relay"}, None) is None


# --------------------------------------------------------------------------
# Seeds
# --------------------------------------------------------------------------

def test_same_seed_gives_identical_counts_and_board_size(lab, tmp_path):
    work = TINY["attacks"]
    first = run.measure_traced(work, 5, 0, tmp_path, tally())
    second = run.measure_traced(work, 5, 0, tmp_path, tally())
    counted = [name for name, unit in tracer_mod.PER_LAYER.items() if unit != "s"]
    assert {m: first[m] for m in counted} == {m: second[m] for m in counted}
    sizes = [run.measure(work, 5, 0, tmp_path, tally())["board_kib_per_op"]
             for _ in range(2)]
    assert sizes[0] == sizes[1] > 0


def test_seeds_give_different_inputs(lab, tmp_path):
    work = TINY["attacks"]
    labels = [[op.label for op in work.make_round(lab, seed, 0, tmp_path)]
              for seed in (1, 2)]
    assert labels[0] != labels[1]


# --------------------------------------------------------------------------
# Wrapper coverage: the tracer against the interpreter's own call events
# --------------------------------------------------------------------------

def profiled_calls(lab, action, codes):
    """Run action() under sys.setprofile and count the outermost calls into
    each group of code objects (codes maps code -> group), as the tracer's
    timers do: a call made while one of its group is running is not counted."""
    seen = Counter()
    depth = Counter()

    def hook(frame, event, arg):
        key = codes.get(frame.f_code)
        if key is None:
            return
        if event == "call":
            if not depth[key]:
                seen[key] += 1
            depth[key] += 1
        elif event == "return":
            depth[key] -= 1

    sys.setprofile(hook)
    try:
        action()
    finally:
        sys.setprofile(None)
    return seen


def test_tracer_counts_every_call(lab, tmp_path):
    """Counts from the wrappers equal the calls the interpreter makes into
    the original functions, including calls through names other modules
    imported (attacks, defenses, scenarios) and through registries."""
    p = lab.protocol
    codes = {
        p.compute_outcome_bases.__code__: "protocol.outcome_base",
        p.collect_bids.__code__: "protocol.board_read",
        p.collect_outcome.__code__: "protocol.board_read",
        p.collect_keyshares.__code__: "protocol.board_read",
        lab.groups.GroupParams.exp.__code__: "groups.exp",
        lab.groups.GroupParams.inv.__code__: "groups.exp",
        lab.sigma.fiat_shamir_challenge.__code__: "sigma.fs_hash",
        lab.sigma.ProverSession.commit.__code__: "sigma.prove",
        lab.attacks.forge_outcome_eqdl.__code__: "attacks.forge",
        lab.recovery.recover_bids.__code__: "recovery.recover",
        p.AuctionRun.step_keygen.__code__: "protocol.keygen",
        lab.board.canonical_bytes.__code__: "board.encode",
    }
    ops = (TINY["attacks"].make_round(lab, 3, 0, tmp_path)
           + TINY["honest-defended"].make_round(lab, 3, 0, tmp_path))
    tracer = tracer_mod.Tracer(lab.canonical_bytes)
    uninstall = tracer_mod.install(tracer, lab)

    def action():
        for op in ops:
            with tracer.op():
                out = op.call()
            if isinstance(out, Path):
                shutil.rmtree(out)

    try:
        seen = profiled_calls(lab, action, codes)
    finally:
        uninstall()
    for key in set(codes.values()):
        assert tracer.timer(key).calls == seen[key], key
    assert seen["attacks.forge"] > 0 and seen["recovery.recover"] > 0
    assert seen["board.encode"] > 0


def test_encoding_is_the_programs_alone(lab, tmp_path):
    """Without defenses nothing in the program encodes payloads, so the
    benchmark's own encoding of the board and its checks must not show."""
    metrics = run.measure_traced(TINY["honest-interactive"], 1, 0, tmp_path, tally())
    assert metrics["board.encode_calls"] == 0
    assert metrics["board.bytes_posted"] > 0


def test_posts_scanned_counts_scans_that_stop_early(lab):
    board = lab.board.BulletinBoard()
    for kind in "abab":
        board.append("bid", "bidder-1", kind, {})
    tracer = tracer_mod.Tracer(lab.canonical_bytes)
    uninstall = tracer_mod.install(tracer, lab)
    try:
        assert next(board.select(kind="b")).seq == 1   # dropped after 2 posts
        assert len(list(board.select(kind="a"))) == 2  # runs out after all 4
        scan = board.select(kind="a")
        next(scan)
        board.append("bid", "bidder-2", "a", {})
        assert [post.seq for post in scan] == [2, 4]   # sees the late post: 5
    finally:
        uninstall()
    assert tracer.counts["board.posts_scanned"] == 2 + 4 + 5


@pytest.mark.parametrize("all_defenses", [True, False])
def test_reference_run_counts_match_interpreter(lab, all_defenses):
    """The reference command's outcome-base count is every call made."""
    code = {lab.protocol.compute_outcome_bases.__code__: "calls"}
    metrics = {}
    seen = profiled_calls(
        lab, lambda: metrics.update(reference.reference_counts(lab, all_defenses)), code)
    assert metrics["protocol.outcome_base_calls"] == seen["calls"] > 0


def test_install_is_undone(lab):
    before = (lab.protocol.compute_outcome_bases, lab.attacks.compute_outcome_bases,
              lab.defenses.canonical_bytes, lab.groups.GroupParams.exp,
              lab.scenarios._RUNNERS["honest"])
    uninstall = tracer_mod.install(tracer_mod.Tracer(lab.canonical_bytes), lab)
    assert lab.attacks.compute_outcome_bases is not before[1]
    assert lab.defenses.canonical_bytes is not before[2]
    uninstall()
    assert (lab.protocol.compute_outcome_bases, lab.attacks.compute_outcome_bases,
            lab.defenses.canonical_bytes, lab.groups.GroupParams.exp,
            lab.scenarios._RUNNERS["honest"]) == before


# --------------------------------------------------------------------------
# The command
# --------------------------------------------------------------------------

def test_refuses_to_run_without_program_sources(tmp_path):
    bench = tmp_path / "perfbench"
    shutil.copytree(run.HERE, bench, ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "attacks-mid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
