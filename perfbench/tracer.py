"""Per-layer tracing from outside the program.

``install`` wraps every public function and public method of the measured
auctionlab modules, and rebinds every name other modules imported them
under, so no call slips past.  Each wrapper:

* opens a span (name, start, end, parent) when the call crosses from one
  layer into another; calls inside one layer stay within their caller's span;
* aggregates hot leaf functions (``GroupParams`` methods, ``canonical_bytes``,
  ``fiat_shamir_challenge``, the tiny protocol helpers and every resume of
  ``BulletinBoard.select``) into per-parent time instead of spans;
* feeds the counters and timers the benchmark reports per layer.

Spans stay in memory until ``fold`` turns them into self times: a span's
duration minus the time its wrapped children cover.  The benchmark's own
work (encoding the posted payloads, checking outputs) runs only once the
wrappers are removed, so the counters hold the program's calls alone.
"""

from __future__ import annotations

import gc
import inspect
import time
import types
from array import array
from collections import Counter
from contextlib import contextmanager

# The modules of src/auctionlab/ that are measured.  elgamal's only cost is
# modexp (charged to groups), cli is argparse only, errors does no work.
MEASURED = ("groups", "sigma", "board", "protocol", "defenses", "attacks",
            "recovery", "scenarios")

HOT = {
    "board.canonical_bytes",
    "sigma.fiat_shamir_challenge",
    "protocol.bidder_name",
    "protocol.base_is_structurally_empty",
    "protocol.AuctionConfig.marker_for",
}

# Functions whose outermost calls are counted and timed together.
TIMERS = {
    "groups.GroupParams.exp": "groups.exp",
    "groups.GroupParams.inv": "groups.exp",
    "sigma.ProverSession.commit": "sigma.prove",
    "sigma.verify_transcript": "sigma.verify",
    "sigma.verify_pdl": "sigma.verify",
    "sigma.verify_eqdl": "sigma.verify",
    "sigma.bid_validity_verify": "sigma.verify",
    "sigma.sum_validity_verify": "sigma.verify",
    "sigma.fiat_shamir_challenge": "sigma.fs_hash",
    "board.canonical_bytes": "board.encode",
    "protocol.AuctionRun.step_keygen": "protocol.keygen",
    "protocol.AuctionRun.step_bid": "protocol.bid",
    "protocol.AuctionRun.step_outcome": "protocol.outcome",
    "protocol.AuctionRun.step_decrypt": "protocol.decrypt",
    "protocol.AuctionRun.determine_winner": "protocol.result",
    "protocol.compute_outcome_bases": "protocol.outcome_base",
    "protocol.collect_keyshares": "protocol.board_read",
    "protocol.collect_bids": "protocol.board_read",
    "protocol.collect_outcome": "protocol.board_read",
    "defenses.authenticate_post": "defenses.auth",
    "defenses.verify_post": "defenses.auth",
    "defenses.scan_exceptional_bases": "defenses.scan",
    "defenses.check_exceptional_base": "defenses.scan",
    "defenses.check_noise_products": "defenses.scan",
    "defenses.check_noise_cancellation": "defenses.scan",
    "attacks.forge_outcome_eqdl": "attacks.forge",
    "attacks.noise_removal_shares": "attacks.noise_removal",
    "recovery.recover_bids": "recovery.recover",
    "recovery.exponent_from_power": "recovery.power_search",
    "scenarios.run_scenario": "scenarios.run",
    "scenarios.emit_report": "scenarios.emit",
}


def _rejected(tracer, result, outer):
    if outer and result is False:
        tracer.counts["sigma.verify_rejected"] += 1


def _fs_bytes(tracer, result, outer):
    tracer.counts["sigma.fs_bytes"] += len(result)


def _posted(tracer, result, outer):
    tracer.posted.append(result)


def _decisive(tracer, result, outer):
    if result.status in ("winner", "no-winner"):
        tracer.counts["protocol.decisive"] += 1


def _additions(tracer, result, outer):
    tracer.counts["recovery.additions"] += result.additions


def _report_bytes(tracer, result, outer):
    tracer.counts["scenarios.report_bytes"] += sum(p.stat().st_size for p in result)


HOOKS = {
    "sigma.verify_transcript": _rejected,
    "sigma.verify_pdl": _rejected,
    "sigma.verify_eqdl": _rejected,
    "sigma.bid_validity_verify": _rejected,
    "sigma.sum_validity_verify": _rejected,
    "sigma.serialize_statement": _fs_bytes,
    "board.BulletinBoard.append": _posted,
    "protocol.AuctionRun.run": _decisive,
    "recovery.recover_bids": _additions,
    "scenarios.emit_report": _report_bytes,
}

# Per-layer metrics, reported per operation: name -> unit.
PER_LAYER = {f"{layer}.self_s": "s" for layer in MEASURED}
PER_LAYER.update({
    "groups.exp_calls": "count", "groups.exp_s": "s",
    "sigma.prove_calls": "count", "sigma.verify_calls": "count",
    "sigma.verify_s": "s", "sigma.verify_rejected": "count",
    "sigma.fs_hash_calls": "count", "sigma.fs_bytes": "B", "sigma.fs_hash_s": "s",
    "board.posts": "count", "board.bytes_posted": "B", "board.encode_calls": "count",
    "board.encode_s": "s", "board.posts_scanned": "count",
    "protocol.keygen_s": "s", "protocol.bid_s": "s", "protocol.outcome_s": "s",
    "protocol.decrypt_s": "s", "protocol.result_s": "s",
    "protocol.outcome_base_calls": "count", "protocol.outcome_base_s": "s",
    "protocol.board_read_calls": "count", "protocol.board_read_s": "s",
    "protocol.attempts": "count", "protocol.attempt_yield": "ratio",
    "defenses.auth_calls": "count", "defenses.auth_s": "s",
    "defenses.scan_calls": "count", "defenses.scan_s": "s",
    "defenses.redraw_posts": "count",
    "attacks.forge_calls": "count", "attacks.forge_s": "s",
    "attacks.noise_removal_s": "s",
    "recovery.recover_calls": "count", "recovery.recover_s": "s",
    "recovery.additions": "count", "recovery.power_search_s": "s",
    "scenarios.run_s": "s", "scenarios.emit_s": "s", "scenarios.report_bytes": "B",
})


class _Timer:
    __slots__ = ("calls", "secs", "depth")

    def __init__(self):
        self.calls = 0
        self.secs = 0.0
        self.depth = 0


class Tracer:
    """Spans, leaf aggregates and counters for one traced run."""

    def __init__(self, encode):
        # The program's own canonical_bytes, captured before any wrapping; it
        # is called only after uninstall, when its recursion is unwrapped too.
        self.encode = encode
        self.names: list[str] = ["op"]      # name 0: the operation's root span
        self.name_layer: list[str] = ["bench"]
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_leaf = array("d")          # hot-leaf time under each span
        self.leaf_secs = Counter()           # hot-leaf time per layer
        self.stack: list[tuple[int, str]] = [(-1, "bench")]
        self.timers: dict[str, _Timer] = {}
        self.counts = Counter()
        self.posted: list = []
        self.ops = 0

    # -- wrapping ------------------------------------------------------------

    def wrap(self, qualname: str, layer: str, orig):
        """The traced stand-in for ``orig``, a function of ``layer``."""
        name_id = len(self.names)
        self.names.append(qualname)
        self.name_layer.append(layer)
        timer_key = TIMERS.get(qualname)
        if timer_key is None and (layer == "groups" or qualname in HOT):
            timer_key = qualname             # private timer: nesting guard only
        timer = self.timers.setdefault(timer_key, _Timer()) if timer_key else None
        hook = HOOKS.get(qualname)
        if inspect.isgeneratorfunction(orig):
            return self._wrap_generator(orig, layer)
        if layer == "groups" or qualname in HOT:
            return self._wrap_leaf(orig, layer, timer)
        return self._wrap_span(orig, layer, name_id, timer, hook)

    def _wrap_leaf(self, orig, layer, timer):
        stack, clock, leaf_secs = self.stack, time.perf_counter, self.leaf_secs
        span_leaf = self.span_leaf

        def leaf(*args, **kwargs):
            if timer.depth:                  # recursion: the outer call times it
                return orig(*args, **kwargs)
            parent, top = stack[-1]
            stack.append((parent, layer))
            timer.depth = 1
            start = clock()
            try:
                return orig(*args, **kwargs)
            finally:
                elapsed = clock() - start
                timer.depth = 0
                timer.calls += 1
                timer.secs += elapsed
                stack.pop()
                if top != layer and parent >= 0:
                    span_leaf[parent] += elapsed
                    leaf_secs[layer] += elapsed

        return leaf

    def _wrap_span(self, orig, layer, name_id, timer, hook):
        stack, clock = self.stack, time.perf_counter
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end, span_leaf = self.span_start, self.span_end, self.span_leaf
        tracer = self

        def span(*args, **kwargs):
            outer = True
            if timer is not None:
                outer = not timer.depth
                timer.depth += 1
                if outer:
                    timer_start = clock()
            parent, top = stack[-1]
            cross = top != layer
            if cross:
                sid = len(span_name)
                span_name.append(name_id)
                span_parent.append(parent)
                span_end.append(0.0)
                span_leaf.append(0.0)
                stack.append((sid, layer))
                span_start.append(clock())
            try:
                result = orig(*args, **kwargs)
            finally:
                if cross:
                    span_end[sid] = clock()
                    stack.pop()
                if timer is not None:
                    timer.depth -= 1
                    if outer:
                        timer.secs += clock() - timer_start
                        timer.calls += 1
            if hook is not None:
                hook(tracer, result, outer)
            return result

        return span

    def _wrap_generator(self, orig, layer):
        """Each resume of the generator is a hot leaf of its layer.

        ``BulletinBoard.select`` is the only generator: it walks
        ``board.posts`` in order, and a post's ``seq`` is its index there.
        So a scan has visited every post when it runs out, and up to the last
        post it yielded when its caller stops early; the ``finally`` counts
        scans that are closed or dropped as well as those that run out.
        """
        stack, clock = self.stack, time.perf_counter
        span_leaf, leaf_secs, counts = self.span_leaf, self.leaf_secs, self.counts

        def resumes(gen, board):
            visited = 0
            try:
                while True:
                    parent, top = stack[-1]
                    cross = top != layer
                    if cross:
                        stack.append((parent, layer))
                        start = clock()
                    try:
                        item = next(gen)
                    except StopIteration:
                        visited = len(board.posts)
                        return
                    finally:
                        if cross:
                            elapsed = clock() - start
                            stack.pop()
                            if parent >= 0:
                                span_leaf[parent] += elapsed
                                leaf_secs[layer] += elapsed
                    visited = item.seq + 1
                    yield item
            finally:
                counts["board.posts_scanned"] += visited

        def generator(board, *args, **kwargs):
            return resumes(orig(board, *args, **kwargs), board)

        return generator

    # -- operations ----------------------------------------------------------

    @contextmanager
    def op(self):
        """Root span of one benchmark operation; every traced call nests in it."""
        sid = len(self.span_name)
        self.span_name.append(0)
        self.span_parent.append(-1)
        self.span_end.append(0.0)
        self.span_leaf.append(0.0)
        self.stack.append((sid, "bench"))
        self.span_start.append(time.perf_counter())
        try:
            yield
        finally:
            self.span_end[sid] = time.perf_counter()
            self.stack.pop()
            self.ops += 1

    def count_posts(self):
        """Add the posts made so far to the board counters.  Called with the
        wrappers removed, so this encoding is not counted as the program's."""
        posts, self.posted = self.posted, []
        self.counts["board.posts"] += len(posts)
        self.counts["board.bytes_posted"] += sum(len(self.encode(p.payload))
                                                 for p in posts)
        self.counts["defenses.redraw_posts"] += sum(p.kind == "outcome-fix"
                                                    for p in posts)

    # -- results -------------------------------------------------------------

    def fold(self) -> Counter:
        """Self time per layer: span durations minus the wrapped children's."""
        count = len(self.span_name)
        start, end = self.span_start, self.span_end
        parent = self.span_parent
        children = [0.0] * count
        for i in range(count):
            if parent[i] >= 0:
                children[parent[i]] += end[i] - start[i]
        self_secs = Counter(self.leaf_secs)
        for i in range(count):
            layer = self.name_layer[self.span_name[i]]
            self_secs[layer] += end[i] - start[i] - children[i] - self.span_leaf[i]
        return self_secs

    def timer(self, key: str) -> _Timer:
        return self.timers.get(key, _Timer())

    def metrics(self) -> dict[str, float]:
        """Every PER_LAYER metric, per traced operation."""
        ops = max(self.ops, 1)
        self_secs = self.fold()
        out = {f"{layer}.self_s": self_secs[layer] / ops for layer in MEASURED}
        for key in ("groups.exp", "sigma.verify", "sigma.fs_hash", "board.encode",
                    "protocol.outcome_base", "protocol.board_read", "defenses.auth",
                    "defenses.scan", "attacks.forge", "recovery.recover"):
            out[f"{key}_calls"] = self.timer(key).calls / ops
            out[f"{key}_s"] = self.timer(key).secs / ops
        for key in ("protocol.keygen", "protocol.bid", "protocol.outcome",
                    "protocol.decrypt", "protocol.result", "attacks.noise_removal",
                    "recovery.power_search", "scenarios.run", "scenarios.emit"):
            out[f"{key}_s"] = self.timer(key).secs / ops
        out["sigma.prove_calls"] = self.timer("sigma.prove").calls / ops
        for key in ("sigma.verify_rejected", "sigma.fs_bytes", "board.posts",
                    "board.bytes_posted", "board.posts_scanned",
                    "defenses.redraw_posts", "recovery.additions",
                    "scenarios.report_bytes"):
            out[key] = self.counts[key] / ops
        attempts = self.timer("protocol.keygen").calls
        out["protocol.attempts"] = attempts / ops
        out["protocol.attempt_yield"] = (self.counts["protocol.decisive"] / attempts
                                         if attempts else 0.0)
        return {name: out[name] for name in PER_LAYER}


def install(tracer: Tracer, lab) -> callable:
    """Wrap the measured modules of ``lab``.  Returns a function that undoes
    it and then settles the posts and board scans of the traced calls."""
    undo = []
    wrapped = {}
    for layer in MEASURED:
        module = getattr(lab, layer)
        for name, obj in list(vars(module).items()):
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                wrapped[obj] = tracer.wrap(f"{layer}.{name}", layer, obj)
            elif inspect.isclass(obj):
                for attr, member in list(vars(obj).items()):
                    if attr.startswith("_") or not inspect.isfunction(member):
                        continue
                    undo.append((obj, attr, member))
                    setattr(obj, attr, tracer.wrap(f"{layer}.{obj.__name__}.{attr}",
                                                   layer, member))
    # Rebind every module-level name and registry entry that holds an
    # original, including names imported by other modules.
    for module in lab.modules:
        for name, value in list(vars(module).items()):
            if isinstance(value, types.FunctionType) and value in wrapped:
                undo.append((module, name, value))
                setattr(module, name, wrapped[value])
            elif isinstance(value, dict) and not name.startswith("__"):
                for key, entry in list(value.items()):
                    if isinstance(entry, types.FunctionType) and entry in wrapped:
                        undo.append((value, key, entry))
                        value[key] = wrapped[entry]

    def uninstall():
        for target, name, original in reversed(undo):
            if isinstance(target, dict):
                target[name] = original
            else:
                setattr(target, name, original)
        gc.collect()                         # close scans a cycle still holds
        tracer.count_posts()

    return uninstall
