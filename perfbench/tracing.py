"""Span recorder for the traced benchmark run.

The recorder wraps public callables of the ``hqs`` package from the outside
(class attributes and module globals) and restores them afterwards; the
package itself is not modified.  Each wrapped call opens a span
(name, start, end, parent, op id).  Self time -- a span's duration minus the
time its child spans cover -- is accumulated online per span name, so the
per-layer split needs no second pass; the raw spans are kept in memory up to
a cap and written out when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import time
from array import array
from collections import defaultdict

clock = time.perf_counter

ROOT_OP = "bench.op"
ROOT_SETUP = "bench.setup"
SPAN_CAP = 400_000   # spans kept for the output file; self times count them all


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.stack = []            # open frames: [name id, start, child seconds, span id]
        self.pairs = defaultdict(int)   # (parent name id, name id) -> calls
        self.maxout_found = 0      # sets returned by maximal_outlived_sets
        self.phases = {}           # phase -> (self s, calls, inclusive s), by name id
        self.self_s = self.calls = self.total_s = None
        self.op = -1
        self._next_span = 0
        self._undo = []
        self.dropped_spans = 0
        self._sid = array("q")
        self._nid = array("i")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("q")
        self._op = array("q")

    # -- span bookkeeping ---------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin_phase(self, phase: str):
        if phase not in self.phases:
            self.phases[phase] = (defaultdict(float), defaultdict(int), defaultdict(float))
        self.self_s, self.calls, self.total_s = self.phases[phase]

    def _record(self, sid, nid, t0, t1, parent_sid):
        if len(self._sid) >= SPAN_CAP:
            self.dropped_spans += 1
            return
        self._sid.append(sid)
        self._nid.append(nid)
        self._start.append(t0)
        self._end.append(t1)
        self._parent.append(parent_sid)
        self._op.append(self.op)

    def _open(self, nid):
        sid = self._next_span
        self._next_span += 1
        frame = [nid, clock(), 0.0, sid]
        self.stack.append(frame)
        return frame

    def _close(self, frame):
        t1 = clock()
        self.stack.pop()
        dur = t1 - frame[1]
        nid = frame[0]
        self.self_s[nid] += dur - frame[2]
        self.calls[nid] += 1
        self.total_s[nid] += dur
        parent_sid = -1
        if self.stack:
            parent = self.stack[-1]
            parent[2] += dur
            parent_sid = parent[3]
        self._record(frame[3], nid, frame[1], t1, parent_sid)

    def open_root(self, name: str, op: int = -1):
        self.op = op
        return self._open(self.name_id(name))

    def close_root(self, frame):
        self._close(frame)
        self.op = -1

    # -- wrapping -------------------------------------------------------------

    def wrap(self, fn, name: str, on_result=None):
        nid = self.name_id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer.stack
            if not stack:
                return fn(*args, **kwargs)
            tracer.pairs[stack[-1][0], nid] += 1
            frame = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(frame)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, on_result=None):
        """Replace ``owner.attr`` by a traced wrapper until :meth:`restore`."""
        own = attr in vars(owner)
        original = getattr(owner, attr)
        self._undo.append((owner, attr, own, vars(owner).get(attr)))
        setattr(owner, attr, self.wrap(original, name, on_result))

    def patch_factory(self, owner, attr: str, name: str):
        """Wrap the callable that ``owner.attr`` returns (probe factories)."""
        factory = getattr(owner, attr)
        self._undo.append((owner, attr, True, factory))

        @functools.wraps(factory)
        def traced_factory(*args, **kwargs):
            return self.wrap(factory(*args, **kwargs), name)

        setattr(owner, attr, traced_factory)

    def restore(self):
        for owner, attr, own, original in reversed(self._undo):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._undo.clear()

    # -- output -----------------------------------------------------------------

    def write_spans(self, path):
        """Write the recorded spans as gzip'd CSV: id,name,start,end,parent,op."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(f"# spans kept {len(self._sid)}, dropped past the cap "
                     f"{self.dropped_spans}; times are perf_counter seconds\n")
            fh.write("id,name,start,end,parent,op\n")
            names = self.names
            for i in range(len(self._sid)):
                fh.write(f"{self._sid[i]},{names[self._nid[i]]},{self._start[i]:.9f},"
                         f"{self._end[i]:.9f},{self._parent[i]},{self._op[i]}\n")


def instrument(tracer: Tracer, hqs):
    """Wrap the public callables of every layer the benchmark reports on."""
    sim, scen, props, gen = hqs.sim, hqs.scenarios, hqs.props, hqs.gen
    tracer.patch(sim.World, "run", "sim.kernel")
    tracer.patch(sim.World, "state_snapshot", "sim.snapshot")
    tracer.patch(sim, "fingerprint", "sim.fingerprint")
    tracer.patch(sim.Trace, "to_jsonl", "sim.to_jsonl")
    for cls, layer in ((hqs.reconfig.ReconfigNode, "reconfig"),
                       (hqs.broadcast.BrbNode, "broadcast")):
        for hook in ("on_start", "on_request", "on_message", "on_tob", "on_timer"):
            tracer.patch(cls, hook, f"{layer}.{hook}")
    for cls in (scen.CheckSpammer, scen.BrbByzantine):
        for hook in ("on_init", "on_deliver", "on_tob", "delay", "reorder", "pick_tob"):
            tracer.patch(cls, hook, f"scenarios.adversary.{hook}")
    for factory in ("probe_intersection", "probe_active_inclusion",
                    "probe_active_availability"):
        tracer.patch_factory(scen, factory, "scenarios.probe." + factory[len("probe_"):])
    tracer.patch(scen, "probe_brb_consistency", "scenarios.probe.brb_consistency")
    tracer.patch(scen, "make_reconfig_world", "scenarios.build")
    tracer.patch(scen, "make_brb_world", "scenarios.build")
    tracer.patch(scen, "followers", "core.followers")
    tracer.patch(hqs.reconfig, "antichain", "core.antichain")
    tracer.patch(hqs.broadcast, "antichain", "core.antichain")

    def count_found(sets):
        tracer.maxout_found += len(sets)

    checkers = {
        "check_consistency": "props.consistency",
        "check_quorum_inclusion": "props.inclusion",
        "check_quorum_sharing": "props.sharing",
        "check_available_inside": "props.available_inside",
        "check_outlived": "props.outlived",
    }
    for attr, name in checkers.items():
        tracer.patch(props, attr, name)
    tracer.patch(props, "maximal_outlived_sets", "props.maxout", count_found)
    # gen imported these names itself, so its module globals are wrapped too
    tracer.patch(gen, "check_consistency", "props.consistency")
    tracer.patch(gen, "check_quorum_sharing", "props.sharing")
    tracer.patch(gen, "maximal_outlived_sets", "props.maxout", count_found)
    tracer.patch(gen, "new_quorum_system", "core.new_quorum_system")
    for attr in ("sharing_system", "arbitrary_system", "checked_sharing_system",
                 "outlived_system"):
        tracer.patch(gen, attr, "gen." + attr)
    for attr in ("build_graph", "condense", "sink_components"):
        tracer.patch(hqs.graph, attr, "graph." + attr)
