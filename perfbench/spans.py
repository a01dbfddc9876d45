"""Span tracing for the traced benchmark run.

The tracer wraps the public functions of each oddcycle layer at the module
attribute where their callers look them up (``oddcycle.experiments.
verify_blocker`` is the name the sampler calls, ``oddcycle.torus.
verify_blocker`` the one ``min_blocker`` calls), so nothing under ``src/``
changes.  Each call records a span (name, start, end, parent, thread) in
memory; counts are read from the return values.  Spans opened on a worker
thread with no open span of their own take the innermost open span of the
installing thread as parent, which is how ``estimate_events`` owns the
samples its thread pool runs.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from collections import defaultdict


def _count_starts(c, r):
    c["quantum.optimize_angles.starts"] += r["starts"]


def _count_tables(c, r):
    c["games.classical_value_exact.tables"] += r.evaluations


def _count_iterations(c, r):
    c["games.classical_value_search.iterations"] += r.evaluations


def _count_blocked(c, r):
    c["torus.verify_blocker.blocked"] += bool(r["blocked"])


def _count_nodes(c, r):
    c["torus.min_blocker.nodes"] += r.get("nodes", 0)


def _count_attempts(c, r):
    c["experiments.sample_torical_graph.attempts"] += r["attempts"]


def _count_contraction(c, r):
    c["experiments.contraction_map.image"] += r.image_count
    c["experiments.contraction_map.preimage"] += r.preimage_count
    c["experiments.contraction_map.degenerate"] += r.image_count == 0


# (module, attribute, span name, counter).  One public function can be bound
# under several modules; every binding a caller uses is wrapped, all under
# the same span name.
WRAP_POINTS = (
    ("oddcycle.cli", "main", "cli.main", None),
    ("oddcycle.cli", "dumps", "serialize.dumps", None),
    ("oddcycle.cli", "estimate_events", "experiments.estimate_events", None),
    ("oddcycle.cli", "foam_probes", "experiments.foam_probes", None),
    ("oddcycle.cli", "classical_value_exact", "games.classical_value_exact", _count_tables),
    ("oddcycle.cli", "classical_value_search", "games.classical_value_search", _count_iterations),
    ("oddcycle.cli", "make_odd_cycle_game", "games.make_game", None),
    ("oddcycle.cli", "make_chsh_game", "games.make_game", None),
    ("oddcycle.cli", "optimize_angles", "quantum.optimize_angles", _count_starts),
    ("oddcycle.cli", "win_probability", "quantum.win_probability", None),
    ("oddcycle.cli", "verify_blocker", "torus.verify_blocker", _count_blocked),
    ("oddcycle.cli", "min_blocker", "torus.min_blocker", _count_nodes),
    ("oddcycle.experiments", "sample_torical_graph", "experiments.sample_torical_graph", _count_attempts),
    ("oddcycle.experiments", "contraction_map", "experiments.contraction_map", _count_contraction),
    ("oddcycle.experiments", "restricted_values", "experiments.restricted_values", None),
    ("oddcycle.experiments", "classical_reference", "experiments.classical_reference", None),
    ("oddcycle.experiments", "proposition_prefactors", "experiments.proposition_prefactors", None),
    ("oddcycle.experiments", "foam_probes", "experiments.foam_probes", None),
    ("oddcycle.experiments", "optimize_angles", "quantum.optimize_angles", _count_starts),
    ("oddcycle.experiments", "classical_value_exact", "games.classical_value_exact", _count_tables),
    ("oddcycle.experiments", "classical_value_search", "games.classical_value_search", _count_iterations),
    ("oddcycle.experiments", "make_odd_cycle_game", "games.make_game", None),
    ("oddcycle.experiments", "verify_blocker", "torus.verify_blocker", _count_blocked),
    ("oddcycle.experiments", "min_blocker", "torus.min_blocker", _count_nodes),
    ("oddcycle.experiments", "giant_detect", "torus.giant_detect", None),
    ("oddcycle.quantum", "optimize_angles", "quantum.optimize_angles", _count_starts),
    ("oddcycle.quantum", "win_probability", "quantum.win_probability", None),
    ("oddcycle.quantum", "make_odd_cycle_game", "games.make_game", None),
    ("oddcycle.torus", "verify_blocker", "torus.verify_blocker", _count_blocked),
    ("oddcycle.torus", "min_blocker", "torus.min_blocker", _count_nodes),
)

LAYERS = ("cli", "serialize", "experiments", "quantum", "games", "torus")


class Tracer:
    """Install with ``with Tracer() as tracer:``; the wrappers are removed on
    exit, also when the traced job raises."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None, thread id]
        self.counts = defaultdict(int)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = []
        self._installed = []

    def __enter__(self):
        self._local.stack = self._main_stack
        for module_name, attr, name, counter in WRAP_POINTS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            setattr(module, attr, self._wrap(original, name, counter))
            self._installed.append((module, attr, original))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()
        return False

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, original, name, counter):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else None
            with self._lock:
                index = len(self.spans)
                self.spans.append(None)
            stack.append(index)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans[index] = [name, start, end, parent, threading.get_ident()]
            if counter is not None:
                with self._lock:
                    counter(self.counts, result)
            return result

        return wrapper

    def write(self, path, origin: float):
        """Spans as JSON, times in seconds from ``origin``."""
        rows = [[n, s - origin, e - origin, p, t] for n, s, e, p, t in self.spans]
        path.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "thread"], "spans": rows}))


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for s, e in sorted(intervals):
        s, e = max(s, reach), min(e, hi)
        if e > s:
            total += e - s
            reach = e
    return total


def _layer_wall(spans: list, job_start: float, job_end: float) -> dict:
    """Wall seconds per layer, summing to the job's wall time.  At each
    instant the time goes to the innermost open span of every running
    thread, split evenly between the running threads (under the GIL one of
    them runs at a time).  A thread whose innermost span waits on child
    spans of other threads, as estimate_events waits on its pool, is not
    running.  Time with no running thread goes to ``None``."""
    events = sorted((t, kind, i) for i, sp in enumerate(spans) for t, kind in ((sp[1], 1), (sp[2], 0)))
    stacks = defaultdict(list)
    remote_children = defaultdict(int)
    wall = defaultdict(float)
    last = job_start
    for t, kind, i in events:
        running = [st[-1] for st in stacks.values() if st and not remote_children[st[-1]]]
        for j in running:
            wall[spans[j][0].split(".", 1)[0]] += (t - last) / len(running)
        if not running:
            wall[None] += t - last
        last = t
        _, _, _, parent, thread = spans[i]
        remote = parent is not None and spans[parent][4] != thread
        if kind:
            stacks[thread].append(i)
        else:
            stacks[thread].remove(i)
        if remote:
            remote_children[parent] += 1 if kind else -1
    wall[None] += job_end - last
    return wall


def span_metrics(spans: list, counts: dict, job_start: float, job_end: float) -> dict:
    """Per-layer metrics from the spans and counts of one traced job.

    ``s`` is inclusive time summed over calls (calls on concurrent threads
    both count), ``self_s`` is each span's duration minus the part its
    child spans cover, ``layer.<name>.wall_s`` the job's wall time split
    between layers as in ``_layer_wall``, and ``trace.unattributed_s`` the
    wall time no span covers."""
    children = defaultdict(list)
    for name, s, e, parent, _ in spans:
        children[parent].append((s, e))
    calls = defaultdict(int)
    incl = defaultdict(float)
    self_s = defaultdict(float)
    for index, (name, s, e, parent, _) in enumerate(spans):
        calls[name] += 1
        incl[name] += e - s
        self_s[name] += (e - s) - _covered(children.get(index, ()), s, e)

    def ratio(a, b, scale=1.0):
        return a * scale / b if b else 0.0

    c = counts
    m = {
        "quantum.optimize_angles.calls": calls["quantum.optimize_angles"],
        "quantum.optimize_angles.s": incl["quantum.optimize_angles"],
        "quantum.optimize_angles.starts": c["quantum.optimize_angles.starts"],
        "quantum.optimize_angles.ms_per_start": ratio(
            incl["quantum.optimize_angles"], c["quantum.optimize_angles.starts"], 1e3
        ),
        "quantum.win_probability.calls": calls["quantum.win_probability"],
        "quantum.win_probability.s": incl["quantum.win_probability"],
        "games.classical_value_exact.s": incl["games.classical_value_exact"],
        "games.classical_value_exact.tables": c["games.classical_value_exact.tables"],
        "games.classical_value_exact.tables_per_s": ratio(
            c["games.classical_value_exact.tables"], incl["games.classical_value_exact"]
        ),
        "games.classical_value_search.s": incl["games.classical_value_search"],
        "games.classical_value_search.iterations": c["games.classical_value_search.iterations"],
        "games.classical_value_search.iterations_per_s": ratio(
            c["games.classical_value_search.iterations"], incl["games.classical_value_search"]
        ),
        "games.make_game.s": incl["games.make_game"],
        "torus.verify_blocker.calls": calls["torus.verify_blocker"],
        "torus.verify_blocker.s": incl["torus.verify_blocker"],
        "torus.verify_blocker.us_per_call": ratio(
            incl["torus.verify_blocker"], calls["torus.verify_blocker"], 1e6
        ),
        "torus.verify_blocker.blocked_share": ratio(
            c["torus.verify_blocker.blocked"], calls["torus.verify_blocker"]
        ),
        "torus.min_blocker.calls": calls["torus.min_blocker"],
        "torus.min_blocker.s": incl["torus.min_blocker"],
        "torus.min_blocker.nodes": c["torus.min_blocker.nodes"],
        "torus.giant_detect.s": incl["torus.giant_detect"],
        "experiments.estimate_events.self_s": self_s["experiments.estimate_events"],
        "experiments.sample_torical_graph.calls": calls["experiments.sample_torical_graph"],
        "experiments.sample_torical_graph.s": incl["experiments.sample_torical_graph"],
        "experiments.sample_torical_graph.attempts": c["experiments.sample_torical_graph.attempts"],
        "experiments.sample_torical_graph.acceptance": ratio(
            calls["experiments.sample_torical_graph"], c["experiments.sample_torical_graph.attempts"]
        ),
        "experiments.contraction_map.s": incl["experiments.contraction_map"],
        "experiments.contraction_map.image_share": ratio(
            c["experiments.contraction_map.image"], c["experiments.contraction_map.preimage"]
        ),
        "experiments.restricted_values.self_s": self_s["experiments.restricted_values"],
        "experiments.classical_reference.s": incl["experiments.classical_reference"],
        "experiments.proposition_prefactors.s": incl["experiments.proposition_prefactors"],
        "experiments.foam_probes.s": incl["experiments.foam_probes"],
        "experiments.degenerate_share": ratio(
            c["experiments.contraction_map.degenerate"], calls["experiments.contraction_map"]
        ),
        "cli.main.self_s": self_s["cli.main"],
        "serialize.dumps.s": incl["serialize.dumps"],
    }
    wall = _layer_wall(spans, job_start, job_end)
    for layer in LAYERS:
        m[f"layer.{layer}.wall_s"] = wall[layer]
    m["trace.unattributed_s"] = wall[None]
    m["trace.spans"] = len(spans)
    return m
