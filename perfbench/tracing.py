"""Per-layer tracing of egy from outside the library.

``Tracer.patch()`` replaces the public functions of each egy module with
wrappers that record one span per call (name, start, end, parent, op) and
the layer's work counts.  The wrapper is installed on every egy module
attribute that holds the original function, because callers look the name
up in their own module (``egy.partition.next_point_above``,
``egy.measure.best_underapprox``, ``sum_exact`` in ``egy.search`` /
``egy.lemma1`` / ``egy.measure`` / ``egy.rational``) or through
``egy._kernels``.  Nothing in the library is edited; ``restore()`` puts
the originals back.

Spans are kept in memory, up to ``SPAN_CAP`` of them, and written out at
the end of the run.  Per-name totals (calls, inclusive and self seconds)
are kept for every call, whatever the cap.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

SPAN_CAP = 400_000
LONG_SCAN = 10_000  # a max-below scan of at least this many iterations is "long"
_LOG10_2 = 0.30102999566398120


def _digits(n: int) -> int:
    """Decimal digits of |n|, from its bit length (exact or one too many)."""
    return int(abs(n).bit_length() * _LOG10_2) + 1


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.dropped = 0
        self.calls: dict[str, int] = defaultdict(int)
        self.incl: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(int)
        self.op_id = -1
        self._stack: list[list] = []  # [id, name, start, child seconds, parent id]
        self._next_id = 0
        self._patched: list[tuple] = []
        self._seen_min_competitors: set = set()
        self.last_duration = 0.0
        self._limit_error: type = Exception

    # -- spans ---------------------------------------------------------

    def begin(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append([self._next_id, name, time.perf_counter(), 0.0, parent])
        self._next_id += 1

    def end(self) -> None:
        end = time.perf_counter()
        sid, name, start, child, parent = self._stack.pop()
        dur = end - start
        self.last_duration = dur
        self.calls[name] += 1
        self.self_s[name] += dur - child
        if not self.inside(name):
            self.incl[name] += dur  # recursive calls are inside the outer span
        if self._stack:
            self._stack[-1][3] += dur
        if len(self.spans) < SPAN_CAP:
            self.spans.append((sid, parent, name, start, end, self.op_id))
        else:
            self.dropped += 1

    def inside(self, name: str) -> bool:
        return any(frame[1] == name for frame in self._stack)

    def start_op(self, op_id: int, kind: str) -> None:
        self.op_id = op_id
        self._seen_min_competitors.clear()
        self.begin("op." + kind)

    # -- wrappers ------------------------------------------------------

    def _wrap(self, name, fn, after=None, undecided=False):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if undecided and isinstance(exc, tracer._limit_error):
                    tracer.counts[name + ".undecided"] += 1
                raise
            finally:
                tracer.end()
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _after_max_below(self, args, kwargs, res):
        found, iters = res[0], res[5]
        self.counts["kernels.max_below.iters"] += iters
        if iters >= LONG_SCAN:
            self.counts["kernels.max_below.long_calls"] += 1
        if found:
            self.counts["kernels.max_below.found"] += 1

    def _after_min_competitors(self, args, kwargs, res):
        self.counts["kernels.min_competitors.cells"] += len(res)
        i = args[0] if args else kwargs["i"]
        if i in self._seen_min_competitors:
            # the same enumeration already ran earlier in this op
            self.counts["kernels.min_competitors.repeat_calls"] += 1
            self.counts["kernels.min_competitors.repeat_s"] += self.last_duration
        self._seen_min_competitors.add(i)

    def _after_direct_terms(self, args, kwargs, res):
        self.counts["kernels.direct_terms.terms"] += len(res)

    def _after_chain_check(self, args, kwargs, res):
        self.counts["measure.chain_check.decided"] += 1

    def _after_window(self, args, kwargs, res):
        self.counts["partition.window.cells"] += len(res[0])

    def _after_format(self, args, kwargs, res):
        self.counts["rational.format.digits"] += len(res)

    def _after_next_point(self, args, kwargs, res):
        if self.inside("partition.window"):
            # cells_in_window keeps only cell.lower, so this value is unused
            self.counts["partition.next_point_discarded"] += 1
            self.counts["partition.next_point_discarded_s"] += self.last_duration

    def _sum_exact(self, fn):
        tracer = self

        def wrapper(values):
            tracer.begin("rational.sum_exact")
            try:
                items = list(values)
                total = fn(items)
            finally:
                tracer.end()
            tracer.counts["rational.sum_exact.terms"] += len(items)
            tracer.counts["rational.sum_exact.out_digits"] += _digits(
                total.numerator) + _digits(total.denominator)
            return total

        wrapper.__wrapped__ = fn
        return wrapper

    def patch(self) -> None:
        """Install the wrappers on every egy module that holds an original."""
        import egy._kernels as k
        import egy.greedy as g
        import egy.lemma1 as l
        import egy.measure as m
        import egy.partition as p
        import egy.rational as r
        import egy.search as s

        self._limit_error = s.ResourceLimitError
        plan = [
            (k.two_term_max_below, self._wrap("kernels.max_below", k.two_term_max_below,
                                              self._after_max_below)),
            (k.two_term_min_competitors, self._wrap(
                "kernels.min_competitors", k.two_term_min_competitors,
                self._after_min_competitors)),
            (k.direct_mode_terms, self._wrap("kernels.direct_terms", k.direct_mode_terms,
                                             self._after_direct_terms)),
            (s.best_underapprox, self._wrap("search.best", s.best_underapprox,
                                            undecided=True)),
            (s.next_point_above, self._wrap("search.next_point", s.next_point_above,
                                            self._after_next_point, undecided=True)),
            (s.has_representation, self._wrap("search.has_rep", s.has_representation)),
            (g.greedy_underapprox, self._wrap("greedy.underapprox", g.greedy_underapprox)),
            (p.cell_of, self._wrap("partition.cell_of", p.cell_of)),
            (p.cells_in_window, self._wrap("partition.window", p.cells_in_window,
                                           self._after_window)),
            (m.chain_check, self._wrap("measure.chain_check", m.chain_check,
                                       self._after_chain_check)),
            (m.cell_decay_bound, self._wrap("measure.decay", m.cell_decay_bound)),
            (l.lemma1_certificate, self._wrap("lemma1.certificate", l.lemma1_certificate)),
            (l.nongreedy_two_term_measure, self._wrap(
                "lemma1.nongreedy", l.nongreedy_two_term_measure)),
            (r.sum_exact, self._sum_exact(r.sum_exact)),
            (r.format_rational, self._wrap("rational.format", r.format_rational,
                                           self._after_format)),
        ]
        by_id = {id(orig): wrapper for orig, wrapper in plan}
        for modname, mod in list(sys.modules.items()):
            if not (modname == "egy" or modname.startswith("egy.")):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = by_id.get(id(value))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, value))

    def restore(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()



# Span names whose calls, inclusive seconds and self seconds are reported.
SPAN_NAMES = (
    "kernels.max_below", "kernels.min_competitors", "kernels.direct_terms",
    "search.best", "search.next_point", "search.has_rep", "greedy.underapprox",
    "partition.cell_of", "partition.window", "measure.chain_check", "measure.decay",
    "lemma1.certificate", "lemma1.nongreedy", "rational.sum_exact", "rational.format",
)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Totals per span name plus the layer counts and their ratios."""
    out: dict[str, float] = {}
    for name in SPAN_NAMES:
        out[name + ".calls"] = tracer.calls.get(name, 0)
        out[name + ".s"] = tracer.incl.get(name, 0.0)
        out[name + ".self_s"] = tracer.self_s.get(name, 0.0)
    out.update(tracer.counts)
    for ratio, count, calls in (
        ("kernels.max_below.found_ratio", "kernels.max_below.found", "kernels.max_below.calls"),
        ("measure.chain_check.decided_ratio", "measure.chain_check.decided",
         "measure.chain_check.calls"),
    ):
        out[ratio] = out.get(count, 0) / out[calls] if out[calls] else 0.0
    return out


def dominant_layer(tracer: Tracer) -> str:
    """The span name with the most self time, the benchmark's own op spans aside."""
    named = {n: s for n, s in tracer.self_s.items() if not n.startswith("op.")}
    return max(named, key=named.get) if named else ""


def write_spans(tracer: Tracer, path) -> None:
    with open(path, "w") as fh:
        fh.write("id\tparent\tname\tstart\tend\top\n")
        for sid, parent, name, start, end, op in tracer.spans:
            fh.write(f"{sid}\t{parent}\t{name}\t{start:.9f}\t{end:.9f}\t{op}\n")
