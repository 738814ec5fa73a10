"""Outside-in tracing: wrappers installed on the library's public functions
and methods from benchmark code only, so ``src/`` stays untouched.

Each wrapped call records a span (name, task id, parent span, start, end)
in flat in-memory arrays, and the run writes them out once it ends. Self
time is a span's duration minus the time its direct child spans cover.
Work counters are derived from call arguments and results, never from
library internals.
"""

import array
import gzip
import json
import math
import sys
import time
from fractions import Fraction

from skeinmod import chebyshev, cli, cyclotomic, gaussian, handlebody, laurent, linalg, mat2
from skeinmod import rewrite, seifert, torus

# (owner, attribute, span name). Aliased dunders (__rmul__ = __mul__,
# __radd__ = __add__) are listed under both attribute names.
TARGETS = (
    (cyclotomic.CycNum, "__mul__", "cyclotomic.mul"),
    (cyclotomic.CycNum, "__rmul__", "cyclotomic.mul"),
    (cyclotomic.CycNum, "inverse", "cyclotomic.inverse"),
    (cyclotomic.CycNum, "lift", "cyclotomic.lift"),
    (mat2.Mat2, "__mul__", "mat2.mul"),
    (mat2.Mat2, "__rmul__", "mat2.mul"),
    (mat2, "algebra_closure", "mat2.algebra_closure"),
    (mat2, "standardize_pair", "mat2.standardize_pair"),
    (linalg, "field_nullspace", "linalg.field_nullspace"),
    (linalg, "smith_normal_form", "linalg.smith_normal_form"),
    (linalg, "bareiss_rank", "linalg.bareiss_rank"),
    (linalg, "field_rank", "linalg.field_rank"),
    (seifert, "certify", "seifert.certify"),
    (seifert, "homology", "seifert.homology"),
    (seifert, "reverify_certificate", "seifert.reverify_certificate"),
    (seifert.Representation, "satisfies", "seifert.satisfies"),
    (seifert.Representation, "word_image", "seifert.word_image"),
    (rewrite, "normalize", "rewrite.normalize"),
    (rewrite, "reduce_step", "rewrite.reduce_step"),
    (rewrite, "complexity", "rewrite.complexity"),
    (rewrite, "is_reduced_label", "rewrite.is_reduced_label"),
    (laurent.LaurentPoly, "__mul__", "laurent.mul"),
    (laurent.LaurentPoly, "__rmul__", "laurent.mul"),
    (laurent.LaurentPoly, "__add__", "laurent.add"),
    (laurent.LaurentPoly, "__radd__", "laurent.add"),
    (handlebody, "truncated_quotient_dimension", "handlebody.truncated_quotient_dimension"),
    (handlebody, "relation_generators", "handlebody.relation_generators"),
    (handlebody, "verify_Jprime_containment", "handlebody.verify_Jprime_containment"),
    (handlebody, "gamma", "handlebody.gamma"),
    (handlebody, "gamma_prime", "handlebody.gamma_prime"),
    (gaussian.GaussRat, "__mul__", "gaussian.mul"),
    (gaussian.GaussRat, "__rmul__", "gaussian.mul"),
    (gaussian.GaussRat, "inverse", "gaussian.inverse"),
    (torus, "fg_multiply", "torus.fg_multiply"),
    (torus, "parse_fg", "torus.parse_fg"),
    (chebyshev, "chebyshev_T", "chebyshev.chebyshev_T"),
    (chebyshev, "chebyshev_S", "chebyshev.chebyshev_S"),
    (cli, "main", "cli.main"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _owner, _attr, name in TARGETS))

# counters derived from arguments, and ratios of counts; reported next to
# the span metrics
COUNTERS = (
    ("cyclotomic.mul.calls.rational", "count", "lower"),
    ("cyclotomic.mul.calls.small", "count", "lower"),
    ("cyclotomic.mul.calls.large", "count", "lower"),
    ("cyclotomic.mul.coef_ops", "count", "lower"),
    ("linalg.bareiss_rank.cells", "count", "lower"),
    ("linalg.bareiss_rank.max_cols", "count", "lower"),
    ("linalg.field_rank.cells", "count", "lower"),
    ("linalg.rank_per_row", "ratio", "higher"),
    ("rewrite.complexity_per_step", "ratio", "lower"),
    ("seifert.candidates_per_cert", "ratio", "lower"),
)

_RANK_SPANS = ("linalg.bareiss_rank", "linalg.field_rank")


def _shape(matrix):
    rows = len(matrix)
    return rows, (len(matrix[0]) if rows else 0)


class Tracer:
    """Span recorder plus the wrappers that feed it.

    ``install`` replaces every target (and every other binding of the same
    function object inside ``skeinmod``, such as ``handlebody.bareiss_rank``
    or the names ``cli`` imports) with a recording wrapper; ``uninstall``
    puts the originals back.
    """

    def __init__(self):
        self.names = list(SPAN_NAMES)
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.span_name = array.array("i")
        self.span_task = array.array("i")
        self.span_parent = array.array("q")
        self.span_start = array.array("q")
        self.span_end = array.array("q")
        self.calls = [0] * len(self.names)
        self.self_ns = [0] * len(self.names)
        self.counts = {name: 0 for name, unit, _better in COUNTERS if unit == "count"}
        self.rank_sum = 0
        self.rank_rows = 0
        self.certificates = 0
        self.task = -1
        self._stack = []  # [span index, name id, child ns]
        self._saved = []  # (owner, attribute, original)
        self._totients = {}
        self._rank_ids = {self._ids[name] for name in _RANK_SPANS}

    # -- counters --------------------------------------------------------

    def _totient(self, n):
        phi = self._totients.get(n)
        if phi is None:
            phi = self._totients[n] = cyclotomic.totient(n)
        return phi

    def _before(self, name, args):
        if name == "cyclotomic.mul":
            x, y = args[0], args[1]
            if isinstance(y, (int, Fraction)):
                order, ops = x.order, self._totient(x.order)
            elif isinstance(y, cyclotomic.CycNum):
                order = math.lcm(x.order, y.order)
                ops = self._totient(order) ** 2
            else:
                return
            bucket = "rational" if order == 1 else ("small" if order <= 60 else "large")
            self.counts["cyclotomic.mul.calls." + bucket] += 1
            self.counts["cyclotomic.mul.coef_ops"] += ops
        elif name in _RANK_SPANS:
            rows, cols = _shape(args[0])
            self.counts[name + ".cells"] += rows * cols
            if name == "linalg.bareiss_rank":
                key = "linalg.bareiss_rank.max_cols"
                self.counts[key] = max(self.counts[key], cols)

    def _after(self, name, args, result, outermost_rank):
        if name in _RANK_SPANS and outermost_rank:
            self.rank_sum += result
            self.rank_rows += _shape(args[0])[0]
        elif name == "seifert.certify" and getattr(result, "kind", None) == "separating_torus":
            self.certificates += 1

    # -- wrappers --------------------------------------------------------

    def _wrap(self, fn, name):
        nid = self._ids[name]
        stack = self._stack
        clock = time.perf_counter_ns
        calls, self_ns = self.calls, self.self_ns
        add_name, add_task = self.span_name.append, self.span_task.append
        add_parent, add_start, add_end = self.span_parent.append, self.span_start.append, self.span_end.append
        ends = self.span_end
        is_rank = name in _RANK_SPANS
        counted = is_rank or name == "cyclotomic.mul"
        after = is_rank or name == "seifert.certify"
        rank_ids = self._rank_ids

        def wrapper(*args, **kwargs):
            if counted:
                self._before(name, args)
            outermost_rank = is_rank and not any(f[1] in rank_ids for f in stack)
            idx = len(ends)
            frame = [idx, nid, 0]
            add_parent(stack[-1][0] if stack else -1)
            stack.append(frame)
            add_name(nid)
            add_task(self.task)
            add_end(0)
            start = clock()
            add_start(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                ends[idx] = end
                duration = end - start
                calls[nid] += 1
                self_ns[nid] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
            if after:
                self._after(name, args, result, outermost_rank)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in sys.modules.items() if key == "skeinmod" or key.startswith("skeinmod.")]
        wrapped = {}
        for owner, attr, name in TARGETS:
            original = owner.__dict__[attr]
            wrapper = wrapped.get(id(original))
            if wrapper is None:
                wrapper = wrapped[id(original)] = (self._wrap(original, name), original)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapper[0])
        # rebind every other module-level name that holds a wrapped function
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[1] is value:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, hit[0])

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    # -- results ---------------------------------------------------------

    def metrics(self):
        """Per-layer metrics as {name: (value, unit)}."""
        out = {}
        for nid, name in enumerate(self.names):
            out[name + ".calls"] = (self.calls[nid], "count")
            out[name + ".self_s"] = (self.self_ns[nid] / 1e9, "s")
        for name, value in self.counts.items():
            out[name] = (value, "count")
        out["linalg.rank_per_row"] = (self.rank_sum / self.rank_rows if self.rank_rows else 0.0, "ratio")
        steps = self.calls[self._ids["rewrite.reduce_step"]]
        calls = self.calls[self._ids["rewrite.complexity"]]
        out["rewrite.complexity_per_step"] = (calls / steps if steps else 0.0, "ratio")
        attempts = self.calls[self._ids["mat2.standardize_pair"]]
        out["seifert.candidates_per_cert"] = (
            attempts / self.certificates if self.certificates else 0.0,
            "ratio",
        )
        return out

    def write(self, path):
        """Write every span: a JSON header line, then the five columns as
        native-endian arrays (int32 name, int32 task, int64 parent, int64
        start ns, int64 end ns), gzip-compressed."""
        header = {
            "names": self.names,
            "spans": len(self.span_start),
            "columns": [["name", "i"], ["task", "i"], ["parent", "q"], ["start_ns", "q"], ["end_ns", "q"]],
            "byteorder": sys.byteorder,
        }
        with gzip.open(path, "wb", compresslevel=1) as fh:
            fh.write((json.dumps(header) + "\n").encode("utf-8"))
            for column in (self.span_name, self.span_task, self.span_parent, self.span_start, self.span_end):
                fh.write(column.tobytes())
