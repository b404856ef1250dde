"""Spans and counters recorded around the package's public functions.

Nothing in the package is edited: `install` replaces each target function
in every loaded ``buckysob`` module that holds it, so every caller that
looks the name up reaches the wrapper. A span is (name, start, end, parent
span, pass id); spans stay in memory and are summarised per pass once the
run ends. `uninstall` puts the originals back.
"""

from __future__ import annotations

import functools
import statistics
import sys
from time import perf_counter


def _det_ops(tracer, args, result):
    det, ops = result
    tracer.add("bareiss.det.pivot_ops", ops)
    tracer.peak("bareiss.det_bits.max", abs(det).bit_length())


def _jordan_ops(tracer, args, result):
    det, _num, ops = result
    tracer.add("bareiss.jordan.pivot_ops", ops)
    tracer.peak("bareiss.det_bits.max", abs(det).bit_length())


def _solve_bits(tracer, args, result):
    bits = 0
    for i in range(result.rows):
        for j in range(result.cols):
            x = result[i, j]
            bits = max(bits, x.numerator.bit_length(), x.denominator.bit_length())
    tracer.peak("ratmat.out_bits.max", bits)


def _is_matrix_product(args):
    return type(args[1]) is type(args[0])


# (span name, module, attribute, result observer, call filter, what it moves).
# An attribute "Class.method" is patched on the class.
TARGETS = (
    ("bareiss.det", "buckysob.ratmat", "det_int", _det_ops, None,
     "wall_s on green_sweep and charpoly_relabel; barely verify_all"),
    ("bareiss.jordan", "buckysob.ratmat", "jordan_int", _jordan_ops, None,
     "wall_s and item_s.p90 on green_sweep; barely verify_all"),
    ("ratmat.matmul", "buckysob.ratmat", "RationalMatrix.__mul__", None,
     _is_matrix_product, "wall_s and item_s.p90 on verify_all only"),
    ("ratmat.solve", "buckysob.ratmat", "bareiss_solve", _solve_bits, None,
     "green_sweep and verify_all; self time is the int/Fraction conversion"),
    ("ratmat.charpoly", "buckysob.ratmat", "charpoly", None, None,
     "charpoly_relabel; self time is the Newton interpolation"),
    ("green.pseudo_green", "buckysob.green", "pseudo_green", None, None,
     "verify_all and charpoly_relabel"),
    ("green.green_matrix", "buckysob.green", "green_matrix", None, None,
     "verify_all and green_sweep"),
    ("green.ca_via_fit", "buckysob.green", "ca_via_fit", None, None,
     "verify_all"),
    ("polynomials.fit", "buckysob.polynomials", "fit_rational_function",
     None, None, "verify_all"),
    ("blocks.assemble", "buckysob.blocks", "assemble_green_via_blocks",
     None, None, "green_sweep"),
    ("spectral.numeric_eigenvalues", "buckysob.spectral",
     "numeric_eigenvalues", None, None, "verify_all only"),
    ("spectral.table", "buckysob.spectral", "build_spectral_table", None,
     None, "verify_all only"),
    ("sobolev.trial", "buckysob.sobolev", "sobolev_trial", None, None,
     "verify_all only"),
    ("sobolev.witness", "buckysob.sobolev", "equality_witness", None, None,
     "verify_all only"),
    ("graph.build", "buckysob.graph", "buckyball", None, None,
     "setup_s and charpoly_relabel"),
    ("graph.build", "buckysob.graph", "laplacian", None, None,
     "setup_s and charpoly_relabel"),
    ("graph.relabel", "buckysob.graph", "relabel", None, None,
     "setup_s and charpoly_relabel"),
)

# Layers whose call count is reported beside their time.
COUNTED = ("bareiss.det", "bareiss.jordan", "ratmat.matmul", "ratmat.solve",
           "green.green_matrix", "blocks.assemble", "sobolev.trial",
           "sobolev.witness")

# Spans the benchmark opens itself; their self time is not in any layer.
GLUE = ("pass", "item")


class Tracer:
    """In-memory span recorder with per-pass counters."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, pass id]
        self.counters = []  # one dict per pass
        self._stack = []

    def start_pass(self):
        self.counters.append({})

    def begin(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent,
                           len(self.counters) - 1])
        self._stack.append(idx)
        return idx

    def end(self, idx):
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def add(self, name, n):
        c = self.counters[-1]
        c[name] = c.get(name, 0) + n

    def peak(self, name, value):
        c = self.counters[-1]
        c[name] = max(c.get(name, 0), value)

    def wrap(self, name, fn, observe=None, accept=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if accept is not None and not accept(args):
                return fn(*args, **kwargs)
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if observe is not None:
                observe(self, args, result)
            return result

        return traced

    def pass_summaries(self):
        """Per pass: {span name: [calls, inclusive s, self s]}.

        Inclusive time counts only the outermost span of a name, so a
        layer reached again from inside itself is not counted twice.
        """
        out = [{} for _ in self.counters]
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for idx, (name, start, end, parent, pid) in enumerate(self.spans):
            row = out[pid].setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[2] += (end - start) - child_time[idx]
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                row[1] += end - start
        return out

    def spans_json(self):
        return [{"name": n, "start": s, "end": e, "parent": p, "pass": pid}
                for n, s, e, p, pid in self.spans]


def install(tracer):
    """Wrap every target; returns (undo list, names of missing targets)."""
    undo, missing = [], []
    for name, module, attr, observe, accept, _ in TARGETS:
        mod = sys.modules.get(module)
        owner_name, _, fn_name = attr.rpartition(".")
        owner = getattr(mod, owner_name, None) if owner_name else mod
        original = getattr(owner, fn_name, None)
        if original is None:
            missing.append(f"{module}.{attr}")
            continue
        wrapper = tracer.wrap(name, original, observe, accept)
        if owner_name:
            holders = [(owner, fn_name)]
        else:
            holders = [(m, key) for mname, m in list(sys.modules.items())
                       if mname.split(".")[0] == "buckysob"
                       for key, value in vars(m).items() if value is original]
        for holder, key in holders:
            undo.append((holder, key, original))
            setattr(holder, key, wrapper)
    return undo, missing


def uninstall(undo):
    for holder, key, original in reversed(undo):
        setattr(holder, key, original)


def layer_table(tracer):
    """{span name: (calls, inclusive s, self s)}: calls in the first pass
    (every pass repeats the same inputs), times as medians over passes."""
    summaries = tracer.pass_summaries()
    table = {}
    for name in sorted({n for s in summaries for n in s}):
        rows = [s.get(name, [0, 0.0, 0.0]) for s in summaries]
        table[name] = (rows[0][0], statistics.median(r[1] for r in rows),
                       statistics.median(r[2] for r in rows))
    return table


def layer_metrics(tracer, table, check_names):
    """The per-layer metrics from `layer_table`'s table and the first
    pass's counters; a layer the workload never reached reads 0."""
    metrics = {}
    for name in {t[0] for t in TARGETS} | {f"cli.check.{c}" for c in check_names}:
        calls, total, _ = table.get(name, (0, 0.0, 0.0))
        metrics[f"{name}.s"] = total
        if name in COUNTED:
            metrics[f"{name}.calls"] = calls
    first = tracer.counters[0]
    for key in ("bareiss.det.pivot_ops", "bareiss.jordan.pivot_ops",
                "bareiss.det_bits.max", "ratmat.out_bits.max"):
        metrics[key] = first.get(key, 0)
    metrics["trace.wall_s"] = table["pass"][1]
    metrics["trace.unattributed_s"] = sum(table[g][2] for g in GLUE
                                          if g in table)
    return metrics
