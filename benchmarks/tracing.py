"""Spans around the engine's public functions, recorded from outside it.

``Tracer.install`` rebinds each traced function, under every name a
``tritangle`` module binds it to, to a wrapper that records a span (name,
start, end, parent span, operation id, one integer attribute and an error
code).  It also counts ``ExtFraction`` constructions by wrapping
``__post_init__``.  ``uninstall`` puts the originals back.  No file under
``src`` changes.

Spans live in typed arrays while the run lasts and are written out once
at the end.  ``summary`` derives the per-layer metrics from them: a
span's self time is its duration minus the durations of its direct
children, so the self times of all spans add up to the time of the
benchmark's own operation spans.
"""

from __future__ import annotations

import json
import sys
from array import array
from pathlib import Path
from time import perf_counter_ns

from oracle import BRANCHES, STATUSES

# (span name, module, function) for every traced function.
TRACED = (
    ("frac.cf_eval", "tritangle.frac", "cf_eval"),
    ("frac.cf_expand", "tritangle.frac", "cf_expand"),
    ("tangle.validate_descriptor", "tritangle.tangle", "validate_descriptor"),
    ("tangle.resolve", "tritangle.tangle", "resolve"),
    ("verdict.classify", "tritangle.verdict", "classify"),
    ("verdict.dispatch", "tritangle.verdict", "classify_tautau"),
    ("verdict.dispatch", "tritangle.verdict", "classify_taurho"),
    ("verdict.dispatch", "tritangle.verdict", "classify_rhorho"),
    ("jsonio.loads_decomposition", "tritangle.jsonio", "loads_decomposition"),
    ("jsonio.dumps_decomposition", "tritangle.jsonio", "dumps_decomposition"),
    ("census.run_census", "tritangle.census", "run_census"),
    ("census.census_csv", "tritangle.census", "census_csv"),
    ("catalog.catalog_verify", "tritangle.catalog", "catalog_verify"),
)
OP_SPAN = "bench.op"
SPAN_NAMES = tuple(dict.fromkeys([OP_SPAN] + [name for name, _, _ in TRACED]))


ERR_NONE, ERR_DOCUMENT, ERR_OTHER = 0, 1, 2
COLUMNS = (("name", "i"), ("parent", "i"), ("op", "i"), ("start", "q"), ("end", "q"),
           ("arg", "q"), ("err", "b"))


def branch_metric(label: str) -> str:
    """"taurho (iv)" -> "verdict.branch.taurho_iv"."""
    kind, _, clause = label.partition(" (")
    return f"verdict.branch.{kind}_{clause.rstrip(')')}"


def _entries(args, kwargs) -> int:
    entries = args[0] if args else kwargs["entries"]
    return len(entries) if hasattr(entries, "__len__") else -1


def _text_bytes(args, kwargs) -> int:
    text = args[0] if args else kwargs["text"]
    return len(text.encode("utf-8")) if isinstance(text, str) else len(text)


class Tracer:
    """Records spans of one traced run; see the module docstring."""

    def __init__(self, max_spans: int):
        self.max_spans = max_spans
        self.cols = {name: array(code) for name, code in COLUMNS}
        self.stack = [-1]
        self.op = -1
        self.fractions_built = 0
        self.descriptor_ids: dict = {}
        self.outcome_ids = {(s, b): i for i, (s, b) in enumerate(
            [("classified", b) for b in BRANCHES] + [("inadmissible", None), ("toroidal", None)])}
        self._patches: list = []

    @property
    def spans(self) -> int:
        return len(self.cols["start"])

    @property
    def full(self) -> bool:
        return self.spans >= self.max_spans

    def _wrap(self, name: str, fn, arg=None, result=None):
        name_id = SPAN_NAMES.index(name)
        c = self.cols
        names, parents, ops, starts, ends, args_, errs = (
            c["name"], c["parent"], c["op"], c["start"], c["end"], c["arg"], c["err"])
        stack, clock, tracer = self.stack, perf_counter_ns, self

        def wrapper(*a, **kw):
            i = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            ops.append(tracer.op)
            args_.append(arg(a, kw) if arg else 0)
            errs.append(ERR_NONE)
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                value = fn(*a, **kw)
            except BaseException as exc:
                errs[i] = ERR_DOCUMENT if type(exc).__name__ == "DocumentError" else ERR_OTHER
                raise
            finally:
                ends[i] = clock()
                stack.pop()
            if result:
                args_[i] = result(value)
            return value

        return wrapper

    def op_wrapper(self, fn):
        """Wrap one benchmark operation: a new operation id and a root span."""
        span = self._wrap(OP_SPAN, fn)

        def operation(item):
            self.op += 1
            return span(item)

        return operation

    def _descriptor_id(self, args, kwargs) -> int:
        d = args[0] if args else kwargs["d"]
        return self.descriptor_ids.setdefault(d, len(self.descriptor_ids))

    def _outcome_id(self, v) -> int:
        return self.outcome_ids.get((v.status, v.branch if v.status == "classified" else None), -1)

    def install(self):
        """Rebind every traced function in every loaded ``tritangle`` module."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "tritangle" or name.startswith("tritangle."))]
        for span, module, function in TRACED:
            original = getattr(sys.modules[module], function)
            arg = result = None
            if span == "frac.cf_eval":
                arg = _entries
            elif span == "tangle.resolve":
                arg = self._descriptor_id
            elif span == "jsonio.loads_decomposition":
                arg = _text_bytes
            elif span == "verdict.classify":
                result = self._outcome_id
            wrapper = self._wrap(span, original, arg, result)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)
                        self._patches.append((m, key, original))
        fraction = sys.modules["tritangle.frac"].ExtFraction
        post_init = fraction.__post_init__

        def counted(obj):
            self.fractions_built += 1
            post_init(obj)

        fraction.__post_init__ = counted
        self._patches.append((fraction, "__post_init__", post_init))

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -----------------------------------------------------------------------

    def write(self, directory: Path, meta: dict):
        """Write the spans: one raw array file per column, plus an index."""
        directory.mkdir(parents=True, exist_ok=True)
        for name, array_ in self.cols.items():
            with open(directory / f"{name}.bin", "wb") as f:
                array_.tofile(f)
        index = dict(meta, spans=self.spans, span_names=list(SPAN_NAMES),
                     columns=[[name, code] for name, code in COLUMNS],
                     byteorder=sys.byteorder,
                     outcomes=[[s, b] for (s, b) in self.outcome_ids])
        (directory / "spans.json").write_text(json.dumps(index, indent=1) + "\n")

    def summary(self, ops: int, scale: float = 1.0) -> dict[str, float]:
        """Per-operation layer metrics over ``ops`` traced operations.

        Times are multiplied by ``scale``, the calibration factor of the
        traced batches (see ``calibration``).
        """
        c = self.cols
        n = self.spans
        names, parents, starts, ends, arg, err = (
            c["name"], c["parent"], c["start"], c["end"], c["arg"], c["err"])
        child = array("q", bytes(8 * n))
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]

        op_id, cf_eval, resolve, loads, classify = (SPAN_NAMES.index(name) for name in (
            OP_SPAN, "frac.cf_eval", "tangle.resolve", "jsonio.loads_decomposition",
            "verdict.classify"))
        k = len(SPAN_NAMES)
        calls, self_ns, total_ns = [0] * k, [0] * k, [0] * k
        entries = loaded_bytes = rejected = repeats = 0
        seen: set[int] = set()
        outcomes = [0] * len(self.outcome_ids)
        for i in range(n):
            name, ns = names[i], ends[i] - starts[i]
            calls[name] += 1
            total_ns[name] += ns
            self_ns[name] += ns - child[i]
            if name == cf_eval:
                entries += arg[i]
            elif name == resolve:
                repeats += arg[i] in seen
                seen.add(arg[i])
            elif name == loads:
                loaded_bytes += arg[i]
                rejected += err[i] == ERR_DOCUMENT
            elif name == classify and arg[i] >= 0 and err[i] == ERR_NONE:
                outcomes[arg[i]] += 1

        out: dict[str, float] = {}
        for j, name in enumerate(SPAN_NAMES):
            if j != op_id:
                out[f"{name}.calls"] = calls[j] / ops
                out[f"{name}.self_us"] = self_ns[j] * scale / ops / 1e3
        out["trace.op_us"] = total_ns[op_id] * scale / ops / 1e3
        out["trace.residual_us"] = self_ns[op_id] * scale / ops / 1e3
        out["frac.cf_eval.entries"] = entries / ops
        out["frac.fractions_built"] = self.fractions_built / ops
        out["tangle.resolve.repeat_share"] = repeats / max(1, calls[resolve])
        out["jsonio.loads_decomposition.bytes"] = loaded_bytes / ops
        out["jsonio.rejected_share"] = rejected / max(1, calls[loads])
        for status in STATUSES:
            out[f"verdict.status.{status}"] = sum(
                outcomes[j] for (s, _), j in self.outcome_ids.items() if s == status) / ops
        hits = [outcomes[self.outcome_ids[("classified", label)]] for label in BRANCHES]
        for label, hit in zip(BRANCHES, hits):
            out[branch_metric(label)] = hit / ops
        out["verdict.branches_hit"] = sum(1 for hit in hits if hit)
        return out
