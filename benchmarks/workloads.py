"""The benchmark workloads: timed operations on the engine and their checks.

Each workload produces seeded batches (``generators``), runs one batch as
a closed loop with a single caller (the next operation starts when the
previous one returns), and checks every output against the expected
outcome (``oracle``).  Engine functions are looked up through their
modules at call time, so the tracer's rebinding of those names reaches
every call.

An operation is a census row, a document or one long decomposition.
"""

from __future__ import annotations

import json
import statistics
from time import perf_counter_ns

import calibration
import generators
import oracle
from outputs import verdict_json, verdict_matches


class Engine:
    """The engine's modules, imported from the checkout's ``src``."""

    def __init__(self):
        import tritangle.catalog
        import tritangle.census
        import tritangle.errors
        import tritangle.frac
        import tritangle.jsonio
        import tritangle.tangle
        import tritangle.verdict

        self.catalog = tritangle.catalog
        self.census = tritangle.census
        self.frac = tritangle.frac
        self.jsonio = tritangle.jsonio
        self.tangle = tritangle.tangle
        self.verdict = tritangle.verdict
        self.DocumentError = tritangle.errors.DocumentError


class Batch:
    """Timings and outputs of one batch.

    ``seconds`` and ``latencies_ns`` are nominal times: raw times scaled by
    the reference samples interleaved with the batch (see ``calibration``).
    ``raw_seconds`` is the unscaled time of the operations.
    """

    def __init__(self, ops: int, seconds: float, latencies_ns: list[float], outputs: list,
                 raw_seconds: float):
        self.ops = ops
        self.seconds = seconds
        self.latencies_ns = latencies_ns
        self.outputs = outputs
        self.raw_seconds = raw_seconds

    @property
    def rate(self) -> float:
        """Operations per nominal second."""
        return self.ops / self.seconds

    @property
    def scale(self) -> float:
        """Nominal over raw time: the batch's calibration factor."""
        return self.seconds / self.raw_seconds


class Checked:
    """Outcome of checking one batch: attempted, failed and wrong operations.

    A failure is a wrong output or an uncaught exception; ``wrong`` counts
    the wrong outputs alone, ``crashes`` the exception types.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.crashes: dict[str, int] = {}

    def add(self, ok: bool, crash: str | None = None):
        self.attempted += 1
        if ok:
            return
        self.failed += 1
        if crash is None:
            self.wrong += 1
        else:
            self.crashes[crash] = self.crashes.get(crash, 0) + 1

    def merge(self, other: "Checked"):
        self.attempted += other.attempted
        self.failed += other.failed
        self.wrong += other.wrong
        for name, n in other.crashes.items():
            self.crashes[name] = self.crashes.get(name, 0) + n

    def count(self, attempted: int, wrong: int):
        """Add operations checked in bulk, ``wrong`` of them with wrong outputs."""
        self.attempted += attempted
        self.failed += wrong
        self.wrong += wrong


def _closed_loop(op, inputs, calibrate_every: int) -> Batch:
    """Run the operations one after another, timing each.

    A reference sample is taken before every group of ``calibrate_every``
    operations and after the last group, outside the operations' timings.
    Each group's times are scaled by the median of the four samples around
    it (two before, two after), which follows the host's speed as it drifts
    and ignores a single disturbed sample.
    """
    clock = perf_counter_ns
    groups, outputs, references = [], [], []
    for k in range(0, len(inputs), calibrate_every):
        references.append(calibration.reference_once())
        latencies = []
        for item in inputs[k:k + calibrate_every]:
            t0 = clock()
            out = op(item)
            latencies.append(clock() - t0)
            outputs.append(out)
        groups.append(latencies)
    references.append(calibration.reference_once())
    scaled, raw = [], 0
    for j, latencies in enumerate(groups):
        scale = calibration.scale(statistics.median(references[max(0, j - 1):j + 3]))
        scaled += [ns * scale for ns in latencies]
        raw += sum(latencies)
    return Batch(len(outputs), sum(scaled) / 1e9, scaled, outputs, raw / 1e9)


# ---------------------------------------------------------------------------


def pooled_latencies(batches) -> list[float]:
    """Every operation's latency, ascending."""
    return sorted(ns for batch in batches for ns in batch.latencies_ns)


class Census:
    """``run_census`` at the cap for each kind, ``census_csv`` on each, then
    one ``catalog_verify``: one pass per batch, in a seeded order.

    Operations are census rows.  Rows are not visible one by one: a row's
    latency is the time of the ``run_census`` plus ``census_csv`` call that
    produced it divided by the rows of that call, taken as the median over
    the run's calls of that kind (see ``latencies``).
    """

    name = "census"
    bound = oracle.CENSUS_CAP

    def __init__(self, engine: Engine, seed: int):
        self.engine = engine
        self.seed = seed
        self.expected = {kind: oracle.census_csv(kind, self.bound)
                         for kind in generators.CENSUS_KINDS}
        self.rows = {kind: text.count("\n") - 1 for kind, text in self.expected.items()}
        self.entries = engine.catalog.catalog_entries()

    def batch(self, index: int):
        kinds, order = generators.census_pass(self.seed, index, len(self.entries))
        return kinds, [self.entries[i] for i in order]

    def probe(self) -> dict:
        kinds, _ = self.batch(0)
        return {"kind": kinds[0], "bound": 3}

    def run(self, inputs, op_wrapper=None) -> Batch:
        """One pass; each table and the catalog check are timed between two
        reference timings, which scale that part alone."""
        kinds, entries = inputs
        census, catalog = self.engine.census, self.engine.catalog
        clock = perf_counter_ns

        def table(kind):
            rows = census.run_census(kind, self.bound)
            return len(rows), census.census_csv(rows)

        verify = catalog.catalog_verify
        if op_wrapper:
            table, verify = op_wrapper(table), op_wrapper(verify)
        parts, tables, latencies = [], [], []
        before = calibration.reference_s()
        for kind in kinds:
            t0 = clock()
            n, text = table(kind)
            ns = clock() - t0
            after = calibration.reference_s()
            scale = calibration.scale((before + after) / 2)
            parts.append((ns, scale))
            tables.append((kind, n, text))
            latencies.append((kind, ns * scale / n))
            before = after
        t0 = clock()
        report = verify(entries)
        ns = clock() - t0
        parts.append((ns, calibration.scale((before + calibration.reference_s()) / 2)))
        return Batch(sum(n for _, n, _ in tables), sum(ns * scale for ns, scale in parts) / 1e9,
                     latencies, [(tables, report)], sum(ns for ns, _ in parts) / 1e9)

    def latencies(self, batches) -> list[float]:
        """Per-row latencies of one pass, each row at its kind's median per-row time.

        Medians over calls keep the upper percentiles from resting on the
        single slowest of a few dozen calls.
        """
        by_kind: dict[str, list[float]] = {}
        for batch in batches:
            for kind, ns in batch.latencies_ns:
                by_kind.setdefault(kind, []).append(ns)
        return sorted(ns for kind, values in by_kind.items()
                      for ns in [statistics.median(values)] * self.rows[kind])

    def check(self, inputs, batch: Batch) -> Checked:
        _, entries = inputs
        (tables, report), = batch.outputs
        checked = Checked()
        for kind, _, text in tables:
            want = self.expected[kind]
            if text == want:
                checked.count(self.rows[kind], 0)
                continue
            want_rows, got_rows = want.splitlines()[1:], text.splitlines()[1:]
            bad = sum(1 for i, row in enumerate(want_rows)
                      if i >= len(got_rows) or got_rows[i] != row)
            extra = max(0, len(got_rows) - len(want_rows))
            checked.count(len(want_rows), min(len(want_rows), bad + extra))
        # the catalog check of the pass counts as one more operation
        checked.add([row.name for row in report.rows] == [e.name for e in entries]
                    and all(row.passed is not False for row in report.rows)
                    and report.mismatches == 0)
        return checked


class Documents:
    """A seeded stream of decomposition documents, each run through
    ``loads_decomposition``, ``classify`` and ``dumps_decomposition``, plus
    ``json.dumps`` of the verdict.  See ``generators.documents_batch`` for
    the mix.
    """

    name = "documents"

    def __init__(self, engine: Engine, seed: int):
        self.engine = engine
        self.seed = seed
        self.catalog = catalog_documents(engine)

    def batch(self, index: int) -> list[generators.DocCase]:
        return generators.documents_batch(self.seed, index, self.catalog)

    def probe(self) -> dict:
        first = next(case for case in self.batch(0) if case.verdict is not None)
        return {"text": first.text}

    def run(self, cases, op_wrapper=None) -> Batch:
        jsonio, verdict = self.engine.jsonio, self.engine.verdict
        DocumentError = self.engine.DocumentError

        def one_document(text):
            try:
                try:
                    decomposition = jsonio.loads_decomposition(text)
                except DocumentError as exc:
                    return ("rejected", exc.path)
                v = verdict.classify(decomposition)
                return ("ok", jsonio.dumps_decomposition(decomposition),
                        json.dumps(verdict_json(v)))
            except Exception as exc:  # an uncaught engine error is a failed operation
                return ("crash", type(exc).__name__)

        op = op_wrapper(one_document) if op_wrapper else one_document
        return _closed_loop(op, [case.text for case in cases], calibrate_every=50)

    latencies = staticmethod(pooled_latencies)

    def check(self, cases, batch: Batch) -> Checked:
        checked = Checked()
        for case, out in zip(cases, batch.outputs):
            if out[0] == "crash":
                checked.add(False, crash=out[1])
            elif case.verdict is None:
                checked.add(out[0] == "rejected")
            else:
                checked.add(out[0] == "ok"
                            and json.loads(out[1]) == case.document
                            and verdict_matches(json.loads(out[2]), case.verdict))
        return checked


class LongTwists:
    """In-process ``classify`` of decompositions whose rational sides have
    16 to 256 twist entries, plus ``cf_expand`` of each side's exact value.
    """

    name = "long_twists"

    def __init__(self, engine: Engine, seed: int):
        self.engine = engine
        self.seed = seed

    def batch(self, index: int):
        cases = generators.long_batch(self.seed, index)
        return cases, [(to_decomposition(self.engine, c.document), c.values) for c in cases]

    def probe(self) -> dict:
        case = self.batch(0)[0][0]
        return {"document": case.document, "values": case.values}

    def run(self, inputs, op_wrapper=None) -> Batch:
        frac, verdict = self.engine.frac, self.engine.verdict

        def one_decomposition(item):
            decomposition, values = item
            v = verdict.classify(decomposition)
            return v, tuple(frac.cf_expand(frac.ExtFraction(p, q)) for p, q in values)

        op = op_wrapper(one_decomposition) if op_wrapper else one_decomposition
        return _closed_loop(op, inputs[1], calibrate_every=4)

    latencies = staticmethod(pooled_latencies)

    def check(self, inputs, batch: Batch) -> Checked:
        checked = Checked()
        for case, (v, expansions) in zip(inputs[0], batch.outputs):
            checked.add(verdict_matches(verdict_json(v), case.verdict)
                        and expansions == case.vectors)
        return checked


WORKLOADS = {w.name: w for w in (Census, Documents, LongTwists)}


# ---------------------------------------------------------------------------
# Engine objects from documents, and documents from engine objects


def to_decomposition(engine: Engine, doc: dict):
    """Build a Decomposition of rational and torus sides from its document."""
    t = engine.tangle
    sides = []
    for side in doc["tangles"]:
        (variant, body), = side["presentation"].items()
        if variant == "rational":
            presentation = t.RationalPresentation(tuple(body["twists"]))
        else:
            presentation = t.TorusRhoPresentation(t.TorusParams(body["p"], body["q"]))
        sides.append(t.TauDescriptor(presentation) if side["kind"] == "tau"
                     else t.RhoDescriptor(presentation))
    return engine.verdict.Decomposition(doc["type"], doc["special"], *sides)


def descriptor_document(d) -> dict:
    """The document of a catalog descriptor, written field by field."""
    p = d.presentation
    kind = type(p).__name__
    if kind == "RationalPresentation":
        return generators.tangle(d.kind, "rational", {"twists": list(p.twists)})
    if kind == "TorusRhoPresentation":
        return generators.tangle(d.kind, "torus_rho", {"p": p.params.p, "q": p.params.q})
    flags = {"atoroidal": p.atoroidal, "trivial": p.trivial}
    if kind == "AbstractTau":
        flags["rational"] = p.rational
        if p.slope is not None:
            flags["slope"] = f"{p.slope.num}/{p.slope.den}"
        if p.unit_fraction_slope is not None:
            flags["unit_fraction_slope"] = p.unit_fraction_slope
    else:
        for name in ("hopf_tangle", "satellite", "cable", "hopf_summand"):
            if getattr(p, name):
                flags[name] = True
        if p.torus is not None:
            flags["torus"] = {"p": p.torus.p, "q": p.torus.q}
    return generators.tangle(d.kind, "abstract", flags)


def catalog_documents(engine: Engine) -> list[tuple[dict, dict]]:
    """(document, stored verdict) of every catalog entry with a decomposition."""
    out = []
    for entry in engine.catalog.catalog_entries():
        if entry.decomposition is None:
            continue
        d, e = entry.decomposition, entry.expected
        if e.status != "classified":
            raise ValueError(f"catalog entry {entry.name} has no stored count to compare")
        doc = generators.decomposition(d.kind, d.special, descriptor_document(d.first),
                                       descriptor_document(d.second))
        out.append((doc, {"status": e.status, "count": e.annulus_count.value,
                          "branch": e.branch}))
    return out
