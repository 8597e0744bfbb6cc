"""In-memory spans around the package's public functions.

The wrappers are installed from outside the package: every module of
``relfree`` that binds a traced function gets the wrapper in place of the
original, so calls through ``graded.canonical_cyclic`` are traced as well as
calls through ``words.canonical_cyclic``.  Each span records its name, start,
end, parent span and job id; self time is a span's duration minus the time
covered by its children.  :meth:`Tracer.uninstall` puts the originals back.
"""

from __future__ import annotations

import inspect
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction


@dataclass
class Span:
    name: str
    start: float
    parent: int
    job: int
    calls: int = 1        # 0 for the later resumptions of a generator
    end: float = 0.0
    child: float = 0.0    # time covered by direct children
    counts: dict = field(default_factory=dict)


def _letters_in(words) -> int:
    return sum(w.letter_length for w in words)


def _runs(w) -> int:
    return len(w.runs)


def _dehn_counts(args, kwargs, result):
    return {"steps": len(result.steps), "letters_in": args[0].letter_length,
            "exhausted": int(result.exhausted)}


def _check_counts(args, kwargs, result):
    return {"accepted": int(result.accepted), "rejected": int(not result.accepted),
            "faces_in": len(args[0].faces)}


# name -> (module, attribute path, counts(args, kwargs, result) or None)
TARGETS = {
    "words.canonical_cyclic": ("words", "canonical_cyclic",
                               lambda a, k, r: {"runs_in": _runs(a[0])}),
    "words.conjugate_in_free": ("words", "conjugate_in_free", None),
    "words.primitive_root": ("words", "primitive_root", None),
    "words.minimal_conjugacy_witness": ("words", "minimal_conjugacy_witness", None),
    "words.conjugacy_witnesses": ("words", "conjugacy_witnesses", None),
    "words.power": ("words", "power", None),
    "words.invert": ("words", "invert", None),
    "words.conjugate": ("words", "conjugate", None),
    "words.Word.parse": ("words", "Word.parse", lambda a, k, r: {"runs_out": _runs(r)}),
    "cli.main": ("cli", "main", None),
    "verbal.make_v": ("verbal", "make_v", None),
    "verbal.make_w1": ("verbal", "make_w1", None),
    "verbal.make_w2": ("verbal", "make_w2", None),
    "verbal.build_w1_like": ("verbal", "build_w1_like", None),
    "verbal.build_w2_like": ("verbal", "build_w2_like", None),
    "ledger.solve": ("ledger", "solve", None),
    "ledger.verify": ("ledger", "verify", None),
    "graded.build_presentation": ("graded", "build_presentation", None),
    "graded.periods_rank": ("graded", "periods_rank", None),
    "graded.classify_pairs": ("graded", "classify_pairs",
                              lambda a, k, r: {"classes_out": len(r.classes)}),
    "graded.build_relator": ("graded", "build_relator", None),
    "graded.load_presentation": ("graded", "load_presentation", None),
    "graded.verbal_membership_witness": ("graded", "verbal_membership_witness", None),
    # the relator-index constructor; the index is a class, so its __init__ is wrapped
    "graded.relator_index": ("graded", "_RelatorTable.__init__",
                             lambda a, k, r: {"letters_in": _letters_in(a[1])}),
    "graded.dehn_reduce_trace": ("graded", "dehn_reduce_trace", _dehn_counts),
    "graded.piece_stats": ("graded", "piece_stats", None),
    "endo.check_report": ("endo", "check_report", None),
    "endo.kernel_witness": ("endo", "kernel_witness", None),
    "endo.surjectivity_witness": ("endo", "surjectivity_witness", None),
    "endo.substitute": ("endo", "substitute", None),
    "diagrams.certify_dehn_trace": ("diagrams", "certify_dehn_trace", None),
    "diagrams.check_certificate": ("diagrams", "check_certificate", _check_counts),
    "diagrams.load_certificate": ("diagrams", "load_certificate", None),
}

# Counted when the call raises one of the package's own errors: a budget
# refusal for piece statistics, a rejection for a malformed certificate.
_REFUSALS = {"graded.piece_stats": "refused", "diagrams.check_certificate": "rejected"}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.job = 0
        self.missing: list[str] = []
        self._errors: tuple = ()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _open(self, name: str, calls: int = 1) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent, self.job, calls))
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, idx: int) -> None:
        span = self.spans[idx]
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent >= 0:
            self.spans[span.parent].child += span.end - span.start

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name: str, fn, counts):
        tracer = self
        refusal = _REFUSALS.get(name)
        if inspect.isgeneratorfunction(fn):
            def gen_wrapper(*args, **kwargs):
                idx = tracer._open(name)
                try:
                    gen = fn(*args, **kwargs)
                finally:
                    tracer._close(idx)
                while True:
                    idx = tracer._open(name, 0)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(idx)
                    yield item
            return gen_wrapper

        def wrapper(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except tracer._errors:
                if refusal:
                    tracer.spans[idx].counts[refusal] = 1
                raise
            finally:
                tracer._close(idx)
            if counts is not None:
                tracer.spans[idx].counts.update(counts(args, kwargs, result))
            return result
        return wrapper

    def install(self) -> None:
        """Wrap every target in every loaded ``relfree`` module that binds it."""
        modules = {key[len("relfree."):]: mod for key, mod in list(sys.modules.items())
                   if key.startswith("relfree.") and mod is not None}
        self._errors = modules["errors"].RelfreeError
        for name, (modname, path, counts) in TARGETS.items():
            mod = modules.get(modname)
            owner_path, _, attr = path.rpartition(".")
            owner = mod
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part, None)
            if isinstance(owner, type):
                raw = vars(owner).get(attr)
            else:
                raw = getattr(owner, attr, None)
            if raw is None:
                self.missing.append(name)
                continue
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(name, raw.__func__, counts))
                self._set(owner, attr, wrapped)
                continue
            wrapped = self._wrap(name, raw, counts)
            if isinstance(owner, type):
                self._set(owner, attr, wrapped)
                continue
            # rebind in every module that imported the same function object
            for other in modules.values():
                for key, value in list(vars(other).items()):
                    if value is raw:
                        self._set(other, key, wrapped)
        report = modules.get("report")
        if report is not None:
            wrapped_rows = tuple(
                (cid, cname, self._wrap(f"report.{cid}", fn, None), seeded)
                for cid, cname, fn, seeded in report.CRITERIA)
            self._set(report, "CRITERIA", wrapped_rows)

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- results -----------------------------------------------------------

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, self_s and the summed counts."""
        out: dict[str, dict] = {}
        for span in self.spans:
            row = out.setdefault(span.name, {"calls": 0, "self_s": 0.0})
            row["calls"] += span.calls
            row["self_s"] += (span.end - span.start) - span.child
            for key, value in span.counts.items():
                row[key] = row.get(key, 0) + value
        return out

    def write(self, path) -> None:
        """All spans, one per line: name, start, end, parent, job."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\tjob\n")
            for span in self.spans:
                fh.write(f"{span.name}\t{span.start:.9f}\t{span.end:.9f}\t"
                         f"{span.parent}\t{span.job}\n")


def layer_metrics(summary: dict[str, dict]) -> dict[str, float]:
    """The per-layer metric values named in BENCHMARK.json, from a summary."""
    def get(name, key):
        return summary.get(name, {}).get(key, 0)

    out: dict[str, float] = {}
    for name in TARGETS:
        out[f"{name}.calls"] = get(name, "calls")
        out[f"{name}.self_s"] = get(name, "self_s")
    for cid in range(1, 11):
        out[f"report.C{cid:02d}.self_s"] = get(f"report.C{cid:02d}", "self_s")
    out["words.canonical_cyclic.runs_in"] = get("words.canonical_cyclic", "runs_in")
    out["words.Word.parse.runs_out"] = get("words.Word.parse", "runs_out")
    out["graded.classify_pairs.classes_out"] = get("graded.classify_pairs", "classes_out")
    out["graded.relator_index.letters_in"] = get("graded.relator_index", "letters_in")
    for key in ("steps", "letters_in", "exhausted"):
        out[f"graded.dehn_reduce_trace.{key}"] = get("graded.dehn_reduce_trace", key)
    calls = get("graded.piece_stats", "calls")
    refused = get("graded.piece_stats", "refused")
    out["graded.piece_stats.refused"] = refused
    out["graded.piece_stats.decided_ratio"] = (
        float(Fraction(calls - refused, calls)) if calls else 0.0)
    for key in ("accepted", "rejected", "faces_in"):
        out[f"diagrams.check_certificate.{key}"] = get("diagrams.check_certificate", key)
    return out
