"""Per-layer spans for the traced run, recorded from outside the program.

``Tracer.install`` replaces the public entry points of each layer with a
wrapper that records a span: name, start, end, parent span and request id.
Spans stay in memory; ``write_spans`` writes them out once the run is over.
A span's self time is its duration minus the time its child spans cover.
``uninstall`` puts every original back, so untraced rounds run the program
exactly as shipped.
"""
from __future__ import annotations

import gzip
import json
import threading
import time

import requests

from specdraft import bench, cascade, core, kernel, remote, statlm

START, END, PARENT, REQUEST, ROWS, CHILD = 1, 2, 3, 4, 5, 6
_MISSING = object()

#: spans whose self time is the decode loop: the outer loops, the cascade
#: recursion and kernel.sd_step, which has no span of its own
LOOP_SPANS = ("cascade.generate", "cascade.sd_generate", "cascade.csd_step")


class Tracer:
    def __init__(self):
        #: [name, start, end, parent span, request id, rows, child time]
        self.spans: list = []
        self.request = None
        self.wire_bytes = 0
        #: id(model instance) -> span name that overrides its class's name
        self.aliases: dict = {}
        self._local = threading.local()
        self._saved: list = []

    def _wrap(self, name, fn, rows=False, aliased=False):
        spans, local, clock = self.spans, self._local, time.perf_counter
        aliases = self.aliases

        def wrapper(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else None
            span_name = aliases.get(id(args[0]), name) if aliased else name
            rec = [span_name, 0.0, 0.0, parent, self.request, 0, 0.0]
            spans.append(rec)
            stack.append(rec)
            rec[START] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
                if parent is not None:
                    parent[CHILD] += rec[END] - rec[START]
            if rows:
                rec[ROWS] = len(out)
            return out
        return wrapper

    def _count_bytes(self, fn):
        def post(*args, **kwargs):
            resp = fn(*args, **kwargs)
            self.wire_bytes += len(resp.request.body or b"") + len(resp.content)
            return resp
        return post

    def _patch(self, owner, attr, new) -> None:
        self._saved.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, new)

    def install(self) -> None:
        w = self._wrap
        review = w("kernel.review", kernel.speculative_review)
        patches = [
            (statlm.MagModel, "propose", w("statlm.mag_propose", statlm.MagModel.propose)),
            (statlm.NGramModel, "evaluate",
             w("statlm.ngram_evaluate", statlm.NGramModel.evaluate, rows=True, aliased=True)),
            (core.LanguageModel, "propose", w("core.propose", core.LanguageModel.propose)),
            # bound twice: kernel.sd_step calls the kernel global, the cascade
            # imported its own name
            (kernel, "speculative_review", review),
            (cascade, "speculative_review", review),
            (cascade, "generate", w("cascade.generate", cascade.generate)),
            (cascade, "sd_generate", w("cascade.sd_generate", cascade.sd_generate)),
            (cascade, "csd_step", w("cascade.csd_step", cascade.csd_step)),
            (remote.RemoteModel, "evaluate",
             w("remote.evaluate", remote.RemoteModel.evaluate, rows=True)),
            (requests.Session, "post", self._count_bytes(requests.Session.post)),
            (bench, "ingest_corpus", w("bench.ingest", bench.ingest_corpus)),
            (bench, "build_model", w("bench.build_model", bench.build_model)),
            (bench, "train_ngram", w("statlm.train", bench.train_ngram)),
            (statlm.BigramTable, "from_corpus", classmethod(
                w("statlm.train", vars(statlm.BigramTable)["from_corpus"].__func__))),
        ]
        for owner, attr, new in patches:
            self._patch(owner, attr, new)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, old = self._saved.pop()
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)

    def layer_metrics(self) -> dict:
        """The per-layer metrics of the spans recorded so far."""
        agg: dict = {}
        for rec in self.spans:
            a = agg.setdefault(rec[0], [0, 0.0, 0.0, 0])
            dur = rec[END] - rec[START]
            a[0] += 1
            a[1] += dur
            a[2] += dur - rec[CHILD]
            a[3] += rec[ROWS]

        def get(name):
            calls, busy, self_s, rows = agg.get(name, (0, 0.0, 0.0, 0))
            return calls, busy, self_s, rows, (busy / calls if calls else 0.0)

        out = {}
        calls, busy, _, _, mean = get("statlm.mag_propose")
        out.update({"statlm.mag_propose.calls": calls, "statlm.mag_propose.busy_s": busy,
                    "statlm.mag_propose.mean_us": mean * 1e6})
        calls, busy, _, rows, mean = get("statlm.ngram_evaluate")
        out.update({"statlm.ngram_evaluate.calls": calls, "statlm.ngram_evaluate.rows": rows,
                    "statlm.ngram_evaluate.busy_s": busy,
                    "statlm.ngram_evaluate.mean_us": mean * 1e6})
        out["statlm.train.busy_s"] = get("statlm.train")[1]
        out["bench.ingest.busy_s"] = get("bench.ingest")[1]
        calls, busy, self_s, _, _ = get("core.propose")
        out.update({"core.propose.calls": calls, "core.propose.busy_s": busy,
                    "core.propose.self_s": self_s})
        calls, busy, _, _, mean = get("kernel.review")
        out.update({"kernel.review.calls": calls, "kernel.review.busy_s": busy,
                    "kernel.review.mean_us": mean * 1e6})
        out["cascade.generate.self_s"] = sum(get(n)[2] for n in LOOP_SPANS)
        calls, busy, _, rows, mean = get("remote.evaluate")
        server = get("remote.serve")[1]
        out.update({"remote.evaluate.calls": calls, "remote.evaluate.rows": rows,
                    "remote.evaluate.busy_s": busy, "remote.evaluate.mean_ms": mean * 1e3,
                    "remote.server_s": server, "remote.wire_s": busy - server,
                    "remote.bytes": self.wire_bytes})
        return out

    def write_spans(self, path) -> None:
        ids = {id(rec): i for i, rec in enumerate(self.spans)}
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for i, rec in enumerate(self.spans):
                parent = ids[id(rec[PARENT])] if rec[PARENT] is not None else None
                fh.write(json.dumps({"id": i, "name": rec[0], "start": rec[START],
                                     "end": rec[END], "parent": parent,
                                     "request": rec[REQUEST]}) + "\n")
