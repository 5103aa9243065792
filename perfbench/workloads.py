"""The three closed-loop decode workloads: request generation, set-up,
one generate call per request, and the output check for each request.

Everything here calls the program through its public entry points and looks
each one up on its module at call time, so the wrappers that the traced run
installs (see ``layers.py``) see every call.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

from specdraft import bench, cascade, remote
from specdraft.cascade import CascadeConfig, KMatrix
from specdraft.core import RandomSource
from specdraft.kernel import DecodeMode

REPO = Path(__file__).resolve().parent.parent
TRAIN = REPO / "data" / "train.txt"
EVAL = REPO / "data" / "eval.txt"

#: the model specs of configs/bench_example.json
MODEL_SPECS = {
    "n7": {"type": "ngram", "order": 7},
    "n3": {"type": "ngram", "order": 3},
    "n2": {"type": "ngram", "order": 2},
    "mag": {"type": "mag", "span": 10},
}

#: the k-matrix of the bench config's csd-n3-n2-mag run
CASCADE_K = [[3, 2, 10], [0, 2, 10], [0, 0, 10]]
SD_K = 6
#: client timeout per score request; a stalled stub fails the request, not the run
REMOTE_TIMEOUT_S = 5.0


@dataclass
class Request:
    prompt: List[int]
    seed: int


@dataclass
class Models:
    """What one set-up produced; ``close`` stops the stub server, if any."""

    models: dict
    stop_tokens: frozenset
    server: Optional[remote.ScoringServer] = None
    #: the in-process model behind the stub server, if any
    served: Optional[object] = None

    def close(self) -> None:
        if self.server is not None:
            self.server.close()
            self.server = None


class Workload:
    name = ""
    trained = ()          # models built in set-up
    max_new_tokens = 0
    prompt_len = (0, 0)   # inclusive range of prompt lengths, in tokens
    requests = 0          # requests per round
    greedy = True

    def make_requests(self, seed: int) -> List[Request]:
        """The round's requests; the same seed always gives the same list."""
        tok = bench.ByteTokenizer()
        lines = [seq[1:-1] for seq in
                 bench.ingest_corpus(str(EVAL), "byte", existing=tok)[0]]
        rng = random.Random(f"{self.name}:{seed}")
        # prompt lengths spread evenly over the range, and eval lines dealt
        # from a shuffled deck, so that seeds differ in content and order but
        # not in how much context there is to scan or how much of the eval
        # text the prompts cover
        lo, hi = self.prompt_len
        lengths = [lo + round((hi - lo) * i / max(1, self.requests - 1))
                   for i in range(self.requests)]
        rng.shuffle(lengths)
        deal = itertools.cycle(rng.sample(lines, len(lines)))
        return [Request(self._prompt(rng, deal, tok, n), rng.randrange(2 ** 31))
                for n in lengths]

    def _prompt(self, rng, deal, tok, length) -> List[int]:
        """A bos-led prompt cut from a random place in one eval line."""
        n = length - 1
        line = next(deal)
        off = rng.randint(0, len(line) - n)
        return [tok.vocab.bos_id] + line[off:off + n]

    def setup(self) -> Models:
        train, vocab, _ = bench.ingest_corpus(str(TRAIN), "byte")
        models = {n: bench.build_model(n, MODEL_SPECS[n], train, vocab)
                  for n in self.trained}
        return Models(models, frozenset({vocab.eos_id}))

    def generate(self, m: Models, req: Request):
        """One request: returns (output tokens, GenerationTrace)."""
        raise NotImplementedError

    def reference_model(self, m: Models):
        """The in-process target whose greedy decode every output must equal."""
        return m.models["n7"]

    def check(self, m: Models, req: Request, out, trace) -> Optional[str]:
        """None if the output is right, else what is wrong with it."""
        if out[:len(req.prompt)] != list(req.prompt):
            return "prompt prefix not kept"
        if self.greedy:
            ref = cascade.autoregressive_generate(
                self.reference_model(m), req.prompt, self.max_new_tokens,
                DecodeMode.GREEDY, RandomSource(0), m.stop_tokens)[0]
            return None if out == ref else "differs from target-only greedy decoding"
        return check_sampled(out[len(req.prompt):], trace, self.max_new_tokens,
                             m.stop_tokens)


def check_sampled(new, trace, max_new_tokens, stop_tokens) -> Optional[str]:
    """Invariants of a sampled speculative decode, whose exact output has no
    cheap reference."""
    if len(new) > max_new_tokens:
        return f"{len(new)} new tokens, budget {max_new_tokens}"
    stops = [i for i, t in enumerate(new) if t in stop_tokens]
    if stops and stops[0] != len(new) - 1:
        return "tokens emitted after a stop token"
    if len(new) < max_new_tokens and not stops:
        return "ended early without a stop token"
    if trace.tokens_emitted != len(new):
        return "trace token count differs from the output"
    per_review = [s.accepted + 1 for s in trace.steps if s.level == 0]
    if any(s.accepted > s.proposed for s in trace.steps):
        return "a review accepted more than was proposed"
    # every review but the last emits accepted + 1 tokens; the last may be
    # cut by the budget or a stop token
    if not per_review or not sum(per_review[:-1]) < len(new) <= sum(per_review):
        return "review emissions do not add up to the output"
    return None


class CopyCascade(Workload):
    """The bench config's csd-n3-n2-mag run on long phrase-heavy contexts:
    the suffix-copy drafter and the cascade recursion do the work."""

    name = "copy-cascade"
    trained = ("n7", "n3", "n2", "mag")
    max_new_tokens = 64
    prompt_len = (64, 320)
    requests = 200

    def _prompt(self, rng, deal, tok, length):
        """Whole eval lines joined by spaces, so phrases repeat in context."""
        n = length - 1
        space = tok.encode(" ")
        body: List[int] = []
        while len(body) < n:
            body += next(deal) + space
        return [tok.vocab.bos_id] + body[:n]

    def generate(self, m, req):
        cfg = CascadeConfig(
            target=m.models["n7"],
            drafts=[m.models["n3"], m.models["n2"], m.models["mag"]],
            k_matrix=KMatrix(CASCADE_K), mode=DecodeMode.GREEDY,
            max_new_tokens=self.max_new_tokens, seed=req.seed, lenience=1.0,
            stop_tokens=m.stop_tokens)
        return cascade.generate(cfg, req.prompt)


class SdSampling(Workload):
    """Sampled n7 <- n3 speculative decoding: the sampling review and a cold
    n-gram row cache do the work; no suffix matcher."""

    name = "sd-sampling"
    trained = ("n7", "n3")
    max_new_tokens = 96
    prompt_len = (16, 64)
    requests = 400
    greedy = False

    def generate(self, m, req):
        return cascade.sd_generate(m.models["n7"], m.models["n3"], SD_K, 1.0,
                                   req.prompt, self.max_new_tokens,
                                   DecodeMode.SAMPLING, RandomSource(req.seed),
                                   m.stop_tokens)


class RemoteTarget(Workload):
    """Greedy n7 <- n3 speculative decoding with n7 behind the stub HTTP
    server on loopback: the remote wire does the work."""

    name = "remote-target"
    trained = ("n7", "n3")
    max_new_tokens = 32
    prompt_len = (16, 48)
    requests = 160

    def setup(self):
        """Serves the trained n7 and swaps in a client for it; the served
        instance is reached in-process only by the output check."""
        m = super().setup()
        served = m.served = m.models["n7"]
        m.server = remote.serve_model(served)
        try:
            m.models["n7"] = remote.RemoteModel(remote.RemoteModelSpec(
                m.server.url, served.vocab.size, cost_weight=served.cost_weight,
                timeout=REMOTE_TIMEOUT_S, descriptor="n7"), served.vocab)
        except BaseException:
            m.close()
            raise
        return m

    def generate(self, m, req):
        return cascade.sd_generate(m.models["n7"], m.models["n3"], SD_K, 1.0,
                                   req.prompt, self.max_new_tokens,
                                   DecodeMode.GREEDY, RandomSource(req.seed),
                                   m.stop_tokens)

    def reference_model(self, m):
        return m.served


WORKLOADS = {w.name: w for w in (CopyCascade(), SdSampling(), RemoteTarget())}
