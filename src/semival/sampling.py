"""Deterministic payload streams per instance, and the one sampled-law loop.

Streams are keyed by (seed, instance id, salt, size bound); identical
specs yield identical streams.  Each stream starts with the instance's
fixed preamble so known witnesses are always visited first, then continues
with pseudo-random canonical payloads from one sampler of the instance,
built once per stream.  No stream is retained: a repeated spec draws its
stream again.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import islice, product
from typing import Callable, Iterable, Iterator

from .reports import LawReport, SampleSpec, law_counterexample, law_holds
from .semiring import Element, Semiring


def _rng(spec: SampleSpec, sid: str, salt: str) -> random.Random:
    # string seeding hashes the text itself, so this is stable across runs
    return random.Random(f"{spec.seed}:{sid}:{salt}:{spec.size_bound}")


# No stream is kept: maxsize=0 makes this a plain call that still counts its
# calls in cache_info(), which the benchmark reads under this name.
@lru_cache(maxsize=0)
def _cached_stream(instance: Semiring, seed: int, count: int, size_bound: int,
                   salt: str, keep: Callable[[object], bool] | None) -> list:
    spec = SampleSpec(seed, count, size_bound)
    draw = instance._sampler(_rng(spec, instance.sid, salt), size_bound)
    # filtered generation stops at a fixed cap of draws, which an unfiltered
    # stream never reaches
    pre, draws = instance.preamble, (draw() for _ in range(40 * count + 200))
    if keep is not None:
        pre, draws = filter(keep, pre), filter(keep, draws)
    out = list(pre)[:count]
    out.extend(islice(draws, count - len(out)))
    return out


def stream(instance: Semiring, spec: SampleSpec, salt: str = "",
           keep: Callable[[object], bool] | None = None) -> list:
    """spec.count payloads, or fewer where keep rejects too many draws."""
    return _cached_stream(instance, spec.seed, spec.count, spec.size_bound, salt, keep)


def _tuple_stream(instance: Semiring, spec: SampleSpec, salts: tuple[str, ...],
                  keep: Callable[[object], bool] | None, salt: str) -> Iterator[tuple]:
    """spec.count tuples: the preamble power first, then one fresh stream per
    position, zipped."""
    pre = [p for p in instance.preamble if keep is None or keep(p)]
    block = list(product(pre, repeat=len(salts)))[: spec.count]
    yield from block
    remaining = spec.count - len(block)
    if remaining <= 0:
        return
    side = SampleSpec(spec.seed, remaining, spec.size_bound)
    yield from zip(*(stream(instance, side, salt=salt + s, keep=keep) for s in salts))


def pair_stream(instance: Semiring, spec: SampleSpec,
                keep: Callable[[object], bool] | None = None,
                salt: str = "") -> Iterator[tuple]:
    """spec.count pairs: the preamble square first, then fresh random pairs."""
    return _tuple_stream(instance, spec, ("pair-a", "pair-b"), keep, salt)


def triple_stream(instance: Semiring, spec: SampleSpec,
                  salt: str = "") -> Iterator[tuple]:
    return _tuple_stream(instance, spec, ("tri-a", "tri-b", "tri-c"), None, salt)


def nonzero_stream(instance: Semiring, spec: SampleSpec, salt: str = "") -> list:
    eq, zero = instance._eq, instance._zero()
    return stream(instance, spec, salt=salt, keep=lambda p: not eq(p, zero))


def first_counterexample(law: str, instance: Semiring, tuples: Iterable[tuple],
                         test: Callable, spec: SampleSpec) -> LawReport:
    """Run a sampled law: test(*payloads) returns None for a tuple that
    passes or is skipped, and (k, detail) for one that fails.  The first
    failure's first k payloads become the witness: the only elements a
    sampled check builds."""
    for payloads in tuples:
        failure = test(*payloads)
        if failure is not None:
            k, detail = failure
            witness = tuple(Element(instance, p) for p in payloads[:k])
            return law_counterexample(law, witness, spec, detail)
    return law_holds(law, spec)
