"""Deterministic payload streams per instance, and the one sampled-law loop.

Streams are keyed by (seed, instance id, salt, size bound); identical
specs yield identical streams.  Each stream starts with the instance's
fixed preamble so known witnesses are always visited first, then continues
with pseudo-random canonical payloads from one sampler of the instance,
built once per stream.  Every stream is drawn by one lazy iterator,
``iter_stream``: a sampled check pulls each payload as it tests it, so it
holds O(1) samples whatever the count.  No stream is retained: a repeated
spec draws its stream again.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import chain, islice, product, repeat, starmap
from typing import Callable, Iterable, Iterator

from .reports import LawReport, SampleSpec, law_counterexample, law_holds
from .semiring import Element, Semiring


def _rng(spec: SampleSpec, sid: str, salt: str) -> random.Random:
    # string seeding hashes the text itself, so this is stable across runs
    return random.Random(f"{spec.seed}:{sid}:{salt}:{spec.size_bound}")


def iter_stream(instance: Semiring, spec: SampleSpec, salt: str,
                keep: Callable[[object], bool] | None) -> Iterator:
    """The payloads of stream(), drawn one at a time as they are asked for.
    Built of itertools alone, so no Python frame runs per payload beyond
    the sampler's and keep's own."""
    draw = instance._sampler(_rng(spec, instance.sid, salt), spec.size_bound)
    # filtered generation stops at a fixed cap of draws, which an unfiltered
    # stream never reaches
    pre, draws = instance.preamble, starmap(draw, repeat((), 40 * spec.count + 200))
    if keep is not None:
        pre, draws = filter(keep, pre), filter(keep, draws)
    head = list(islice(pre, spec.count))
    return chain(head, islice(draws, spec.count - len(head)))


# No stream is kept: maxsize=0 makes this a plain call that still counts its
# calls in cache_info(), which the benchmark reads under this name.
@lru_cache(maxsize=0)
def _cached_stream(instance: Semiring, seed: int, count: int, size_bound: int,
                   salt: str, keep: Callable[[object], bool] | None) -> list:
    return list(iter_stream(instance, SampleSpec(seed, count, size_bound), salt, keep))


def stream(instance: Semiring, spec: SampleSpec, salt: str = "",
           keep: Callable[[object], bool] | None = None) -> list:
    """spec.count payloads, or fewer where keep rejects too many draws; a
    list, for callers that index, slice or reread it."""
    return _cached_stream(instance, spec.seed, spec.count, spec.size_bound, salt, keep)


def _tuple_stream(instance: Semiring, spec: SampleSpec, salts: tuple[str, ...],
                  keep: Callable[[object], bool] | None, salt: str) -> Iterator[tuple]:
    """spec.count tuples, drawn lazily: the preamble power first, then one
    fresh stream per position, zipped."""
    pre = instance.preamble if keep is None else filter(keep, instance.preamble)
    block = list(islice(product(pre, repeat=len(salts)), spec.count))
    side = SampleSpec(spec.seed, spec.count - len(block), spec.size_bound)
    return chain(block, zip(*(iter_stream(instance, side, salt + s, keep) for s in salts)))


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
            # indexed, not sliced: a k past the tuple is a fault of the law
            witness = tuple(Element(instance, payloads[i]) for i in range(k))
            return law_counterexample(law, witness, spec, detail)
    return law_holds(law, spec)
