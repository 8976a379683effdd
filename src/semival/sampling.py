"""Deterministic element streams per instance.

Streams are keyed by (seed, instance id, salt, size bound); identical
specs yield identical streams.  Each stream starts with the instance's
fixed preamble so known witnesses are always visited first, then continues
with pseudo-random elements.  Unfiltered streams are cached per instance
object, so an instance built outside the registry samples its own elements.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import product
from typing import Callable, Iterator

from .reports import SampleSpec
from .semiring import Element, Semiring


def _rng(spec: SampleSpec, sid: str, salt: str) -> random.Random:
    # string seeding hashes the text itself, so this is stable across runs
    return random.Random(f"{spec.seed}:{sid}:{salt}:{spec.size_bound}")


@lru_cache(maxsize=256)
def _cached_stream(instance: Semiring, seed: int, count: int, size_bound: int,
                   salt: str) -> tuple:
    spec = SampleSpec(seed, count, size_bound)
    rng = _rng(spec, instance.sid, salt)
    draw = instance._random
    out = list(instance.preamble[:count])
    out.extend(Element(instance, draw(rng, size_bound))
               for _ in range(count - len(out)))
    return tuple(out)


def stream(instance: Semiring, spec: SampleSpec, salt: str = "",
           keep: Callable[[Element], bool] | None = None) -> list[Element]:
    """spec.count elements; filtered generation retries up to a fixed cap."""
    if keep is None:
        return list(_cached_stream(instance, spec.seed, spec.count,
                                   spec.size_bound, salt))
    out = [x for x in instance.preamble if keep(x)][:spec.count]
    rng = _rng(spec, instance.sid, salt)
    draw, bound = instance._random, spec.size_bound
    attempts = 0
    limit = 40 * spec.count + 200
    while len(out) < spec.count and attempts < limit:
        x = Element(instance, draw(rng, bound))
        attempts += 1
        if keep(x):
            out.append(x)
    return out


def _tuple_stream(instance: Semiring, spec: SampleSpec, salts: tuple[str, ...],
                  keep: Callable[[Element], bool] | None, salt: str) -> Iterator[tuple]:
    """spec.count tuples: the preamble power first, then one fresh stream per
    position, zipped."""
    pre = [x for x in instance.preamble if keep is None or keep(x)]
    block = list(product(pre, repeat=len(salts)))[: spec.count]
    yield from block
    remaining = spec.count - len(block)
    if remaining <= 0:
        return
    side = SampleSpec(spec.seed, remaining, spec.size_bound)
    yield from zip(*(stream(instance, side, salt=salt + s, keep=keep) for s in salts))


def pair_stream(instance: Semiring, spec: SampleSpec,
                keep: Callable[[Element], bool] | None = None,
                salt: str = "") -> Iterator[tuple[Element, Element]]:
    """spec.count pairs: the preamble square first, then fresh random pairs."""
    return _tuple_stream(instance, spec, ("pair-a", "pair-b"), keep, salt)


def triple_stream(instance: Semiring, spec: SampleSpec,
                  salt: str = "") -> Iterator[tuple[Element, Element, Element]]:
    return _tuple_stream(instance, spec, ("tri-a", "tri-b", "tri-c"), None, salt)


def nonzero_stream(instance: Semiring, spec: SampleSpec,
                   salt: str = "") -> list[Element]:
    return stream(instance, spec, salt=salt, keep=lambda x: not x.is_zero())
