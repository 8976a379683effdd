#!/usr/bin/env python3
"""Count how nat ideal membership answers a fixed, seeded set of queries.

Each ideal over nat decides membership through one cached semigroup per
reduced generator list: a memoised search first, and the residue table
once the search's memo would pass the least scaled generator's number of
entries.  This replays contains, product and power requests on small
generators (2 to 40, two to four of them) and on three coprime generators
above 50000, sixteen probes each, and prints per request kind the queries
decided before either route (zero, or not a multiple of the gcd), those
answered without a table (by the search, or at once as a generator or a
number below the least one), those read from a table, the fallbacks (tables
built), the most memo entries any semigroup held, and the table entries
built.  Every figure is a count, so the output is the same on any machine.

Usage: python scripts/nat_routes.py
"""

import math
import random

from semival import ideals
from semival.ideals import ideal_power, ideal_product, make_ideal
from semival.instances import get_instance

SEED = "nat-routes:1"
ROUNDS = 40
PROBES = 16
# (kind, generator range, generators per ideal, probe scale, requests per round)
MIX = (("contains", (2, 40), (2, 4), 800, 8),
       ("contains", (50_001, 120_000), (3, 3), 1_000_000, 4),
       ("product", (2, 40), (2, 4), 800, 3),
       ("power", (2, 40), (2, 4), 800, 3))


class Memo(dict):
    """A search memo that records the most entries it ever held."""

    most = 0

    def __setitem__(self, key, value):
        super().__setitem__(key, value)
        self.most = max(self.most, len(self))


def draw_gens(rng, lo, hi, k_min, k_max):
    while True:
        gens = [rng.randint(lo, hi) for _ in range(rng.randint(k_min, k_max))]
        if lo < 1000 or math.gcd(*gens) == 1:
            return gens


def probes(rng, gens, scale):
    out = []
    for _ in range(PROBES):
        if rng.random() < 0.5:
            picked = rng.sample(gens, min(3, len(gens)))
            out.append(sum(rng.randint(0, 6) * g for g in picked))
        else:
            out.append(rng.randint(1, scale))
    return out


def main() -> None:
    nat = get_instance("nat")
    rng = random.Random(SEED)
    ideals._nat_semigroup.cache_clear()
    memos: dict = {}  # reduced generators -> the watched memo of their semigroup
    columns = ("direct", "search", "table", "fallbacks", "peak memo", "table entries")
    rows = {kind: dict.fromkeys(columns, 0) for kind, *_ in MIX}
    for _ in range(ROUNDS):
        for kind, (lo, hi), (k_min, k_max), scale, count in MIX:
            row = rows[kind]
            for _ in range(count):
                I = make_ideal(nat, map(nat.element, draw_gens(rng, lo, hi, k_min, k_max)))
                if kind == "product":
                    gens = draw_gens(rng, lo, hi, k_min, k_max)
                    I = ideal_product(I, make_ideal(nat, map(nat.element, gens)))
                elif kind == "power":
                    I = ideal_power(I, rng.randint(2, 3))
                semigroup = ideals._nat_semigroup(I.payloads)
                if I.payloads not in memos:
                    semigroup.memo = memos[I.payloads] = Memo()
                for x in probes(rng, list(I.payloads), scale):
                    before = semigroup.table
                    I.contains(nat.element(x))
                    if x == 0 or x % semigroup.gcd:
                        row["direct"] += 1  # decided before either route
                    elif before is not None:
                        row["table"] += 1
                    elif semigroup.table is None:
                        row["search"] += 1
                    else:
                        row["table"] += 1
                        row["fallbacks"] += 1
                        row["table entries"] += len(semigroup.table)
                row["peak memo"] = max(row["peak memo"], memos[I.payloads].most)
    rows["total"] = {c: sum(r[c] for r in rows.values()) for c in columns}
    rows["total"]["peak memo"] = max(r["peak memo"] for r in rows.values())
    print(f"== nat membership routes: {SEED}, {ROUNDS} rounds, "
          f"{PROBES} probes a request ==")
    print(f"{'kind':<9}" + "".join(f"{c:>14}" for c in columns))
    for kind, row in rows.items():
        print(f"{kind:<9}" + "".join(f"{row[c]:>14}" for c in columns))


if __name__ == "__main__":
    main()
