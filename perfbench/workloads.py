"""Seeded request lists and their independent expected answers.

A workload is a list of passes.  Every pass has the same fixed composition
of request kinds; only the seeded inputs change between passes and seeds.
Each request is a JSON-ready dict sent to the worker, paired with an
expectation the client checks the verdict against (see oracle.py).
"""

from __future__ import annotations

import random
from fractions import Fraction

from oracle import (
    HOLDS,
    INF,
    REFUTED,
    bp_member,
    bp_mul,
    bp_text,
    dvs_element,
    dvs_zero_text,
    fuzzy_member,
    gcd_all,
    idz_dm_holds,
    idz_gauss_holds,
    idz_member,
    law_expected,
    nat_dm_holds,
    nat_gauss_holds,
    nat_ideal_contains_all,
    nat_products,
    padic,
    qnn5_dm_gauss,
    qval,
    trop_member,
    trop_mul,
    trop_text,
    vmidz_dm_gauss,
)

# The stable public ids (README, instance catalogue and valuation rules).
INSTANCE_IDS = (
    "nat", "qnn", "bool-poly", "fuzzy", "tropical-nat", "tropical-int",
    "ideals-z", "poly(nat)", "laurent(nat)", "monoid(nat,N0)", "monoid(nat,Z)",
    "monoid(nat,Q)", "fractions(nat)", "fractions(poly(nat))",
    "fractions(ideals-z)",
)
VALUATION_PAIRS = (
    ("trivial", "qnn"), ("vp:5", "nat"), ("vp:5", "qnn"),
    ("low-order", "poly(nat)"), ("low-order", "laurent(nat)"),
    ("low-order", "monoid(nat,N0)"), ("deg-high", "laurent(nat)"),
    ("tropical-id", "tropical-nat"), ("tropical-id", "tropical-int"),
    ("deg-frac", "fractions(poly(nat))"), ("vm-idz:5", "fractions(ideals-z)"),
)

# the CLI's defaults for --samples and --size-bound: what users run
LAW_SAMPLES = 1000
LAW_SIZE = 50


def _rng(workload: str, seed: int, pass_no: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{pass_no}")


# -- law-sweep ------------------------------------------------------------------

def law_sweep_pass(seed: int, pass_no: int) -> list:
    rng = _rng("law-sweep", seed, pass_no)
    items = []

    def add(law, sid, rule=None):
        req = {"op": "law", "law": law, "sid": sid, "rule": rule,
               "seed": rng.randrange(1, 2 ** 31), "n": LAW_SAMPLES,
               "size": LAW_SIZE}
        items.append((req, {"kind": "law",
                            "class": law_expected(law, sid, rule)}))

    for sid in INSTANCE_IDS:
        for law in ("axioms", "mc", "entire"):
            add(law, sid)
    for rule, sid in VALUATION_PAIRS:
        for law in ("vaxioms", "minp", "units", "ext-axioms"):
            add(law, sid, rule)
    rng.shuffle(items)
    return items


# -- ideal-content ----------------------------------------------------------------

class _Carrier:
    """Element generation plus the oracle for one carrier.  Elements are
    (text, oracle value) pairs."""

    def __init__(self, name: str, rng: random.Random):
        self.name = name
        self.rng = rng

    def text(self, e) -> str:
        return e[0]


class _Nat(_Carrier):
    def __init__(self, rng, lo, hi, k_min, k_max):
        super().__init__("nat", rng)
        self.lo, self.hi, self.k_min, self.k_max = lo, hi, k_min, k_max

    def el(self, v):
        return (str(v), v)

    def gens(self):
        while True:
            values = [self.rng.randint(self.lo, self.hi)
                      for _ in range(self.rng.randint(self.k_min, self.k_max))]
            # large generators sharing a factor would scale down into the
            # residue-table route; keep them on the pruned search
            if self.lo < 1000 or gcd_all(values) == 1:
                return [self.el(v) for v in values]

    def member_of(self, gens):
        picked = self.rng.sample(gens, min(3, len(gens)))
        return self.el(sum(self.rng.randint(0, 6) * g[1] for g in picked))

    def random(self, scale):
        return self.el(self.rng.randint(1, scale))

    def contains_all(self, xs, gens):
        return nat_ideal_contains_all([x[1] for x in xs], [g[1] for g in gens])

    def products(self, a, b):
        return [self.el(v) for v in nat_products([x[1] for x in a], [y[1] for y in b])]


class _IdealsZ(_Carrier):
    def el(self, v):
        return (str(v), v)

    def gens(self):
        return [self.el(self.rng.randint(2, 60)) for _ in range(self.rng.randint(1, 3))]

    def member_of(self, gens):
        return self.el(gcd_all(g[1] for g in gens) * self.rng.randint(0, 20))

    def random(self, scale):
        return self.el(self.rng.randint(1, scale))

    def contains_all(self, xs, gens):
        return [idz_member(x[1], [g[1] for g in gens]) for x in xs]

    def products(self, a, b):
        return [self.el(x[1] * y[1]) for x in a for y in b]


class _BoolPoly(_Carrier):
    def el(self, s):
        s = frozenset(s)
        return (bp_text(s), s)

    def gens(self):
        out = []
        for _ in range(self.rng.randint(1, 3)):
            s = {e for e in range(5) if self.rng.random() < 0.4}
            out.append(self.el(s or {self.rng.randint(0, 4)}))
        return out

    def member_of(self, gens):
        acc = set()
        for g in gens:
            for s in range(4):
                if self.rng.random() < 0.5:
                    acc |= {e + s for e in g[1]}
        return self.el(acc or set(gens[0][1]))

    def random(self, scale):
        top = min(scale, 10)
        return self.el({e for e in range(top) if self.rng.random() < 0.5} or {0})

    def contains_all(self, xs, gens):
        return [bp_member(x[1], [g[1] for g in gens]) for x in xs]

    def products(self, a, b):
        return [self.el(bp_mul(x[1], y[1])) for x in a for y in b]


class _Tropical(_Carrier):
    def el(self, v):
        return (trop_text(v), v)

    def gens(self):
        return [self.el(self.rng.randint(0, 30)) for _ in range(self.rng.randint(1, 3))]

    def member_of(self, gens):
        return self.el(min(g[1] for g in gens) + self.rng.randint(0, 10))

    def random(self, scale):
        return self.el(INF if self.rng.random() < 0.1 else self.rng.randint(0, 40))

    def contains_all(self, xs, gens):
        return [trop_member(x[1], [g[1] for g in gens]) for x in xs]

    def products(self, a, b):
        return [self.el(trop_mul(x[1], y[1])) for x in a for y in b]


class _Fuzzy(_Carrier):
    def el(self, q):
        return (str(q), q)

    def frac(self):
        d = self.rng.randint(1, 16)
        return Fraction(self.rng.randint(0, d), d)

    def gens(self):
        return [self.el(self.frac()) for _ in range(self.rng.randint(1, 3))]

    def member_of(self, gens):
        return self.el(max(g[1] for g in gens) * Fraction(self.rng.randint(0, 4), 4))

    def random(self, scale):
        return self.el(self.frac())

    def contains_all(self, xs, gens):
        return [fuzzy_member(x[1], [g[1] for g in gens]) for x in xs]

    def products(self, a, b):
        return [self.el(min(x[1], y[1])) for x in a for y in b]


class _Dvs(_Carrier):
    def el_value(self, v):
        if v is INF:
            return (dvs_zero_text(self.name), INF)
        return dvs_element(self.name, self.rng, v)

    def gens(self):
        return [self.el_value(self.rng.randint(0, 4))
                for _ in range(self.rng.randint(1, 3))]

    def member_of(self, gens):
        return self.el_value(min(g[1] for g in gens) + self.rng.randint(0, 3))

    def random(self, scale):
        return self.el_value(self.rng.randint(0, 6))

    def contains_all(self, xs, gens):
        t = min(g[1] for g in gens)
        return [x[1] is INF or x[1] >= t for x in xs]

    def threshold(self, gens):
        return min(g[1] for g in gens)


def _carrier(name: str, rng) -> _Carrier:
    if name == "nat":
        return _Nat(rng, 2, 40, 2, 4)
    if name == "nat-large":
        # three coprime generators above 50000: the smallest times the count
        # exceeds the residue-table budget, so membership runs the pruned search
        return _Nat(rng, 50_001, 120_000, 3, 3)
    simple = {"ideals-z": _IdealsZ, "bool-poly": _BoolPoly,
              "tropical-nat": _Tropical, "fuzzy": _Fuzzy}
    return simple.get(name, _Dvs)(name, rng)


# elements tested against the ideal in one contains, product or power request
BATCH = 16

# requests per pass: (carrier, contains, subset, comparable, product, power)
IDEAL_MIX = (
    ("nat", 8, 2, 2, 3, 3),
    ("nat-large", 4, 0, 0, 0, 0),
    ("ideals-z", 2, 1, 1, 1, 1),
    ("bool-poly", 2, 1, 1, 1, 1),
    ("tropical-nat", 2, 1, 1, 1, 1),
    ("fuzzy", 2, 1, 1, 1, 1),
    ("qnn@5", 2, 1, 1, 1, 1),
    ("tropical@int", 2, 1, 1, 1, 1),
    ("deg-frac", 2, 1, 1, 1, 1),
    ("vm-idz@5", 2, 1, 1, 1, 1),
)
# content checks per pass and carrier: (dedekind-mertens, gaussian)
CONTENT_MIX = (("nat", 8, 6), ("ideals-z", 3, 3), ("qnn@5", 8, 6),
               ("vm-idz@5", 6, 4))


def _ideal_request(kind, cname, c: _Carrier, rng):
    base = {"op": "ideal", "kind": kind, "carrier": cname.replace("nat-large", "nat")}
    scale = 1_000_000 if cname == "nat-large" else 800
    if kind == "contains":
        I = c.gens()
        xs = [c.member_of(I) if rng.random() < 0.5 else c.random(scale)
              for _ in range(BATCH)]
        req = dict(base, I=[c.text(g) for g in I], probes=[c.text(x) for x in xs])
        return req, {"kind": "probes", "value": c.contains_all(xs, I)}
    if kind in ("subset", "comparable"):
        I = c.gens()
        J = I + c.gens() if rng.random() < 0.5 else c.gens()
        if rng.random() < 0.5:
            I, J = J, I
        fwd = all(c.contains_all(I, J))
        bwd = all(c.contains_all(J, I))
        ok = fwd if kind == "subset" else (fwd or bwd)
        req = dict(base, I=[c.text(g) for g in I], J=[c.text(g) for g in J])
        return req, {"kind": "law", "class": HOLDS if ok else REFUTED}
    # product and power answer membership of probe elements in the result
    I = c.gens()
    n = 1
    if kind == "product":
        J = c.gens()
    else:
        n = rng.randint(2, 3)
        J = None
    if isinstance(c, _Dvs):
        t = c.threshold(I) + (c.threshold(J) if J else (n - 1) * c.threshold(I))
        probes = [c.el_value(v) for v in (t - 1, t, t + 1) if v >= 0]
        probes.append(c.el_value(INF))
        expect = [p[1] is INF or p[1] >= t for p in probes]
    else:
        if J is not None:
            gens = c.products(I, J)
        else:
            gens = I
            for _ in range(n - 1):
                gens = c.products(gens, I)
        probes = [c.member_of(gens) if rng.random() < 0.5 else c.random(scale)
                  for _ in range(BATCH)]
        expect = c.contains_all(probes, gens)
    req = dict(base, I=[c.text(g) for g in I], probes=[c.text(p) for p in probes])
    if J is not None:
        req["J"] = [c.text(g) for g in J]
    else:
        req["n"] = n
    return req, {"kind": "probes", "value": expect}


def _content_request(kind, cname, rng):
    df, dg = rng.randint(0, 3), rng.randint(0, 2)
    req = {"op": "content", "kind": kind, "carrier": cname}
    dm = kind == "dm"
    if cname == "nat":
        f = [rng.randint(1, 12) for _ in range(df + 1)]
        g = [rng.randint(1, 12) for _ in range(dg + 1)]
        holds, a, b = (nat_dm_holds if dm else nat_gauss_holds)(f, g)
        exp = {"kind": "law", "class": HOLDS if holds else REFUTED, "sides": (a, b)}
        texts_f, texts_g = [str(x) for x in f], [str(x) for x in g]
    elif cname == "ideals-z":
        f = [rng.randint(1, 40) for _ in range(df + 1)]
        g = [rng.randint(1, 40) for _ in range(dg + 1)]
        holds = (idz_dm_holds if dm else idz_gauss_holds)(f, g)
        exp = {"kind": "law", "class": HOLDS if holds else REFUTED}
        texts_f, texts_g = [str(x) for x in f], [str(x) for x in g]
    elif cname == "qnn@5":
        f = [Fraction(dvs_element(cname, rng, rng.randint(0, 3))[0]) for _ in range(df + 1)]
        g = [Fraction(dvs_element(cname, rng, rng.randint(0, 3))[0]) for _ in range(dg + 1)]
        holds = qnn5_dm_gauss(f, g)[0 if dm else 1]
        exp = {"kind": "law", "class": HOLDS if holds else REFUTED}
        texts_f, texts_g = [str(x) for x in f], [str(x) for x in g]
    else:
        fe = [dvs_element(cname, rng, rng.randint(0, 3)) for _ in range(df + 1)]
        ge = [dvs_element(cname, rng, rng.randint(0, 3)) for _ in range(dg + 1)]
        holds = vmidz_dm_gauss([e[1] for e in fe], [e[1] for e in ge])[0 if dm else 1]
        exp = {"kind": "law", "class": HOLDS if holds else REFUTED}
        texts_f, texts_g = [e[0] for e in fe], [e[0] for e in ge]
    req["f"], req["g"] = texts_f, texts_g
    return req, exp


def ideal_content_pass(seed: int, pass_no: int) -> list:
    rng = _rng("ideal-content", seed, pass_no)
    items = []
    for cname, *counts in IDEAL_MIX:
        c = _carrier(cname, rng)
        for kind, count in zip(("contains", "subset", "comparable", "product",
                                "power"), counts):
            for _ in range(count):
                items.append(_ideal_request(kind, cname, c, rng))
    # (X) and (X + 1) are incomparable over the Boolean polynomials
    items.append(({"op": "ideal", "kind": "comparable", "carrier": "bool-poly",
                   "I": ["X"], "J": ["X + 1"]}, {"kind": "law", "class": REFUTED}))
    for cname, n_dm, n_gauss in CONTENT_MIX:
        for kind, count in (("dm", n_dm), ("gauss", n_gauss)):
            for _ in range(count):
                items.append(_content_request(kind, cname, rng))
    rng.shuffle(items)
    return items


# -- cli-calc -----------------------------------------------------------------------

def _nat_text(rng) -> tuple[str, int]:
    """A natural number of seeded size, written plainly or as a product."""
    digits = rng.choice((1, 3, 8, 20, 40))
    n = 5 ** rng.randint(0, 12) * rng.randint(1, 10 ** digits)
    if rng.random() < 0.3:
        a = rng.randint(1, 10 ** digits)
        b = 5 ** rng.randint(0, 6)
        return f"{a}*{b}", a * b
    return str(n), n


def _qnn_text(rng) -> tuple[str, Fraction]:
    num = _nat_text(rng)[1]
    den = rng.randint(1, 10 ** rng.choice((1, 4, 12))) * 5 ** rng.randint(0, 3)
    q = Fraction(num, den)
    return f"{num}/{den}", q


def _vtext(v) -> str:
    return "inf" if v is INF else str(v)


def cli_calc_pass(seed: int, pass_no: int) -> list:
    rng = _rng("cli-calc", seed, pass_no)
    items = []
    for _ in range(3):
        for p in (5, 3):
            text, n = _nat_text(rng)
            items.append((["valuate", "--semiring", "nat", "--valuation", f"vp:{p}", text],
                          {"code": 0, "result": _vtext(padic(n, p) if n else INF)}))
        for p in (5, 7):
            text, q = _qnn_text(rng)
            items.append((["valuate", "--semiring", "qnn", "--valuation", f"vp:{p}", text],
                          {"code": 0, "result": _vtext(qval(q, p))}))
    for _ in range(2):
        for p in (5, 3):
            text, q = _qnn_text(rng)
            n = qval(q, p)
            unit = q / Fraction(p) ** n
            items.append((["factor", "--semiring", "qnn", "--valuation", f"vp:{p}", text],
                          {"code": 0, "result": f"({unit}, {n})"}))
    for _ in range(3):
        (ta, a), (tb, b) = _qnn_text(rng), _qnn_text(rng)
        if qval(a, 5) < qval(b, 5):
            result = f"(0, {a})"
        else:
            result = f"({a / b}, 0)"
        items.append((["divmod", "--semiring", "qnn", "--valuation", "vp:5", ta, tb],
                      {"code": 0, "result": result}))
    for _ in range(3):
        gens = [rng.randint(2, 60) for _ in range(rng.randint(2, 4))]
        x = rng.randint(1, 2000)
        member = nat_ideal_contains_all([x], gens)[0]
        items.append((["ideal", "--semiring", "nat", "--op", "contains",
                       "ideal[" + ", ".join(map(str, gens)) + "]", str(x)],
                      {"code": 0 if member else 1, "result": str(member).lower()}))
        gens = [rng.randint(2, 60) for _ in range(rng.randint(1, 3))]
        x = rng.randint(1, 5000)
        member = idz_member(x, gens)
        items.append((["ideal", "--semiring", "ideals-z", "--op", "contains",
                       "ideal[" + ", ".join(map(str, gens)) + "]", str(x)],
                      {"code": 0 if member else 1, "result": str(member).lower()}))
    for argv, _ in items:
        argv.insert(1, "--output")
        argv.insert(2, "json")
    rng.shuffle(items)
    return items


BIG_PRIME = 1_000_000_000_000_000_003


def hostile_requests() -> list:
    """The inputs listed under the roadmap's known defects, each with the
    documented outcome: exit 0 with the right value, or exit 2 for usage
    and parse errors."""
    nested = "(" * 2000 + "50" + ")" * 2000
    return [
        (["valuate", "--output", "json", "--semiring", "nat", "--valuation",
          f"vp:{BIG_PRIME}", f"{BIG_PRIME}^2*7"], {"code": 0, "result": "2"}),
        (["valuate", "--output", "json", "--semiring", "nat", "--valuation", "vp:5",
          "5^1000000"], {"code": 0, "result": "1000000"}),
        (["ideal", "--output", "json", "--semiring", "bool-poly", "--op", "contains",
          "ideal[X]", "X^100000000"], {"code": 0, "result": "true"}),
        (["valuate", "--output", "json", "--semiring", "nat", "--valuation", "vp:5",
          nested], {"code": (0, 2), "result": "2"}),
        (["check", "--output", "json", "--semiring", "nat", "--property", "axioms",
          "--samples", "0"], {"code": 2, "result": None}),
    ]


# -- acceptance -------------------------------------------------------------------------

# Criterion 10 (Dedekind-Mertens over nat) is red by design; every other
# criterion passes.
ACCEPTANCE_EXPECTED = {k: k != 10 for k in range(1, 13)}
