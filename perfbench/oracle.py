"""Independent expected answers for the benchmark's requests.

Nothing here imports semival.  Each carrier's arithmetic and ideal
membership is re-implemented from its mathematical definition, so an
expected verdict never comes from the code under test:

  nat           x is in (g1..gk) iff x is a reachable sum of generators
                (bitset closure, not the residue table or pruned search)
  ideals-z      (x) is in ((g1)..(gk)) iff gcd(g1..gk) divides x
  bool-poly     x is in the ideal iff x is the union of the generator
                shifts it contains (addition is union, product a sumset)
  tropical-nat  min-plus: y is in (g1..gk) iff y = inf or y >= min gi
  fuzzy         max-min: every ideal is [0, max gi]
  DVS carriers  y is in (g1..gk) iff v(y) >= min v(gi), with v computed
                here from the element's own numbers
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce
from itertools import product

INF = None  # the adjoined top value / the tropical zero


# -- numbers --------------------------------------------------------------------

def padic(n: int, p: int) -> int:
    """Exponent of p in the nonzero integer n."""
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def qval(q: Fraction, p: int):
    """p-adic value of a rational; INF for zero."""
    if q == 0:
        return INF
    return padic(q.numerator, p) - padic(q.denominator, p)


# -- nat: reachable sums ----------------------------------------------------------

def nat_reach(gens, limit: int) -> int:
    """Bitset of the sums of nonnegative multiples of gens that are <= limit."""
    mask = (1 << (limit + 1)) - 1
    reach = 1
    for g in sorted(set(g for g in gens if 0 < g <= limit)):
        if reach >> g & 1:
            continue  # g is already a sum of smaller generators
        step = g
        while step <= limit:
            reach = (reach | (reach << step)) & mask
            step <<= 1
    return reach


def nat_member(x: int, gens) -> bool:
    if x == 0:
        return True
    return bool(nat_reach(gens, x) >> x & 1)


def nat_ideal_contains_all(xs, gens) -> list[bool]:
    """Membership of every x in one bitset pass."""
    if not xs:
        return []
    reach = nat_reach(gens, max(xs))
    return [bool(reach >> x & 1) for x in xs]


def nat_products(a, b) -> list[int]:
    return [x * y for x in a for y in b]


def nat_power(gens, n: int) -> list[int]:
    out = [1]
    for _ in range(n):
        out = nat_products(out, gens)
    return out


def nat_ideal_equal(a, b) -> bool:
    a = [x for x in a if x]
    b = [x for x in b if x]
    if not a or not b:
        return not a and not b
    return (all(nat_ideal_contains_all(a, b))
            and all(nat_ideal_contains_all(b, a)))


# -- ideals-z ---------------------------------------------------------------------

def gcd_all(xs) -> int:
    return reduce(math.gcd, xs, 0)


def idz_member(x: int, gens) -> bool:
    d = gcd_all(gens)
    return x == 0 if d == 0 else x % d == 0


# -- bool-poly: exponent sets ------------------------------------------------------

def bp_mul(a: frozenset, b: frozenset) -> frozenset:
    return frozenset(x + y for x in a for y in b)


def bp_member(x: frozenset, gens) -> bool:
    if not x:
        return True
    top = max(x)
    covered = set()
    for g in gens:
        if not g:
            continue
        for s in range(0, top - max(g) + 1):
            shifted = {e + s for e in g}
            if shifted <= x:
                covered |= shifted
    return covered == x


def bp_text(x: frozenset) -> str:
    if not x:
        return "0"
    terms = []
    for e in sorted(x):
        terms.append("1" if e == 0 else "X" if e == 1 else f"X^{e}")
    return " + ".join(terms)


# -- tropical-nat and fuzzy ---------------------------------------------------------

def trop_member(y, gens) -> bool:
    finite = [g for g in gens if g is not INF]
    if y is INF:
        return True
    return bool(finite) and y >= min(finite)


def trop_text(y) -> str:
    return "inf" if y is INF else str(y)


def trop_mul(a, b):
    return INF if a is INF or b is INF else a + b


def fuzzy_member(y: Fraction, gens) -> bool:
    return y <= max(gens)


# -- discrete valuation carriers ------------------------------------------------------
#
# Each carrier element is kept as (text, value); value is computed here from
# the numbers used to build the text.

DVS_CARRIERS = {
    # name: (ambient instance id, rule)
    "qnn@5": ("qnn", "vp:5"),
    "tropical@int": ("tropical-int", "tropical-id"),
    "deg-frac": ("fractions(poly(nat))", "deg-frac"),
    "vm-idz@5": ("fractions(ideals-z)", "vm-idz:5"),
}


def _unit_int(rng, p: int, hi: int) -> int:
    while True:
        u = rng.randint(1, hi)
        if u % p:
            return u


def _poly_text(coeffs) -> str:
    """coeffs[k] is the coefficient of X^k; at least one nonzero."""
    terms = []
    for k, c in enumerate(coeffs):
        if c == 0:
            continue
        mono = "" if k == 0 else "X" if k == 1 else f"X^{k}"
        if not mono:
            terms.append(str(c))
        elif c == 1:
            terms.append(mono)
        else:
            terms.append(f"{c}*{mono}")
    return " + ".join(terms)


def _random_poly(rng, degree: int) -> list[int]:
    coeffs = [rng.randint(0, 3) for _ in range(degree)] + [rng.randint(1, 3)]
    return coeffs


def dvs_element(carrier: str, rng, value: int):
    """A carrier element of the given nonnegative value, as (text, value)."""
    if carrier == "qnn@5":
        q = Fraction(5 ** value * _unit_int(rng, 5, 40), _unit_int(rng, 5, 40))
        return str(q), value
    if carrier == "tropical@int":
        return str(value), value
    if carrier == "deg-frac":
        dden = rng.randint(0, 2)
        num, den = _random_poly(rng, dden + value), _random_poly(rng, dden)
        return f"({_poly_text(num)})/({_poly_text(den)})", value
    if carrier == "vm-idz@5":
        num = 5 ** value * _unit_int(rng, 5, 30)
        return f"({num})/({_unit_int(rng, 5, 30)})", value
    raise ValueError(carrier)


def dvs_zero_text(carrier: str) -> str:
    return {"qnn@5": "0", "tropical@int": "inf", "deg-frac": "(0)/(1)",
            "vm-idz@5": "(0)/(1)"}[carrier]


# -- content polynomials ---------------------------------------------------------------
#
# f = sum f_k Y^k.  Over nat the coefficient ring is the ordinary naturals;
# over ideals-z a coefficient n stands for the ideal (n), so sums are gcds
# and products are products.

def nat_convolve(f, g) -> list[int]:
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def nat_content_gens(f) -> list[int]:
    return [c for c in f if c]


def nat_dm_holds(f, g) -> tuple[bool, list[int], list[int]]:
    """Dedekind-Mertens c(f)^(m+1) c(g) = c(f)^m c(fg), m = deg g, over nat,
    decided by reachable sums.  Returns (holds, lhs gens, rhs gens)."""
    m = len(g) - 1
    cf = nat_content_gens(f)
    lhs = nat_products(nat_power(cf, m + 1), nat_content_gens(g))
    rhs = nat_products(nat_power(cf, m), nat_content_gens(nat_convolve(f, g)))
    return nat_ideal_equal(lhs, rhs), lhs, rhs


def nat_gauss_holds(f, g) -> tuple[bool, list[int], list[int]]:
    """c(fg) = c(f) c(g) over nat.  Returns (holds, c(f)c(g) gens, c(fg) gens)."""
    prod = nat_products(nat_content_gens(f), nat_content_gens(g))
    cfg = nat_content_gens(nat_convolve(f, g))
    return nat_ideal_equal(prod, cfg), prod, cfg


def idz_dm_holds(f, g) -> bool:
    m = len(g) - 1
    cf, cg = gcd_all(f), gcd_all(g)
    cfg = gcd_all(gcd_all(a * b for (i, a), (j, b) in
                          product(enumerate(f), enumerate(g)) if i + j == k)
                  for k in range(len(f) + len(g) - 1))
    return cf ** (m + 1) * cg == cf ** m * cfg


def idz_gauss_holds(f, g) -> bool:
    cfg = gcd_all(gcd_all(a * b for (i, a), (j, b) in
                          product(enumerate(f), enumerate(g)) if i + j == k)
                  for k in range(len(f) + len(g) - 1))
    return gcd_all(f) * gcd_all(g) == cfg


def qnn5_dm_gauss(f, g) -> tuple[bool, bool]:
    """Over the 5-adic carrier of qnn with Fraction coefficients: the content
    ideal is (5^n), n the least coefficient value.  Compute the product's
    coefficients as rationals and compare exponents."""
    fg = [Fraction(0)] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            fg[i + j] += a * b

    def c(poly):
        return min(qval(x, 5) for x in poly if x != 0)

    m = len(g) - 1
    dm = (m + 1) * c(f) + c(g) == m * c(f) + c(fg)
    gauss = c(f) + c(g) == c(fg)
    return dm, gauss


def vmidz_dm_gauss(fv, gv) -> tuple[bool, bool]:
    """Over fractions(ideals-z) at (5), with coefficients given by their
    values: a sum of ideals has the least value of its terms, so the value
    of (fg)_k is min over i+j=k of v(f_i) + v(g_j)."""
    fgv = [min(fv[i] + gv[k - i] for i in range(len(fv)) if 0 <= k - i < len(gv))
           for k in range(len(fv) + len(gv) - 1)]
    m = len(gv) - 1
    dm = (m + 1) * min(fv) + min(gv) == m * min(fv) + min(fgv)
    gauss = min(fv) + min(gv) == min(fgv)
    return dm, gauss


# -- law verdicts ----------------------------------------------------------------------
#
# A sampled law check is bounded, so a false law can only be required to be
# refuted when a witness sits in the instance's fixed preamble, which every
# stream visits first.  Verdict classes:
#   HOLDS   the law is a theorem on this instance; a counterexample is wrong
#   REFUTED a preamble witness exists; "holds" is wrong
#   EITHER  the law is false but no preamble witness exists; "holds" up to
#           the bound is acceptable, and a counterexample must re-verify

HOLDS, REFUTED, EITHER = "holds", "refuted", "either"

# Every registered instance is a commutative semiring and is entire.
# Multiplicative cancellation fails on fuzzy (min(1/2, 3/4) = min(1/2, 1),
# all three in the preamble) and on bool-poly ((1+X)(1+X^2) = (1+X)(1+X+X^2),
# not in the preamble {0, 1, X, 1+X}).
MC_EXPECTED = {"fuzzy": REFUTED, "bool-poly": EITHER}

# Min-property: deg-frac fails at (1, X) (values 0 and 1, sum value 1);
# deg-high is the greatest exponent, so v(1 + X) = 1 = max, not min, again
# at the preamble pair (1, X).  Every other rule never cancels leading or
# trailing terms and satisfies v(x+y) = min when the values differ.
MINP_EXPECTED = {"deg-frac": REFUTED, "deg-high": REFUTED}

# Units of the nonnegative part versus the zero set: on a semifield source
# the two coincide.  On nat, 2 has value 0 under vp:5 but is no unit; on the
# polynomial sources 1 + X has low order 0 but is no unit (both in the
# preamble).  Under deg-high on laurent(nat) the preamble's nonnegative
# elements 0, 1, X, 1 + X all agree, while 1 + X^-1 (value 0) does not.
UNITS_EXPECTED = {
    ("vp:5", "nat"): REFUTED,
    ("low-order", "poly(nat)"): REFUTED,
    ("low-order", "laurent(nat)"): REFUTED,
    ("low-order", "monoid(nat,N0)"): REFUTED,
    ("deg-high", "laurent(nat)"): EITHER,
}


def law_expected(law: str, sid: str, rule: str | None = None) -> str:
    if law in ("axioms", "entire", "vaxioms", "ext-axioms"):
        return HOLDS
    if law == "mc":
        return MC_EXPECTED.get(sid, HOLDS)
    if law == "minp":
        return MINP_EXPECTED.get(rule, HOLDS)
    if law == "units":
        return UNITS_EXPECTED.get((rule, sid), HOLDS)
    raise ValueError(law)


def verdict_ok(expected: str, verdict: str) -> bool:
    if expected == HOLDS:
        return verdict == "holds"
    if expected == REFUTED:
        return verdict == "counterexample"
    return verdict in ("holds", "counterexample")
