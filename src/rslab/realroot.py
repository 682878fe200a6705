"""
Exact real-root machinery: Sturm counts, interval isolation, interlacing
verdicts, and the sampled same-phase stability harness.

No floating point enters any verdict; floats appear only as human-readable
annotations inside reports.  Roots are isolated as exact rationals or as
open-closed rational intervals containing exactly one root, bisected on
request down to a given width; within one isolation each Sturm chain is
evaluated at most once at each point.  Interlacing is decided without
isolating any root: one signed remainder sequence of the two polynomials,
read at -inf and +inf, gives a Cauchy index.

Every Sturm chain is built over the integers, as a primitive
pseudo-remainder sequence: its members are positive multiples of the
rational remainders, so they have the same signs everywhere, and the
chain needs no rational division.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Literal, Sequence

from ._record import Record
from .polynomials import FAMILIES, MULTIVAR_FAMILIES, MPoly, Poly, _check_exact, lookup_family
from .prng import SplitMix64, rational_in_0_10

NEG_INF = "-inf"
POS_INF = "+inf"
Endpoint = Fraction | Literal["-inf", "+inf"]


def sturm_chain(p: Poly, q: Poly) -> list[Poly]:
    """Signed remainder sequence p, q, then positive multiples of the
    negated remainders down to gcd(p, q).  Its sign variations from a to b
    give the Cauchy index of q/p on (a, b]; with q = p' that is the number
    of distinct roots.

    The members past q form Collins' primitive pseudo-remainder sequence
    over the integers: p and q are scaled to primitive integer
    polynomials, and each member is the negated pseudo-remainder
    |lc(b)|^(deg a - deg b + 1) * a mod b of the two before it, divided by
    its content.  Every factor is positive, so signs, and with them every
    count, are those of the rational remainder sequence."""
    chain = [p, q]
    a, b = _primitive(p.coeffs), _primitive(q.coeffs)
    while len(b) > 1:
        rem = _pseudo_remainder(a, b)
        if not rem:
            break
        content = gcd(*rem)
        a, b = b, [-c // content for c in rem]
        chain.append(Poly(b))
    return chain


def _primitive(coeffs: Sequence[int | Fraction]) -> list[int]:
    """The positive multiple with integer coefficients and content 1."""
    scale = lcm(*(c.denominator for c in coeffs))
    ints = [c.numerator * (scale // c.denominator) for c in coeffs]
    content = gcd(*ints) or 1
    return [c // content for c in ints]


def _pseudo_remainder(a: list[int], b: list[int]) -> list[int]:
    """|lc(b)|^(deg a - deg b + 1) * a mod b, trimmed (a itself when
    deg a < deg b); b has degree at least 1."""
    lead = b[-1]
    scale, sign = abs(lead), 1 if lead > 0 else -1
    db = len(b) - 1
    rem = list(a)
    for i in range(len(rem) - 1, db - 1, -1):
        top = sign * rem.pop()
        if scale != 1:
            rem = [scale * c for c in rem]
        if top:
            shift = i - db
            for k in range(db):
                rem[shift + k] -= top * b[k]
    while rem and rem[-1] == 0:
        rem.pop()
    return rem


def _exact_quotient(a: list[int], b: list[int]) -> list[int]:
    """a / b for integer polynomials a and primitive b that divides a:
    by Gauss's lemma every quotient coefficient is an integer."""
    rem = list(a)
    db = len(b) - 1
    quo = [0] * (len(a) - db)
    for i in range(len(quo) - 1, -1, -1):
        c = quo[i] = rem[i + db] // b[-1]
        for k in range(db):
            rem[i + k] -= c * b[k]
    return quo


def _sign_at(p: Poly, x: Endpoint) -> int:
    if p.is_zero():
        return 0
    if p.degree == 0 or x == POS_INF:
        lead = p.coeffs[-1]
        return 1 if lead > 0 else -1
    if x == NEG_INF:
        lead = p.coeffs[-1]
        s = 1 if lead > 0 else -1
        return s if p.degree % 2 == 0 else -s
    v = p(x)
    return 0 if v == 0 else (1 if v > 0 else -1)


def _variations(chain: Sequence[Poly], x: Endpoint) -> tuple[int, int]:
    """Sign variations of the chain at x, and the sign of chain[0] there."""
    signs = [_sign_at(p, x) for p in chain]
    nonzero = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(nonzero, nonzero[1:]) if a * b < 0), signs[0]


def _endpoint_key(x: Endpoint) -> tuple:
    """Order key with -inf below every rational and +inf above."""
    return (-1, 0) if x == NEG_INF else (1, 0) if x == POS_INF else (0, x)


def count_real_roots(p: Poly, lo: Endpoint = NEG_INF, hi: Endpoint = POS_INF) -> int:
    """
    Number of distinct real roots of p in the half-open interval (lo, hi],
    by Sturm's theorem (multiple roots counted once).  Raises ValueError
    when an endpoint is neither -inf, +inf, an int nor a Fraction, when
    hi < lo, or when lo is a root of p.
    """
    _check_exact("endpoint", (x for x in (lo, hi) if x not in (NEG_INF, POS_INF)))
    if p.is_zero():
        raise ValueError("zero polynomial has no root count")
    if _endpoint_key(hi) < _endpoint_key(lo):
        raise ValueError(f"reversed interval ({lo}, {hi}]")
    if p.degree == 0:
        return 0
    return _ChainCounts(sturm_chain(p, p.derivative())).count(lo, hi)


class _ChainCounts:
    """
    Root counts of chain[0] read off its built chain ``sturm_chain(p, p')``.
    The chain is evaluated at most once at each point: the sign variations
    there and the sign of chain[0] are kept for the life of this object.
    """

    def __init__(self, chain: Sequence[Poly]):
        self.chain = chain
        self._seen: dict[Endpoint, tuple[int, int]] = {}

    def at(self, x: Endpoint) -> tuple[int, int]:
        """Sign variations of the chain at x, and the sign of chain[0] there."""
        seen = self._seen.get(x)
        if seen is None:
            seen = self._seen[x] = _variations(self.chain, x)
        return seen

    def count(self, lo: Endpoint, hi: Endpoint) -> int:
        """``count_real_roots`` of chain[0] on (lo, hi]; the caller has
        checked lo <= hi."""
        at_lo, sign_lo = self.at(lo)
        if sign_lo == 0:
            raise ValueError(f"lower endpoint {lo} is a root of {self.chain[0].human()}")
        return at_lo - self.at(hi)[0]


def is_real_rooted(p: Poly) -> bool:
    """True iff p' interlaces p: the chain (p, p') counts the distinct
    real roots of p and ends in gcd(p, p'), so its full Cauchy index is
    the degree of the square-free part exactly when p is real-rooted."""
    if p.is_zero():
        raise ValueError("zero polynomial")
    return p.degree == 0 or _interlaces(p, p.derivative())


def root_bound(p: Poly) -> Fraction:
    """Cauchy bound: every real root lies in [-B, B]."""
    lead = abs(Fraction(p.coeffs[-1]))
    return 1 + max((abs(Fraction(c)) / lead for c in p.coeffs[:-1]), default=Fraction(0))


class IsolatedRoot(Record):
    """One distinct real root: an exact rational or an isolating interval
    (lo, hi] on which the square-free part has exactly one sign change;
    interval endpoints are never roots."""

    __slots__ = ("kind", "lo", "hi", "multiplicity")

    def __init__(self, kind: Literal["point", "interval"], lo: Fraction, hi: Fraction,
                 multiplicity: int = 1):
        self.kind, self.lo, self.hi, self.multiplicity = kind, lo, hi, multiplicity

    def approx(self) -> float:
        return float(self.lo) if self.kind == "point" else float((self.lo + self.hi) / 2)


class RootIsolation(Record):
    __slots__ = ("poly", "square_free", "roots")

    def __init__(self, poly: Poly, square_free: Poly, roots: list[IsolatedRoot] | None = None):
        self.poly, self.square_free = poly, square_free
        self.roots = [] if roots is None else roots  # ascending


def _bisect_once(counts: _ChainCounts, r: IsolatedRoot) -> IsolatedRoot:
    """Halve the isolating interval r (possibly collapsing to an exact
    point), counting the distinct roots of p on ``counts`` of its chain
    (p, p', ...); r must not be a point."""
    mid = (r.lo + r.hi) / 2
    if counts.at(mid)[1] == 0:
        return IsolatedRoot("point", mid, mid, r.multiplicity)
    if counts.count(r.lo, mid) == 1:
        return IsolatedRoot("interval", r.lo, mid, r.multiplicity)
    return IsolatedRoot("interval", mid, r.hi, r.multiplicity)


def isolate_real_roots(p: Poly, width: Fraction | None = None) -> RootIsolation:
    """
    Disjoint isolating intervals (or exact points) for the distinct real
    roots of p, each labelled with its multiplicity; optionally refined
    until intervals are narrower than ``width``, which must be positive.

    One layer loop builds every chain: the chain of p itself, (p, p', ...),
    ends in g = gcd(p, p'); the chain of g ends in gcd(g, g'); and so on
    down to a constant.  p's chain counts the distinct roots: between two
    points that are not roots of p, the sign variations it loses are the
    distinct roots in between, as ``is_real_rooted`` reads them.  The
    later layers give the multiplicities.
    Every count reads those chains, and each chain is evaluated at most
    once at each point: the bisection, the multiplicity counts and the
    width refinement share its values.  The square-free part p / g comes
    from an exact division over the integers.
    """
    if width is not None and width <= 0:
        raise ValueError("width must be positive")
    if p.is_zero():
        raise ValueError("zero polynomial has no root count")
    if p.degree == 0:
        return RootIsolation(poly=p, square_free=p.monic())
    layers = []
    layer = p
    while layer.degree > 0:
        chain = sturm_chain(layer, layer.derivative())
        layers.append(_ChainCounts(chain))
        layer = chain[-1].monic()
    counts = layers[0]
    g = counts.chain[-1]
    q = Poly(_exact_quotient(_primitive(p.coeffs), _primitive(g.coeffs))).monic()
    out = RootIsolation(poly=p, square_free=q)
    total = counts.count(NEG_INF, POS_INF)
    if total == 0:
        return out
    bound = root_bound(q)
    lo, hi = -bound - 1, bound
    stack = [(lo, hi, total)]
    found: list[IsolatedRoot] = []
    while stack:
        a, b, cnt = stack.pop()
        if cnt == 0:
            continue
        if cnt == 1:
            found.append(IsolatedRoot("interval", a, b))
            continue
        # pick a split point that is not itself a root, so every interval
        # we ever count over has non-root endpoints
        mid = (a + b) / 2
        step = (b - a) / 4
        while counts.at(mid)[1] == 0:
            mid = mid + step
            step = step / 2
        left = counts.count(a, mid)
        stack.append((a, mid, left))
        stack.append((mid, b, cnt - left))
    for r in found:
        r.multiplicity = 1
        for layer_counts in layers[1:]:
            if layer_counts.count(r.lo, r.hi) == 0:
                break
            r.multiplicity += 1
    found.sort(key=lambda r: (r.lo, r.hi))
    if width is not None:
        for i, r in enumerate(found):
            while r.kind == "interval" and r.hi - r.lo > width:
                r = _bisect_once(counts, r)
            found[i] = r
    out.roots = found
    return out


class InterlaceReport(Record):
    __slots__ = ("f", "g", "verdict", "reason", "witness")

    def __init__(self, f: Poly, g: Poly, verdict: bool, reason: str,
                 witness: list[tuple[str, float]] | None = None):
        self.f, self.g, self.verdict, self.reason = f, g, verdict, reason
        self.witness = [] if witness is None else witness

    def to_json(self) -> dict:
        return {
            "f": self.f.to_json(),
            "g": self.g.to_json(),
            "verdict": self.verdict,
            "reason": self.reason,
            "witness": [[tag, x] for tag, x in self.witness],
        }


def interlaces(f: Poly, g: Poly) -> InterlaceReport:
    """
    Weak interlacing verdict: with the roots of f and g listed in
    decreasing order (with multiplicity) the chain

        g_1 >= f_1 >= g_2 >= f_2 >= ...

    must hold, all roots must be real and non-positive, the leading
    coefficients positive, and the degrees may differ by at most one.  The
    longer root list takes the outer chain positions; on equal degrees g
    sits on top.

    Shared roots pair off in the merged chain, so f and g interlace iff
    f/h and g/h do, where h = gcd(f, g).  Two coprime real-rooted
    polynomials ``top`` and ``low`` (top of degree d, low of degree d or
    d - 1, positive leading coefficients) interlace iff the Cauchy index
    of low/top over the whole line is d, that is, iff every residue of
    low/top is positive at d distinct real poles.  No gcd is divided out:
    h multiplies every member of ``sturm_chain(top, low)``, which ends in
    a constant multiple of h, so the chain read at -inf and +inf gives the index of
    (low/h)/(top/h), to be compared with deg top - deg h.  No root is
    isolated for the verdict.  A root above 0 is ruled out by the sign
    changes of the coefficients (Descartes' rule, exact once every root is
    real).  The witness is for readers only: the roots of f and g with
    multiplicity, largest first, as float approximations.

    >>> rep = interlaces(Poly([2, 3, 1]), Poly([1, 1]))
    >>> rep.verdict, rep.reason
    (True, 'chain holds')
    """
    _check_interlace_input("f", f)
    _check_interlace_input("g", g)
    if abs(f.degree - g.degree) > 1:
        return InterlaceReport(f, g, False, "degrees differ by more than one")
    ok = _interlaces(f, g)
    witness = sorted(
        [(tag, r.approx())
         for tag, p in (("f", f), ("g", g))
         for r in isolate_real_roots(p).roots
         for _ in range(r.multiplicity)],
        key=lambda t: -t[1],
    )
    return InterlaceReport(f, g, ok, "chain holds" if ok else "chain violated", witness)


def _check_interlace_input(name: str, p: Poly, real_rooted: bool = False) -> None:
    """The input checks of ``interlaces`` on one argument, named ``name``
    in the error text; ``real_rooted=True`` skips the real-rootedness
    check for a nonzero p that has passed it."""
    if p.is_zero():
        raise ValueError(f"{name} is the zero polynomial")
    if p.coeffs[-1] <= 0:
        raise ValueError(f"{name} must have a positive leading coefficient")
    if not (real_rooted or is_real_rooted(p)):
        raise ValueError(f"{name} is not real-rooted (is_real_rooted failed)")
    if _has_positive_root(p):
        raise ValueError(f"{name} has a root above 0")


def _has_positive_root(p: Poly) -> bool:
    """Whether a real-rooted p has a root above 0: by Descartes' rule of
    signs, exact when every root is real, iff its nonzero coefficients
    change sign."""
    signs = [c > 0 for c in p.coeffs if c != 0]
    return any(s != t for s, t in zip(signs, signs[1:]))


def _interlaces(f: Poly, g: Poly) -> bool:
    """The verdict of ``interlaces`` on inputs that have passed its checks."""
    if abs(f.degree - g.degree) > 1:
        return False
    top, low = (f, g) if f.degree > g.degree else (g, f)
    chain = sturm_chain(top, low)
    index = _variations(chain, NEG_INF)[0] - _variations(chain, POS_INF)[0]
    return index == top.degree - chain[-1].degree


def verify_interlacing_family(family: str, n_max: int = 25) -> dict:
    """
    Check consecutive interlacing along a polynomial family: "A"
    (run-sorted descent polynomials), "R" (run-count polynomials), "B"
    (peak polynomials), or "E" (Eulerian).  Exact; also confirms
    real-rootedness with non-positive roots at every step.  Only a
    failing pair is reported, as ``interlaces(f, g).to_json()`` with its
    float witness; a passing family isolates no root.
    """
    make = lookup_family(FAMILIES, family)
    failures = []
    # make(1) is checked in full as interlaces' f; a full Cauchy index
    # against the real-rooted f proves a later g real-rooted, and any
    # other g goes to interlaces, which refuses it or reports the pair
    if n_max >= 2:
        g = make(1)
        _check_interlace_input("f", g)
    for n in range(2, n_max + 1):
        f, g = g, make(n)
        if not (g.coeffs and g.coeffs[-1] > 0 and _interlaces(f, g) and not _has_positive_root(g)):
            failures.append({"n": n, "report": interlaces(f, g).to_json()})
    return {
        "schema": 1,
        "family": family,
        "max_n": n_max,
        "verdict": not failures,
        "failures": failures,
    }


# ---------------------------------------------------------------------------
# Same-phase stability sampling
# ---------------------------------------------------------------------------

def same_phase_check(
    p: MPoly, lam: Sequence[Fraction], partner: MPoly | None = None
) -> dict:
    """
    Restrict the multivariate polynomial to the positive ray x_i ->
    lam[i-1] * t and test exact real-rootedness; when ``partner`` (the
    previous family member) is supplied, also test that its restriction
    interlaces this one (a partner restriction that is not real-rooted
    does not).  Each restriction's real-rootedness is checked once; the
    rest of the checks of ``interlaces(below, restricted)`` run in its
    order and raise its errors.
    """
    _check_exact("ray weight", lam)
    if any(x <= 0 for x in lam):
        raise ValueError("ray weights must be positive")
    needed = max(p.variables(), default=0)
    if len(lam) < needed:
        raise ValueError(f"need {needed} ray weights, got {len(lam)}")
    restricted = p.ray_restriction(lam)
    ok = is_real_rooted(restricted)
    out = {
        "lambda": [[x.numerator, x.denominator] for x in lam],
        "real_rooted": ok,
        "restriction": restricted.to_json(),
    }
    if partner is not None and ok:
        below = partner.ray_restriction(lam)
        interlacing = is_real_rooted(below)
        if interlacing:
            _check_interlace_input("f", below, real_rooted=True)
            _check_interlace_input("g", restricted, real_rooted=True)
            interlacing = _interlaces(below, restricted)
        out["interlaces"] = interlacing
    return out


def sample_lambdas(n_vars: int, *key: int) -> list[Fraction]:
    """Ray weights for one sample, derived independently per coordinate
    from the integer key tuple (order-insensitive across samples)."""
    return [
        rational_in_0_10(SplitMix64.seed_from(*key, v)) for v in range(1, n_vars + 1)
    ]


def conjecture_scan(
    family: str,
    n_max: int = 8,
    samples: int = 100,
    seed: int = 0,
    first_sample: int = 0,
) -> dict:
    """
    Sampled same-phase stability + consecutive interlacing scan for the
    multivariate descent polynomial of run-sorted permutations ("Q"), the
    multivariate Eulerian polynomial ("E"), or the multivariate peak-value
    polynomial ("B").  A failure is a reportable finding: the offending
    ray and restriction are returned in full, never swallowed.
    """
    make, family_code = lookup_family(MULTIVAR_FAMILIES, family)
    failures = []
    cache: dict[int, MPoly] = {}
    for n in range(1, n_max + 1):
        cache[n] = make(n)
    for n in range(2, n_max + 1):
        for s in range(first_sample, first_sample + samples):
            lam = sample_lambdas(n, seed, family_code, n, s)
            res = same_phase_check(cache[n], lam, partner=cache[n - 1])
            if not res["real_rooted"] or not res.get("interlaces", True):
                failures.append({"n": n, "sample": s, **res})
    failures.sort(key=lambda d: (d["n"], d["sample"]))
    return {
        "schema": 1,
        "family": family,
        "max_n": n_max,
        "samples": samples,
        "first_sample": first_sample,
        "seed": seed,
        "verdict": not failures,
        "failures": failures,
    }


def merge_scans(parts: Sequence[dict]) -> dict:
    """The ``conjecture_scan`` report of a whole sample range, out of the
    reports of its consecutive pieces, in range order."""
    failures = [f for p in parts for f in p["failures"]]
    failures.sort(key=lambda d: (d["n"], d["sample"]))
    return {**parts[0], "samples": sum(p["samples"] for p in parts),
            "verdict": not failures, "failures": failures}
