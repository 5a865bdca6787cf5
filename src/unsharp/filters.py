"""Filter bases on the quotient algebra.

A :class:`FilterBase` is a family of nonzero classes together with the largest
depth at which its finite meets were verified nonzero.  The family backbone is
either an explicit finite list or a lazily generated nested chain (shrinking
neighborhoods of a point, or tails escaping to infinity), so truncated meets
at astronomically large depths stay O(1): for a nested chain the meet of the
first k elements is the k-th element.

Finitely many classes may be adjoined to the backbone; they participate in
every truncated meet.  Their meet is folded once per base and kept on it.
Nothing here ever totalizes a base into an ultrafilter: certification is
finite and explicit by design.

A base keeps the last :class:`FmpCertificate` that :func:`has_fmp` computed
for it, so the certificate :func:`adjoin` makes for the base it returns is
handed back when the caller asks for the same depth.  Both caches live
outside the fields: :meth:`FilterBase.replace` and a further :func:`adjoin`
build bases without them.  Every backbone family is nested
(the meet of its first k elements shrinks with k), so :func:`has_fmp` meets
each deeper backbone truncation with the previous meet, a smaller set than
the adjoined meet, and gets the same classes.
"""

from __future__ import annotations

from fractions import Fraction

from .common import (
    DIVERGENT,
    NEG_INF,
    POS_INF,
    UNDETERMINED,
    Frozen,
    as_fraction,
    is_infinite,
    set_field,
)
from .errors import FmpViolation, ZeroClassError
from .intervals import Interval, IntervalSet, _make, _view
from .quotient import UNIT, QuotientClass, _class, project, q_meet

_OPEN = b"\x01\x00"  # the offsets of one open component


# ---------------------------------------------------------------------------
# families


class FiniteFamily(Frozen):
    """Explicit list of classes; meets are computed by folding."""

    _fields = ("classes",)

    def __init__(self, classes: tuple):
        set_field(self, "classes", classes)

    @property
    def size(self) -> int:
        return len(self.classes)

    def element(self, n: int) -> QuotientClass:
        if not 1 <= n <= self.size:
            raise IndexError(f"element index {n} out of range 1..{self.size}")
        return self.classes[n - 1]

    def meet_first(self, k: int) -> QuotientClass:
        return self.meet_more(UNIT, 0, max(k, 0))

    def meet_more(self, m: QuotientClass, done: int, k: int) -> QuotientClass:
        """``m``, which lies under the first ``done`` elements, met with the
        first ``k``: only elements ``done + 1 .. k`` are folded in."""
        for c in self.classes[done:k]:
            m = q_meet(m, c)
            if m.is_zero:
                break
        return m

    def describe(self) -> str:
        return "{" + ", ".join(str(c) for c in self.classes) + "}"


class NeighborhoodFamily(Frozen):
    """Nested chain of shrinking symmetric neighborhoods of a point:
    element n is the class of (center - 1/n, center + 1/n)."""

    _fields = ("center", "size")

    def __init__(self, center: Fraction, size: int):
        center = as_fraction(center)
        if size < 1:
            raise ValueError("family size must be at least 1")
        set_field(self, "center", center)
        set_field(self, "size", size)

    def element(self, n: int) -> QuotientClass:
        if not 1 <= n <= self.size:
            raise IndexError(f"element index {n} out of range 1..{self.size}")
        r = Fraction(1, n)
        return _class(_make((self.center - r, self.center + r), _OPEN, None))

    def meet_first(self, k: int) -> QuotientClass:
        # nested: the k-th element already is the meet of the first k
        return self.element(min(max(k, 1), self.size))

    def meet_more(self, m: QuotientClass, done: int, k: int) -> QuotientClass:
        return q_meet(self.element(k), m)

    def describe(self) -> str:
        return f"neighborhoods of {self.center} (depth {self.size})"


class TailFamily(Frozen):
    """Nested chain of escaping tails: element n is the class of (n, inf)
    for direction +1, of (-inf, -n) for direction -1."""

    _fields = ("size", "direction")

    def __init__(self, size: int, direction: int = 1):
        if size < 1:
            raise ValueError("family size must be at least 1")
        if direction not in (1, -1):
            raise ValueError("direction must be +1 or -1")
        set_field(self, "size", size)
        set_field(self, "direction", direction)

    def element(self, n: int) -> QuotientClass:
        if not 1 <= n <= self.size:
            raise IndexError(f"element index {n} out of range 1..{self.size}")
        if self.direction == 1:
            return _class(_make((Fraction(n), POS_INF), _OPEN, None))
        return _class(_make((NEG_INF, Fraction(-n)), _OPEN, None))

    def meet_first(self, k: int) -> QuotientClass:
        return self.element(min(max(k, 1), self.size))

    def meet_more(self, m: QuotientClass, done: int, k: int) -> QuotientClass:
        return q_meet(self.element(k), m)

    def describe(self) -> str:
        if self.direction == 1:
            return f"right tails (n, inf) (depth {self.size})"
        return f"left tails (-inf, -n) (depth {self.size})"


# ---------------------------------------------------------------------------
# filter bases


class FilterBase(Frozen):
    """A certified family of nonzero classes with the finite meet property.

    ``family`` is the backbone (finite or generated chain); ``adjoined``
    classes are extra elements included in every truncated meet.
    ``certified_depth`` is the largest k at which finite meets were verified
    nonzero; ``tag`` is an optional convergence target.  The adjoined meet and
    the last certificate of :func:`has_fmp` are cached in the instance
    ``__dict__``, never in a field.
    """

    _fields = ("family", "adjoined", "certified_depth", "tag")

    def __init__(
        self, family, adjoined: tuple = (), certified_depth: int = 0, tag: Fraction | None = None
    ):
        set_field(self, "family", family)
        set_field(self, "adjoined", adjoined)
        set_field(self, "certified_depth", certified_depth)
        set_field(self, "tag", tag)

    def replace(self, **changes) -> FilterBase:
        """A new base with the given fields changed and the others kept; it
        starts with no cached meet or certificate."""
        fields = {name: getattr(self, name) for name in self._fields}
        fields.update(changes)
        return FilterBase(**fields)

    @property
    def size(self) -> int:
        return self.family.size + len(self.adjoined)

    def adjoined_meet(self) -> QuotientClass:
        """Meet of the adjoined classes, folded on the first call only."""
        acc = self.__dict__.get("_adjoined_meet")
        if acc is None:
            acc = UNIT
            for c in self.adjoined:
                acc = q_meet(acc, c)
            set_field(self, "_adjoined_meet", acc)
        return acc

    def truncated_meet(self, k: int) -> QuotientClass:
        """Meet of the first k backbone elements and every adjoined class."""
        return q_meet(self.family.meet_first(k), self.adjoined_meet())

    def describe(self) -> str:
        text = self.family.describe()
        if self.adjoined:
            text += " + {" + ", ".join(str(c) for c in self.adjoined) + "}"
        return text


def filter_base(classes, tag=None) -> FilterBase:
    """Base from an explicit list of classes; rejects zero elements."""
    classes = tuple(classes)
    for c in classes:
        if c.is_zero:
            raise ZeroClassError("a filter base cannot contain the zero class")
    return FilterBase(FiniteFamily(classes), tag=None if tag is None else as_fraction(tag))


def neighborhood_base(lam, depth: int) -> FilterBase:
    """The shrinking-neighborhood base of a point, certified to ``depth``.

    The chain is nested, so the meet of its first k elements is the k-th
    neighborhood; verifying the deepest one nonzero certifies every finite
    meet up to ``depth``.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    lam = as_fraction(lam)
    family = NeighborhoodFamily(lam, depth)
    if family.meet_first(depth).is_zero:  # cannot happen; keep the check honest
        raise FmpViolation("deepest neighborhood is null")
    return FilterBase(family, certified_depth=depth, tag=lam)


def escaping_base(depth: int, direction: int = 1) -> FilterBase:
    """The base of tails escaping toward +inf (direction +1) or -inf (-1);
    no point survives every element."""
    if depth < 1:
        raise ValueError("depth must be at least 1")
    family = TailFamily(depth, direction)
    if family.meet_first(depth).is_zero:
        raise FmpViolation("deepest tail is null")
    return FilterBase(family, certified_depth=depth)


# ---------------------------------------------------------------------------
# finite meet property certification


class FmpCertificate(Frozen):
    """Outcome of a finite-meet-property check.

    ``witnesses`` holds, for each checked truncation depth, one open interval
    contained in that meet.  On failure ``offender`` describes the zero meet.
    """

    _fields = ("ok", "depth", "witnesses", "offender")

    def __init__(self, ok: bool, depth: int, witnesses: tuple = (), offender: str | None = None):
        set_field(self, "ok", ok)
        set_field(self, "depth", depth)
        set_field(self, "witnesses", witnesses)
        set_field(self, "offender", offender)

    def __bool__(self) -> bool:
        return self.ok


def doubling_depths(k: int, dense: int) -> list:
    """Truncation depths 1, 2, ..., dense, then doubling while below k, then
    k itself: every depth up to k when k <= dense."""
    depths = list(range(1, min(k, dense) + 1))
    j = 2 * dense
    while j < k:
        depths.append(j)
        j *= 2
    if k > dense:
        depths.append(k)
    return depths


def has_fmp(base: FilterBase, k: int) -> FmpCertificate:
    """Check that every meet of at most k elements is nonzero.

    Because a meet over fewer elements contains the meet over more, one
    nonzero meet of all adjoined classes with the depth-k backbone truncation
    certifies every sub-meet drawn from those elements.  Witnesses are
    reported per truncation depth (all depths up to 256, then geometrically).
    The backbone truncations are nested, so each one is met with the previous
    meet rather than with the adjoined meet alone; the classes are the same.
    An explicit backbone folds only the elements the previous meet has not
    met, so a check costs one meet per element, not one fold per depth.

    The certificate is kept on the base, and a second call at the same
    ``min(k, base.size)`` returns it: the certificate :func:`adjoin` computed
    for the base it returned is handed back, not recomputed.  Nothing read
    here (family, adjoined classes) can change on a frozen base.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    k = min(k, base.size)
    cert = base.__dict__.get("_fmp")
    if cert is None or cert.depth != k:
        cert = _check_fmp(base, k)
        set_field(base, "_fmp", cert)
    return cert


def _check_fmp(base: FilterBase, k: int) -> FmpCertificate:
    acc = base.adjoined_meet()
    if acc.is_zero:
        prefix = UNIT
        for i, c in enumerate(base.adjoined):
            prefix = q_meet(prefix, c)
            if prefix.is_zero:
                offender = ", ".join(str(x) for x in base.adjoined[: i + 1])
                return FmpCertificate(False, k, offender=f"meet of adjoined {{{offender}}} is zero")
    witnesses = []
    m, done = acc, 0
    for depth in doubling_depths(min(k, base.family.size), 256):
        m, done = base.family.meet_more(m, done, depth), depth
        if m.is_zero:
            return FmpCertificate(
                False,
                k,
                witnesses=tuple(witnesses),
                offender=(
                    f"meet of the first {depth} backbone elements with "
                    f"{{{', '.join(str(x) for x in base.adjoined)}}} is zero"
                ),
            )
        witnesses.append((depth, _view(*m.rep._vals[:2], False, False)))  # reps are open
    return FmpCertificate(True, k, witnesses=tuple(witnesses))


def adjoin(base: FilterBase, x: QuotientClass, k: int | None = None) -> FilterBase:
    """Extend a base by one class, re-certifying the finite meet property at
    depth ``k`` (default: the base's current certified depth).  Raises
    :class:`FmpViolation` carrying the offending meet otherwise.

    The returned base keeps the certificate, so ``has_fmp(result, k)``
    returns it without a second check.  ``has_fmp`` never reads
    ``certified_depth``, so certifying the result is certifying the
    candidate."""
    if x.is_zero:
        raise FmpViolation("cannot adjoin the zero class", offenders=(x,))
    if k is None:
        k = max(base.certified_depth, 1)
    result = base.replace(adjoined=base.adjoined + (x,), certified_depth=k)
    cert = has_fmp(result, k)
    if not cert.ok:
        raise FmpViolation(cert.offender or "finite meet property fails", offenders=(x,))
    return result


# ---------------------------------------------------------------------------
# executable witnesses


class DisjointFamily(Frozen):
    """The m-th member of a countable family of open sets, pairwise disjoint
    across m, each with the anchor point in its closure.

    Component n is the open interval

        (center + 2^-n * (1 + 2^-(m+1)),  center + 2^-n * (1 + 2^-m))

    which lies inside the dyadic band (center + 2^-n, center + 2^-(n-1)); the
    band bound makes cross-n overlap impossible and sends left endpoints to
    the anchor, so only same-n components of two family members can ever meet,
    and those are separated exactly by the 2^-m vs 2^-(m+1) offsets.
    """

    _fields = ("center", "m")

    def __init__(self, center: Fraction, m: int):
        center = as_fraction(center)
        if m < 1:
            raise ValueError("family index m must be at least 1")
        set_field(self, "center", center)
        set_field(self, "m", m)

    def _ends(self, ns) -> list:
        """The endpoints lo, hi, lo, hi, ... of the components n in ``ns``."""
        lo_mult = 1 + Fraction(1, 2 ** (self.m + 1))
        hi_mult = 1 + Fraction(1, 2**self.m)
        vals = []
        for n in ns:
            scale = Fraction(1, 2**n)
            vals += (self.center + scale * lo_mult, self.center + scale * hi_mult)
        return vals

    def component(self, n: int) -> Interval:
        if n < 1:
            raise IndexError("component index starts at 1")
        return Interval(*self._ends((n,)))

    def envelope(self, n: int) -> Interval:
        """Dyadic band certified to contain component n."""
        if n < 1:
            raise IndexError("component index starts at 1")
        return Interval(self.center + Fraction(1, 2**n), self.center + Fraction(1, 2 ** (n - 1)))

    def truncate(self, count: int) -> IntervalSet:
        """The union of components 1..count as a concrete interval set.

        Its cut sequence is written directly, components n = count..1 in
        that order, with no validation: component n lies strictly inside
        the band (center + 2^-n, center + 2^-(n-1)), and the bands are
        disjoint and ordered by n, so the components come out sorted, open,
        and separated by gaps of positive length, which is the canonical
        form (open-canonical, too)."""
        return _make(tuple(self._ends(range(count, 0, -1))), _OPEN * max(count, 0), None)

    def truncated_class(self, count: int) -> QuotientClass:
        return project(self.truncate(count))

    def describe(self) -> str:
        return f"disjoint family member m={self.m} at {self.center}"


def disjoint_family(lam, m: int) -> DisjointFamily:
    """The m-th open set of the countable disjoint family anchored at ``lam``."""
    return DisjointFamily(as_fraction(lam), m)


# ---------------------------------------------------------------------------
# convergence


def converges_to(base: FilterBase, depth: int, tol):
    """Locate the point a base converges to, if the truncated meets pin one.

    Returns the limit point (the tag when it lies in the closure of the final
    bounding interval, else the exact midpoint) once the bounding interval of
    a truncated meet has diameter below ``tol``; :data:`DIVERGENT` when the
    meets escape monotonically to infinity; :data:`UNDETERMINED` otherwise.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    tol = as_fraction(tol)
    if not tol > 0:
        raise ValueError("tol must be positive")
    depth = max(min(depth, base.size), 1)  # an empty base still yields one (unit) meet
    lows, highs = [], []
    for k in doubling_depths(depth, 1):
        m = base.truncated_meet(k)
        if m.is_zero:
            return UNDETERMINED
        lo = m.rep.components[0].lo
        hi = m.rep.components[-1].hi
        lows.append(lo)
        highs.append(hi)
        if not is_infinite(lo) and not is_infinite(hi) and hi - lo < tol:
            if base.tag is not None and lo <= base.tag <= hi:
                return base.tag
            return (lo + hi) / 2
    if all(is_infinite(h) for h in highs):
        finite = [lo for lo in lows if not is_infinite(lo)]
        if (
            len(finite) == len(lows)
            and all(a < b for a, b in zip(finite, finite[1:]))
            and finite[-1] - finite[0] >= 1
        ):
            return DIVERGENT
    if all(is_infinite(lo) for lo in lows):
        finite = [h for h in highs if not is_infinite(h)]
        if (
            len(finite) == len(highs)
            and all(a > b for a, b in zip(finite, finite[1:]))
            and finite[0] - finite[-1] >= 1
        ):
            return DIVERGENT
    return UNDETERMINED
