"""Exact projective rational arithmetic and the twist-sequence calculus.

A twist vector (x1, ..., xm) denotes the continued fraction

    xm + 1/(x(m-1) + 1/(... + 1/x1))

i.e. the *last* entry is the outermost term.  The empty vector denotes 0.
Evaluation is projective: 1/0 = inf, 1/inf = 0 and a + inf = inf, so every
integer vector has a well-defined value in Q u {inf}.  This orientation is
pinned by two anchors of the slope calculus: (2, 0) evaluates to 1/2 (the
Hopf loop-tangle slope) and (3, 0) to 1/3 (the type-II rectangle slope).

Fractions are reduced at construction and never repaired afterwards.
"""

from __future__ import annotations

import math
import re
import sys
from collections.abc import Iterable, Sequence

from .errors import InfiniteSlope, InfiniteValue, ZeroOverZero, echo
from .value import Value

TwistVector = tuple[int, ...]

# ``str`` writes an integer of at most this many digits (0: no limit), the limit
# jsonio's decoder applies to integer literals.  Read once, at import.
MAX_STR_DIGITS = sys.get_int_max_str_digits()
_LEAST_UNPRINTABLE = 10 ** MAX_STR_DIGITS if MAX_STR_DIGITS else 0


def too_long_to_print(n: int) -> bool:
    """True iff ``str(n)`` would refuse ``n`` for having more than MAX_STR_DIGITS digits."""
    return 0 < _LEAST_UNPRINTABLE <= abs(n)


def too_many_digits(what: str) -> str:
    """The one text that refuses ``what``, an integer with more digits than ``str`` writes."""
    return f"{what} has more than {MAX_STR_DIGITS} digits, too many to write as text"


class ExtFraction(Value):
    """A rational number or the single projective infinity.

    Invariants after construction: gcd(|num|, den) == 1, den >= 0, and
    den == 0 encodes infinity with num canonicalized to 1.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: int, den: int = 1):
        _set_num(self, num)
        _set_den(self, den)
        self.__post_init__()

    def __post_init__(self):  # reduces in place; the benchmark's tracer counts calls to it
        num, den = self.num, self.den
        if num == 0 and den == 0:
            raise ZeroOverZero("0/0 is not a projective rational")
        if den < 0:
            num, den = -num, -den
        if den == 0:
            num = 1
        else:
            g = math.gcd(num, den)
            num //= g
            den //= g
        _set_num(self, num)
        _set_den(self, den)

    @property
    def is_infinite(self) -> bool:
        return self.den == 0

    @property
    def is_zero(self) -> bool:
        return self.num == 0

    def reciprocal(self) -> "ExtFraction":
        return ExtFraction(self.den, self.num)

    def __neg__(self) -> "ExtFraction":
        return ExtFraction(-self.num, self.den)

    def is_canonical(self) -> bool:
        """Audit the stored fields against the class invariants (no repairs)."""
        if self.den < 0:
            return False
        if self.den == 0:
            return self.num == 1
        return math.gcd(abs(self.num), self.den) == 1

    def __str__(self) -> str:
        if self.den == 0:
            return "inf"
        if self.den == 1:
            return str(self.num)
        return f"{self.num}/{self.den}"


# the slots' own setters: the hot constructors store both fields without the _set loop
_set_num, _set_den = ExtFraction.num.__set__, ExtFraction.den.__set__


def _canonical(num: int, den: int) -> ExtFraction:
    """Trusted: a pair that meets the invariants, unchecked (``Fraction._from_coprime_ints``)."""
    f = object.__new__(ExtFraction)
    _set_num(f, num)
    _set_den(f, den)
    return f


def cf_eval(entries: Iterable[int]) -> ExtFraction:
    """Evaluate a twist vector under the rightmost-outermost convention.

    The empty vector evaluates to 0 (the untwisted tangle), not infinity.
    Each entry a maps the value p/q to a + 1/(p/q), i.e. (p, q) -> (a*p + q, p),
    starting from 1/0.  That step has determinant -1, so p and q stay coprime
    (the continuant recurrence, Knuth TAOCP vol. 2 sec. 4.5.3) and the final
    pair needs only its sign fixed, or q == 0 read as 1/0, to be canonical.
    """
    p, q, a = 1, 0, None
    for a in entries:
        p, q = a * p + q, p
    if a is None:  # no entry: an entry is never None, since None * p raises
        return _canonical(0, 1)
    if q <= 0:  # coprime, so q == 0 has p == +-1: the single infinity 1/0
        p, q = (-p, -q) if q else (1, 0)
    return _canonical(p, q)


def cf_expand(f: ExtFraction) -> TwistVector:
    """Expand a finite fraction into a twist vector evaluating back to it.

    Euclidean expansion with floor quotients.  Every entry except the final
    (outermost) one is >= 1; the final entry is the integer part and may be
    any integer, including 0.  cf_eval(cf_expand(f)) == f exactly.
    """
    if f.is_infinite:
        raise InfiniteSlope("cannot expand the infinite slope")
    digits = []  # outermost quotient first
    p, q = f.num, f.den
    while q:
        a, r = divmod(p, q)
        digits.append(a)
        p, q = q, r
    digits.reverse()
    return tuple(digits)


def slope_normalize(f: ExtFraction) -> ExtFraction:
    """Return the unique representative of f modulo Z in (-1/2, 1/2]."""
    if f.den == 0:  # infinite; the field is read directly on the classify path
        raise InfiniteSlope("infinite value does not present a rational 3-tangle slope")
    r = f.num % f.den  # gcd(r, den) == gcd(num, den) == 1
    if 2 * r > f.den:
        r -= f.den
    return f if r == f.num else _canonical(r, f.den)


def mod_z_equal(f: ExtFraction, g: ExtFraction) -> bool:
    """True iff f - g is an integer.  Both arguments must be finite."""
    if f.is_infinite or g.is_infinite:
        raise InfiniteSlope("mod-Z comparison is undefined at infinity")
    return f.den == g.den and (f.num - g.num) % f.den == 0


def palindrome_numerators(tv: Sequence[int]) -> tuple[int, int]:
    """Absolute numerators of the vector and its reversal.

    The two components are always equal (reversal preserves the numerator
    of a twist-vector value up to sign).
    """
    forward = cf_eval(tv)
    backward = cf_eval(tuple(reversed(tuple(tv))))
    if forward.is_infinite or backward.is_infinite:
        raise InfiniteValue("palindrome numerators need both orders finite")
    return abs(forward.num), abs(backward.num)


# the text parse_fraction reads: int() also takes signs other than a leading "-", spaces,
# underscores and digits other than ASCII ones
_FRACTION_TEXT = r"-?[0-9]+(?:/[0-9]+)?"


def parse_fraction(text: str) -> ExtFraction:
    """Parse "p/q" or "p" of ASCII digits, with "-" as the only sign, into an ExtFraction; it
    need not be reduced.  Other text raises ``ValueError``, and "0/0" ``ZeroOverZero``."""
    if not re.fullmatch(_FRACTION_TEXT, text):
        raise ValueError(f'{echo(text, repr)} is not "p/q" or "p" in ASCII digits')
    head, slash, tail = text.partition("/")
    try:
        return ExtFraction(int(head), int(tail) if slash else 1)
    except ValueError:  # the grammar holds, so int() refused only for the digit limit
        raise ValueError(too_many_digits("a numerator or denominator")) from None
