"""Cyclic sequences over a finite alphabet.

Canonical rotation representatives, necklace counting, and exact sizes of
the level-1 clusters (sequences sharing a letter composition).
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import DomainError, ResourceCapError, brief

# Most necklaces one listing returns (enumerate_necklaces, necklace_strings).
# At the cap, `necklaces --list` at binary n = 24 (699,252 necklaces) and
# ternary n = 15 (956,635) took 1.1-1.2 s at up to 139 MB of RSS and 20 MB of
# output; the comma form at n = 2, l = 1,447 and n = 1, l = 2^20 took 2.1-2.7 s
# at up to 127 MB. Quaternary n = 12 (1,398,500) took 3.8 s at 156 MB and is
# refused (2-core Intel Xeon VM, Python 3.11). Every admitted letter chr(48 + a)
# is below U+110000.
LIST_MAX_NECKLACES = 1 << 20

# Widest necklace_count, as n log2(l) bits of l^n. At the cap the count took
# at most 0.12 s for l in {2, 3, 5, 7, 1000003}; at 2^22 bits up to 0.9 s,
# and at 2^24 bits up to 9 s, growing faster than linearly for l > 2.
NECKLACE_COUNT_MAX_BITS = 1 << 20

# Longest sequence whose count takes factorials of its length or its
# letter counts: level1_cluster_size, debruijn.count_sequences_with_frequency
# and debruijn.count_multi_debruijn refuse a longer one before any
# factorial, divisor loop or l^p. level1_cluster_size([n/2, n/2]) took
# 0.42 s at n = 2^16, 1.9 s at 2^17 and 6.8 s at 2^18; at the cap the
# slowest shape measured, 64 or 256 equal parts, took 1.0 s (2-core Intel
# Xeon VM, Python 3.11).
FACTORIAL_MAX_N = 1 << 16


def euler_totient(d: int) -> int:
    """Totient by trial factorization; exact for any d >= 1."""
    if d < 1:
        raise DomainError(f"totient undefined for {brief(d)}")
    result = d
    m = d
    q = 2
    while q * q <= m:
        if m % q == 0:
            result -= result // q
            while m % q == 0:
                m //= q
        q += 1
    if m > 1:
        result -= result // m
    return result


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _max_rotation_offset(word: Sequence[int]) -> int:
    """Offset k such that word[k:]+word[:k] is the maximal rotation.

    Booth's least-rotation algorithm run on the negated word (negation
    reverses the letter order, so the least rotation of the negated word
    is the maximal rotation of the original). O(n).
    """
    s = [-x for x in word] + [-x for x in word]
    n2 = len(s)
    f = [-1] * n2
    k = 0
    for j in range(1, n2):
        sj = s[j]
        i = f[j - k - 1]
        while i != -1 and sj != s[k + i + 1]:
            if sj < s[k + i + 1]:
                k = j - i - 1
            i = f[i]
        if sj != s[k + i + 1]:
            if sj < s[k]:
                k = j
            f[j - k] = -1
        else:
            f[j - k] = i + 1
    return k


def _is_max_rotation(word: Sequence[int]) -> bool:
    """True when word is its own maximal rotation, in one forward pass.

    The prenecklace test of FKM (Cattell et al., 2000; Duval, 1983) with
    the letter order reversed: p is the period of the longest prenecklace
    prefix, and the word is a necklace's maximal rotation iff it is a
    prenecklace whose period divides its length. O(n).
    """
    p = 1
    for i in range(1, len(word)):
        a = word[i]
        b = word[i - p]
        if a != b:
            if a > b:
                return False
            p = i + 1
    return len(word) % p == 0


def _check_word(word: Sequence[int], l: int) -> None:
    """DomainError unless the non-empty word has letters in 0..l-1 and is
    its own maximal rotation.

    The rotation test runs first: a maximal rotation starts with its
    largest letter, so after it word[0] < l is max(word) < l. A word that
    fails takes the slow path, which names an out-of-range letter before
    it reports a rotation that is not maximal.
    """
    if _is_max_rotation(word) and word[0] < l and min(word) >= 0:
        return
    for a in word:
        if not (0 <= a < l):
            raise DomainError(f"symbol {brief(a)} out of range for alphabet of size {brief(l)}")
    raise DomainError("symbols are not in canonical rotation; use canonicalize()")


@dataclass(frozen=True)
class CyclicSequence:
    """A length-n word over letters 0..l-1, stored as its canonical rotation.

    The canonical rotation is the one maximizing the integer
    1 + sum a_k * l^(n-k), i.e. the numerically-lexicographically maximal
    rotation.
    """

    symbols: tuple[int, ...]
    alphabet_size: int

    def __post_init__(self):
        if self.alphabet_size < 2:
            raise DomainError("alphabet size must be >= 2")
        if len(self.symbols) < 1:
            raise DomainError("sequence must be non-empty")
        _check_word(self.symbols, self.alphabet_size)

    @property
    def n(self) -> int:
        return len(self.symbols)

    @property
    def l(self) -> int:
        return self.alphabet_size

    def index(self) -> int:
        """1 + sum a_k * l^(n-k), the basis-vector index of the stored rotation."""
        v = 0
        for a in self.symbols:
            v = v * self.alphabet_size + a
        return 1 + v

    def __str__(self) -> str:
        return sequence_to_string(self)


def canonicalize(word: Iterable[int], alphabet_size: int) -> CyclicSequence:
    """Canonical representative of the rotation class of `word`."""
    w = tuple(word)
    if not w:
        raise DomainError("word must be non-empty")
    for a in w:
        if not isinstance(a, int) or not (0 <= a < alphabet_size):
            raise DomainError(f"symbol {brief(a)} out of range 0..{brief(alphabet_size - 1)}")
    k = _max_rotation_offset(w)
    return CyclicSequence(w[k:] + w[:k], alphabet_size)


def shift(s: CyclicSequence, k: int) -> list[int]:
    """Raw left rotation by k positions (not re-canonicalized)."""
    n = s.n
    k %= n
    return list(s.symbols[k:] + s.symbols[:k])


def minimal_period(s: CyclicSequence) -> int:
    """Smallest d dividing n with shift(s, d) == s."""
    n = s.n
    for d in divisors(n):
        if all(s.symbols[i] == s.symbols[(i + d) % n] for i in range(n)):
            return d
    return n


def _exceeds_bits(n: int, l: int, cap_bits: int) -> bool:
    """n log2(l) > cap_bits, in integers (log2(l) as the exact ratio of its
    float), so no size of n or cap_bits overflows a float."""
    num, den = math.log2(l).as_integer_ratio()
    return n * num > cap_bits * den


def check_factorial_n(n: int) -> None:
    """ResourceCapError when a sequence of length n is too long to count
    through factorials (FACTORIAL_MAX_N)."""
    if n > FACTORIAL_MAX_N:
        raise ResourceCapError(f"sequence length exceeds the factorial cap {FACTORIAL_MAX_N}")


def _burnside(n: int, terms: Iterable[tuple[int, int, int]]) -> int:
    """Orbits of the n rotations, (1/n) sum of phi(d) labelled_d / orderings_d
    over the terms (phi(d), labelled_d, orderings_d): the words fixed by a
    rotation of order d number labelled_d / orderings_d. Both divisions are
    checked exact; the message names no total, which may be huge."""
    total = 0
    for phi, labelled, orderings in terms:
        words, rem = divmod(labelled, orderings)
        if rem:
            raise ArithmeticError("a Burnside term is not a whole number of words")
        total += phi * words
    orbits, rem = divmod(total, n)
    if rem:
        raise ArithmeticError("a Burnside sum is not divisible by the length")
    return orbits


def necklace_count(n: int, l: int) -> int:
    """Number of cyclic sequences of length n over an l-letter alphabet.

    (1/n) * sum over d|n of totient(d) * l^(n/d), exact.
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    if l < 1:
        raise DomainError("alphabet size must be >= 1")
    if l == 1:
        return 1
    # Before l^n or the divisors of n are built.
    if _exceeds_bits(n, l, NECKLACE_COUNT_MAX_BITS):
        raise ResourceCapError(
            f"counting necklaces of l^n words exceeds the {NECKLACE_COUNT_MAX_BITS}-bit cap"
        )
    return _burnside(n, [(euler_totient(d), l ** (n // d), 1) for d in divisors(n)])


def level1_cluster_size(counts: Sequence[int]) -> int:
    """Number of cyclic sequences with letter composition `counts` (Burnside).

    (1/n) * sum over common divisors d of the counts of
    totient(d) * (n/d)! / prod (a_j/d)!, exact; refused past FACTORIAL_MAX_N.
    """
    if any(a < 0 for a in counts):
        raise DomainError("composition entries must be non-negative")
    n = sum(counts)
    if n < 1:
        raise DomainError("composition must sum to n >= 1")
    check_factorial_n(n)
    g = 0
    for a in counts:
        g = math.gcd(g, a)
    terms = []
    for d in divisors(g):
        orderings = math.prod([math.factorial(a // d) for a in counts])
        terms.append((euler_totient(d), math.factorial(n // d), orderings))
    return _burnside(n, terms)


def _necklace_letters(n: int, l: int):
    """Each necklace of length n over l letters as its maximal rotation,
    strictly descending, as a string whose letter a is chr(48 + a): for
    l <= 10 that is the digit string.

    The FKM algorithm (Fredricksen, Kessler, Maiorana; in the form of
    Cattell, Ruskey, Sawada, Serra and Miers, J. Algorithms 37, 2000) on
    complemented letters a -> l-1-a: it visits the prenecklaces in
    lexicographic order and keeps those whose period p divides n, in
    constant amortized time per necklace. The next prenecklace decrements
    the last letter that is not 0 and repeats the prefix it ends.
    """
    word = chr(47 + l) * n
    p = 1
    while True:
        if n % p == 0:
            yield word
        prefix = word.rstrip("0")
        if not prefix:
            return
        p = len(prefix)
        prefix = prefix[:-1] + chr(ord(prefix[-1]) - 1)
        word = prefix if p == n else (prefix * (n // p + 1))[:n]


def _letters(word: str) -> list[int]:
    """The letters of a _necklace_letters word."""
    return [ord(c) - 48 for c in word]


def _check_enumerable(n: int, l: int, cap_bits: int) -> None:
    """The arguments and the n*log2(l) <= cap_bits guard of a scan."""
    if n < 1 or l < 2:
        raise DomainError("need n >= 1 and l >= 2")
    if _exceeds_bits(n, l, cap_bits):
        raise ResourceCapError(f"enumeration of l^n words exceeds the {cap_bits}-bit cap")


def _check_listable(n: int, l: int, cap: int | None = None) -> None:
    """The arguments and the necklace_count(n, l) <= cap guard of a listing,
    cap being LIST_MAX_NECKLACES unless given. There are at least l^n / n
    necklaces, more than the cap whenever l^n has more than twice its bits,
    so a larger count is never computed."""
    if cap is None:
        cap = LIST_MAX_NECKLACES
    _check_enumerable(n, l, 2 * cap.bit_length())
    if necklace_count(n, l) > cap:
        raise ResourceCapError(f"listing more than {cap} necklaces exceeds the listing cap")


def _checked_necklaces(n: int, l: int) -> list[str]:
    """Every necklace of length n over l letters once, as the
    _necklace_letters words, checked; refused past LIST_MAX_NECKLACES
    necklaces.

    The words must be strictly descending and as many as necklace_count(n,
    l), so that once each is checked the list is every necklace exactly
    once. For l <= 10 they are the digit strings, checked all at once by
    _check_digit_words; past 10 letters each is checked by _check_word.
    """
    _check_listable(n, l)
    words = list(_necklace_letters(n, l))
    if len(words) != necklace_count(n, l) or not all(
        map(operator.gt, words, itertools.islice(words, 1, None))
    ):
        raise DomainError("the listing is not every necklace once, descending")
    if l <= 10:
        _check_digit_words(words, n, l)
    else:
        for word in words:
            _check_word(_letters(word), l)
    return words


def enumerate_necklaces(n: int, l: int) -> list[CyclicSequence]:
    """All canonical representatives, sorted descending by index: the
    _checked_necklaces listing, at a cost proportional to the output."""
    return [CyclicSequence(tuple(_letters(word)), l) for word in _checked_necklaces(n, l)]


def necklace_strings(n: int, l: int) -> list[str]:
    """[str(s) for s in enumerate_necklaces(n, l)], without a CyclicSequence
    per necklace: for l <= 10 the _checked_necklaces words themselves, past
    10 letters their comma forms."""
    words = _checked_necklaces(n, l)
    if l > 10:
        for i, word in enumerate(words):
            words[i] = _word_to_string(_letters(word), l)
    return words


def _check_digit_words(words: list[str], n: int, l: int) -> None:
    """DomainError unless every word is the digit string of a necklace's
    maximal rotation: n ASCII digits, letters below l <= 10, and no
    rotation larger than the word.

    The words, joined by a "0" guard letter, are read as one integer in
    base 2^b, b the bit length of l - 1, so that each word is the low n b
    bits of a field of (n + 1) b bits. One subtraction then compares every
    field of one such integer with the same field of another: with a free
    bit above each field's value set in the first, that bit survives iff
    the field is at least the other's, and no field borrows from the next
    (Lamport, CACM 18, 1975). That compares each word with each of its
    n - 1 other rotations, and its first letter, the largest of a maximal
    rotation, with l - 1.
    """
    # "?" for each non-ASCII letter: int() would take "_", spaces and
    # non-ASCII digits, but bytes.isdigit() only "0" to "9".
    joined = "0".join(words).encode("ascii", "replace")
    if set(map(len, words)) != {n} or not joined.isdigit():
        raise DomainError(f"a listed word is not {n} digits")
    b = (l - 1).bit_length()
    try:
        x = int(joined, 1 << b)
    except ValueError:
        raise DomainError(f"a listed letter is out of range for alphabet of size {l}") from None
    width = (n + 1) * b
    ones = ((1 << width * len(words)) - 1) // ((1 << width) - 1)  # 1 in each field
    top = ones << (n * b)
    for r in range(1, n):
        low = ((1 << r * b) - 1) * ones
        high = ((1 << n * b) - 1) * ones - low
        rotated = ((x << r * b) & high) | ((x >> (n - r) * b) & low)
        if not _fields_at_least(x, rotated, top):
            raise DomainError("a listed word is not in canonical rotation")
    first = (x >> (n - 1) * b) & (((1 << b) - 1) * ones)
    if not _fields_at_least((l - 1) * ones, first, ones << b):
        raise DomainError(f"a listed letter is out of range for alphabet of size {l}")


def _fields_at_least(a: int, b: int, top: int) -> bool:
    """True iff each field of a is at least the same field of b, where top
    has one bit set in each field, above that field's value in a and b."""
    return ((a | top) - b) & top == top


_DIGITS = bytes.maketrans(bytes(range(10)), b"0123456789")


def _word_to_string(word: Sequence[int], l: int) -> str:
    """Digit string for l <= 10, comma-separated integers otherwise."""
    if l <= 10:
        return bytes(word).translate(_DIGITS).decode()
    return ",".join(map(str, word))


def sequence_to_string(s: CyclicSequence) -> str:
    """Digit string for l <= 10, comma-separated integers otherwise."""
    return _word_to_string(s.symbols, s.alphabet_size)


def sequence_from_string(text: str, alphabet_size: int) -> CyclicSequence:
    """Inverse of sequence_to_string; canonicalizes the parsed word."""
    text = text.strip()
    if not text:
        raise DomainError("empty sequence string")
    try:
        if "," in text:
            word = [int(tok) for tok in text.split(",")]
        elif alphabet_size <= 10:
            word = [int(c) for c in text]
        else:
            word = [int(text)]
    except ValueError:
        raise DomainError(f"invalid sequence string {text!r}") from None
    return canonicalize(word, alphabet_size)
