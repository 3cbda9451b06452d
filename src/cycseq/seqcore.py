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
# ternary n = 15 (956,635) took 0.74-1.20 s at up to 140 MB of RSS and 20 MB
# of output; the comma form at n = 2, l = 1,447 took 2.6-4.1 s and at
# n = 1, l = 2^20 1.7-2.3 s, at up to 128 MB, its time spreading that widely
# from run to run. Quaternary n = 12 (1,398,500) took 0.85 s at 181 MB and
# is refused (2-core Intel Xeon VM, Python 3.11). Every admitted letter
# chr(48 + a) is below U+110000.
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


def _prenecklace(word: Sequence, start: int = 0, stop: int | None = None) -> tuple[int, int]:
    """(j, p): word[start:j] is the longest prefix of word[start:stop] that
    is a prenecklace under the reversed letter order, p its period.

    Duval's scan (1983), the step of FKM (Cattell et al., 2000): no letter
    may exceed the one p back, and a smaller one makes the prefix so far
    the period. A word is its own maximal rotation iff j is its length and
    p divides it, p then being its minimal period. The letters need only
    compare as 0..l-1 do, as the listings' chr(48 + a) do. O(j - start).
    """
    if stop is None:
        stop = len(word)
    p = 1
    for j in range(start + 1, stop):
        a = word[j]
        b = word[j - p]
        if a != b:
            if a > b:
                return j, p
            p = j + 1 - start
    return stop, p


def _max_rotation_offset(word: Sequence[int]) -> int:
    """Offset k such that word[k:]+word[:k] is the maximal rotation.

    Scans the rotations of the word written twice from i = 0: the one at i
    is maximal iff its scan takes all n letters with a period p dividing n.
    Otherwise no start from i to the end e of the last whole period scanned
    is: a start i + t p loses to the one p later where the scan ended (at
    the larger letter it stopped at, or at the wrap, where the period meets
    a smaller rotation of itself), and one between them begins with a
    proper suffix of the period, smaller than its prefix. Each step skips
    over half of what it scanned: O(n).
    """
    n = len(word)
    s = word + word
    i = 0
    while True:
        j, p = _prenecklace(s, i, i + n)
        if j - i == n and n % p == 0:
            return i
        i += (j - i) // p * p


def _check_word(word: Sequence[int], l: int) -> None:
    """DomainError unless the non-empty word has letters in 0..l-1 and is
    its own maximal rotation.

    The rotation test runs first: a maximal rotation starts with its
    largest letter, so after it word[0] < l is max(word) < l. A word that
    fails takes the slow path, which names an out-of-range letter before
    it reports a rotation that is not maximal.
    """
    j, p = _prenecklace(word)
    if j == len(word) and j % p == 0 and word[0] < l and min(word) >= 0:
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
    """Smallest d dividing n with shift(s, d) == s: the period of the
    stored maximal rotation's scan."""
    return _prenecklace(s.symbols)[1]


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


def _suffix_length(n: int) -> int:
    """m, the length of the suffixes whose completions _necklace_letters
    reuses: ceil(n / 4), and 0 (no reuse) at n <= 2.

    Generator times over m = 0..n/2 put the fastest m at or next to
    ceil(n/4) for binary n = 16..22, ternary n = 10..13, and (9, 4),
    (10, 4), (8, 5), (9, 5), (7, 7), (6, 9), (6, 10), (5, 16), (3, 100)
    and (3, 146), at 0.28-0.50 of the m = 0 time there. A completion is
    reused only when two prefixes share a key, which needs n >= 3: at
    n = 2 each prefix is a single letter, its own key.
    """
    return 0 if n <= 2 else (n + 3) // 4


def _completions(r: str, head: str, whole: bool) -> list[str]:
    """The suffixes s, descending, for which prefix + s is a necklace, where
    prefix is a prenecklace of period p at least as long as s, r is its
    last p letters repeated out to len(s) letters, head = prefix[:len(s) -
    1] and whole says whether p divides len(prefix + s); _necklace_letters
    shows why these decide s.

    The FKM step of _necklace_letters run on the suffix alone: r first,
    then each next suffix decrements its last letter that is not 0, at
    position j, and copies head after it. A suffix is kept when it is r and
    whole, or when j is its last position.
    """
    m = len(r)
    out = [r] if whole else []
    s = r
    while True:
        t = s.rstrip("0")
        if not t:
            return out
        j = len(t)
        s = t[:-1] + chr(ord(t[-1]) - 1) + head[: m - j]
        if j == m:
            out.append(s)


def _necklace_letters(n: int, l: int):
    """Each necklace of length n over l letters as its maximal rotation,
    strictly descending, as a string whose letter a is chr(48 + a): for
    l <= 10 that is the digit string.

    The FKM algorithm (Fredricksen, Kessler, Maiorana; in the form of
    Cattell, Ruskey, Sawada, Serra and Miers, J. Algorithms 37, 2000) on
    complemented letters a -> l-1-a, in constant amortized time per word,
    lists the prenecklaces of length h = n - m, m = _suffix_length(n),
    descending: the next decrements the last letter that is not 0 and
    repeats the prefix it ends, whose length is the new period p. At m = 0
    the prenecklaces whose period divides n are the necklaces. Past that,
    each prefix is followed by its _completions, which depend only on the
    key (r, head, n % p == 0), r being the prefix's last p letters repeated
    out to m letters and head = prefix[:m - 1]; each key's completions are
    computed once per listing.

    Why the key is enough, in positions 1..n: a word is a prenecklace iff
    each letter w[t] is at most w[t - p], p the period so far, which a
    smaller letter (a decrement at t) makes t; it is a necklace iff the
    final period divides n. In the suffix, before any decrement, w[t - p]
    continues the prefix's period: the letters of r. After a decrement at
    s > h, w[t - s] has t - s <= n - h - 1 = m - 1 <= h, a letter of head.
    The final period is p if the suffix has no decrement, else its last
    decrement s, and s divides n only at s = n, since m <= n/2 puts s > h
    >= n/2. So r, head and whether p divides n decide every completion.
    """
    m = _suffix_length(n)
    h = n - m
    cache: dict[tuple[str, str, bool], list[str]] = {}
    word = chr(47 + l) * h
    p = 1
    while True:
        if m:
            key = ((word[-p:] * m)[:m], word[: m - 1], n % p == 0)
            suffixes = cache.get(key)
            if suffixes is None:
                suffixes = cache[key] = _completions(*key)
            yield from map(word.__add__, suffixes)
        elif n % p == 0:
            yield word
        prefix = word.rstrip("0")
        if not prefix:
            return
        p = len(prefix)
        prefix = prefix[:-1] + chr(ord(prefix[-1]) - 1)
        word = prefix if p == h else (prefix * (h // p + 1))[:h]


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
    _check_digit_words. Past 10 letters each word is scanned as it stands
    (chr(48 + a) sorts as a does): n letters, its own maximal rotation, its
    first (largest) letter at most chr(47 + l) and none below "0", or it is
    named by _check_word or by its length.
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
        top = chr(47 + l)
        for word in words:
            j, p = _prenecklace(word)
            if len(word) != n or j != n or n % p or word[0] > top or min(word) < "0":
                _check_word(_letters(word), l)
                raise DomainError(f"a listed word is not {n} letters")
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
    if l > 10 and n == 1:
        # Each necklace is one letter, and a table of every letter's comma
        # form would be as large as the listing.
        for i, word in enumerate(words):
            words[i] = str(ord(word) - 48)
    elif l > 10:
        commas = {48 + a: f"{a}," for a in range(l)}
        for i, word in enumerate(words):
            words[i] = word.translate(commas)[:-1]
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
