"""Cyclic sequences over a finite alphabet.

Canonical rotation representatives, necklace counting, and exact sizes of
the level-1 clusters (sequences sharing a letter composition).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import DomainError, ResourceCapError

# Widest necklace listing, as n log2(l) bits of l^n. At the cap, `necklaces
# --list` at binary n = 24, ternary n = 15 and quaternary n = 12 took 2.5-3.3 s,
# up to 157 MB of RSS and 22 MB of output (2-core Intel Xeon VM, Python 3.11).
ENUM_CAP_BITS = 24

# Widest necklace_count, as n log2(l) bits of l^n. At the cap the count took
# at most 0.12 s for l in {2, 3, 5, 7, 1000003}; at 2^22 bits up to 0.9 s,
# and at 2^24 bits up to 9 s, growing faster than linearly for l > 2.
NECKLACE_COUNT_MAX_BITS = 1 << 20


def euler_totient(d: int) -> int:
    """Totient by trial factorization; exact for any d >= 1."""
    if d < 1:
        raise DomainError(f"totient undefined for {d}")
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
            raise DomainError(f"symbol {a} out of range for alphabet of size {l}")
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
            raise DomainError(f"symbol {a!r} out of range 0..{alphabet_size - 1}")
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
    totient(d) * (n/d)! / prod (a_j/d)!, exact.
    """
    if any(a < 0 for a in counts):
        raise DomainError("composition entries must be non-negative")
    n = sum(counts)
    if n < 1:
        raise DomainError("composition must sum to n >= 1")
    g = 0
    for a in counts:
        g = math.gcd(g, a)
    terms = []
    for d in divisors(g):
        orderings = math.prod([math.factorial(a // d) for a in counts])
        terms.append((euler_totient(d), math.factorial(n // d), orderings))
    return _burnside(n, terms)


def _necklace_words(n: int, l: int):
    """Each necklace of length n over l letters as its maximal rotation,
    strictly descending by index.

    The FKM algorithm (Fredricksen, Kessler, Maiorana; in the form of
    Cattell, Ruskey, Sawada, Serra and Miers, J. Algorithms 37, 2000) on
    complemented letters a -> l-1-a: it visits the prenecklaces in
    lexicographic order and keeps those whose period p divides n, in
    constant amortized time per necklace.
    """
    a = [l - 1] * n
    p = 1
    while True:
        if n % p == 0:
            yield tuple(a)
        j = n - 1
        while j >= 0 and a[j] == 0:
            j -= 1
        if j < 0:
            return
        a[j] -= 1
        p = j + 1
        if p < n:
            # a[i] = a[i - p] for i >= p: a plain copy of the prefix when
            # it is at least as long as the tail, else its repetitions.
            a[p:] = a[: n - p] if 2 * p >= n else (a[:p] * (n // p))[: n - p]


def _check_enumerable(n: int, l: int, cap_bits: int = ENUM_CAP_BITS) -> None:
    """The arguments and the n*log2(l) <= cap_bits guard of a listing."""
    if n < 1 or l < 2:
        raise DomainError("need n >= 1 and l >= 2")
    if _exceeds_bits(n, l, cap_bits):
        raise ResourceCapError(f"enumeration of l^n words exceeds the {cap_bits}-bit cap")


def enumerate_necklaces(n: int, l: int) -> list[CyclicSequence]:
    """All canonical representatives, sorted descending by index.

    Generated by FKM, at a cost proportional to the output; guarded by
    n*log2(l) <= ENUM_CAP_BITS.
    """
    _check_enumerable(n, l)
    return [CyclicSequence(word, l) for word in _necklace_words(n, l)]


def necklace_strings(n: int, l: int) -> list[str]:
    """[str(s) for s in enumerate_necklaces(n, l)], without a CyclicSequence
    per necklace: each FKM word passes the constructor's checks and goes
    straight to its string."""
    _check_enumerable(n, l)
    out = []
    for word in _necklace_words(n, l):
        _check_word(word, l)
        out.append(_word_to_string(word, l))
    return out


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
