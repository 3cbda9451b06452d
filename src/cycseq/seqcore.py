"""Cyclic sequences over a finite alphabet.

Canonical rotation representatives, necklace counting, and exact sizes of
the level-1 clusters (sequences sharing a letter composition).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import DomainError, ResourceCapError

DEFAULT_ENUM_CAP_BITS = 24


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
        for a in self.symbols:
            if not (0 <= a < self.alphabet_size):
                raise DomainError(
                    f"symbol {a} out of range for alphabet of size {self.alphabet_size}"
                )
        if _max_rotation_offset(self.symbols) != 0:
            raise DomainError("symbols are not in canonical rotation; use canonicalize()")

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


def necklace_count(n: int, l: int) -> int:
    """Number of cyclic sequences of length n over an l-letter alphabet.

    (1/n) * sum over d|n of totient(d) * l^(n/d), exact.
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    if l < 1:
        raise DomainError("alphabet size must be >= 1")
    total = sum(euler_totient(d) * l ** (n // d) for d in divisors(n))
    assert total % n == 0
    return total // n


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
    total = 0
    for d in divisors(g):
        term = math.factorial(n // d)
        for a in counts:
            term //= math.factorial(a // d)
        total += euler_totient(d) * term
    assert total % n == 0
    return total // n


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
        for i in range(p, n):
            a[i] = a[i - p]


def enumerate_necklaces(
    n: int, l: int, cap_bits: int = DEFAULT_ENUM_CAP_BITS
) -> list[CyclicSequence]:
    """All canonical representatives, sorted descending by index.

    Generated by FKM, at a cost proportional to the output; guarded by
    n*log2(l) <= cap_bits.
    """
    if n < 1 or l < 2:
        raise DomainError("need n >= 1 and l >= 2")
    if n * math.log2(l) > cap_bits:
        raise ResourceCapError(
            f"enumeration of {l}^{n} words exceeds the {cap_bits}-bit cap"
        )
    return [CyclicSequence(word, l) for word in _necklace_words(n, l)]


def sequence_to_string(s: CyclicSequence) -> str:
    """Digit string for l <= 10, comma-separated integers otherwise."""
    if s.alphabet_size <= 10:
        return "".join(str(a) for a in s.symbols)
    return ",".join(str(a) for a in s.symbols)


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
