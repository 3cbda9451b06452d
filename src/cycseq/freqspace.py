"""Frequency vectors of cyclic windows, the projection and raising maps,
p-closeness, and the ultrametric distance they induce."""

from __future__ import annotations

import bisect
import json
import math
import operator
from typing import Iterable, Mapping, Sequence

from .errors import DomainError, ResourceCapError, brief
from .seqcore import CyclicSequence

# Below this size a serialized vector is written densely.
DENSE_SERIALIZATION_LIMIT = 4096

# Widest window index, p log2(l) bits, for which lowering and the graph
# A[Z] are built; a vector past it is refused before l^p is built, which at
# p = 10^8 took longer than 8 s. At the cap a 12-window vector over 2, 3 or
# 5 letters is counted, lowered and listed in under 10 ms each.
MAX_INDEX_BITS = 1 << 16


def check_index_width(p: int, l: int) -> None:
    """ResourceCapError when the indices of length-p windows over l letters
    are wider than MAX_INDEX_BITS bits. An int compares exactly with the
    float bound, so no size of p overflows it."""
    if p > MAX_INDEX_BITS / math.log2(l):
        raise ResourceCapError(
            f"level-p windows over l letters exceed the {MAX_INDEX_BITS}-bit index cap"
        )


def check_level(p: int, n: int) -> None:
    """DomainError when p > n: project refuses such levels, so no sequence
    of length n has length-p windows to count, list or lower into."""
    if p > n:
        raise DomainError(f"level {p} exceeds the sequence length n = {n}")


def word_index(window: Sequence[int], l: int) -> int:
    """1-based index of a length-p window: 1 + sum b_k * l^(p-k)."""
    if len(window) < 1:
        raise DomainError("window must be non-empty")
    v = 0
    for b in window:
        if not (0 <= b < l):
            raise DomainError(f"letter {brief(b)} out of range 0..{brief(l - 1)}")
        v = v * l + b
    return 1 + v


def index_word(j: int, p: int, l: int) -> tuple[int, ...]:
    """Window reconstructed from its 1-based index; inverse of word_index.
    Indices wider than MAX_INDEX_BITS are refused before l^p is built."""
    if l < 2:
        raise DomainError("need l >= 2")
    check_index_width(p, l)
    if not (1 <= j <= l**p):
        raise DomainError(f"index {brief(j)} out of range 1..{brief(l)}^{brief(p)}")
    v = j - 1
    word = []
    for _ in range(p):
        word.append(v % l)
        v //= l
    return tuple(reversed(word))


class FrequencyVector:
    """Counts of length-p cyclic windows of a length-n sequence.

    Stored sparsely, once: a tuple of (0-based window index, positive count)
    pairs in index order, whose counts sum to n. Level p = 0 is the
    single-entry vector [n].
    """

    __slots__ = ("p", "n", "l", "_items")

    def __init__(self, p: int, n: int, l: int, counts: Mapping[int, int]):
        # _index only for what is not a plain int already (a bool, a numpy
        # integer, or what is refused): the calls were most of the loop's time.
        if type(p) is not int or type(n) is not int or type(l) is not int:
            p, n, l = _index(p), _index(n), _index(l)
        if p < 0 or n < 1 or l < 2:
            raise DomainError("need p >= 0, n >= 1, l >= 2")
        cleaned: dict[int, int] = {}
        for j, c in counts.items():
            if type(j) is not int or type(c) is not int:
                j, c = _index(j), _index(c)
            if c < 0:
                raise DomainError(f"negative count {brief(c)} at index {brief(j)}")
            if c:
                cleaned[j] = c
        if sum(cleaned.values()) != n:
            raise DomainError(f"entries must sum to n = {brief(n)}")
        items = tuple(sorted(cleaned.items()))
        # l >= 2, so j < 2^p <= l^p whenever j has at most p bits; l^p is
        # built only for an index longer than that, so a huge p costs nothing.
        lo, hi = items[0][0], items[-1][0]
        if lo < 0 or (hi.bit_length() > p and hi >= l**p):
            bad = lo if lo < 0 else hi
            raise DomainError(
                f"index {brief(bad)} out of range for l^p with l = {brief(l)}, p = {brief(p)}"
            )
        self.p = p
        self.n = n
        self.l = l
        self._items = items

    @classmethod
    def from_dense(cls, p: int, n: int, l: int, entries: Iterable[int]) -> "FrequencyVector":
        counts = {j: c for j, c in enumerate(entries) if c}
        return cls(p, n, l, counts)

    def entry(self, j: int) -> int:
        """Count at 0-based index j."""
        items = self._items
        k = bisect.bisect_left(items, (j,))
        return items[k][1] if k < len(items) and items[k][0] == j else 0

    def items(self) -> tuple[tuple[int, int], ...]:
        """Nonzero (0-based index, count) pairs in index order."""
        return self._items

    def dense(self) -> list[int]:
        out = [0] * (self.l**self.p)
        for j, c in self._items:
            out[j] = c
        return out

    def key(self):
        return (self.p, self.n, self.l, self._items)

    def __eq__(self, other):
        return isinstance(other, FrequencyVector) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"FrequencyVector(p={self.p}, n={self.n}, l={self.l}, {dict(self.items())})"

    def sort_key(self) -> tuple:
        """Deterministic ordering key: vectors of one level sort as their
        dense entry lists do, lexicographically. It is taken from the
        nonzero entries, so l^p is never built: the first entry at which
        two dense lists differ is where their (-index, count) pairs first
        differ, and the list with a nonzero entry there is the larger."""
        return tuple([(-j, c) for j, c in self._items])

    def to_json(self) -> str:
        """json.dumps(self.to_obj()), with the dense list written by runs of
        zeros instead of from l^p ints."""
        return _vector_json(self.p, self.n, self.l, self._items)

    def to_obj(self) -> dict:
        obj: dict = {"p": self.p, "n": self.n, "l": self.l}
        if _is_dense(self.p, self.l):
            obj["dense"] = self.dense()
        else:
            obj["sparse"] = {str(j + 1): c for j, c in self.items()}
        return obj

    @classmethod
    def from_obj(cls, obj: Mapping) -> "FrequencyVector":
        if not isinstance(obj, Mapping):
            raise DomainError("a frequency vector must be a JSON object")
        try:
            p, n, l = _as_int(obj["p"]), _as_int(obj["n"]), _as_int(obj["l"])
        except KeyError as exc:
            raise DomainError(f"missing field {exc} in frequency-vector object")
        if "dense" in obj:
            dense = obj["dense"]
            if not isinstance(dense, list):
                raise DomainError("'dense' must be a list of counts")
            return cls.from_dense(p, n, l, [_as_int(c) for c in dense])
        if "sparse" in obj:
            sparse = obj["sparse"]
            if not isinstance(sparse, dict):
                raise DomainError("'sparse' must be an object of index: count")
            return cls(p, n, l, {_as_int(j) - 1: _as_int(c) for j, c in sparse.items()})
        raise DomainError("frequency-vector object needs 'dense' or 'sparse'")

    @classmethod
    def from_json(cls, text: str) -> "FrequencyVector":
        """The vector of a JSON text; text that is not JSON, nested past the
        recursion limit or holding a number past the integer-to-string
        limit included, raises DomainError."""
        try:
            obj = json.loads(text)
        except (ValueError, RecursionError) as exc:
            raise DomainError(f"invalid frequency-vector JSON: {exc}") from None
        return cls.from_obj(obj)


def _is_dense(p: int, l: int) -> bool:
    """Whether a level-p vector over l letters is serialized densely."""
    # l >= 2, so l^p <= the limit only when 2^p is.
    return p < DENSE_SERIALIZATION_LIMIT.bit_length() and l**p <= DENSE_SERIALIZATION_LIMIT


def _vector_json(p: int, n: int, l: int, items) -> str:
    """FrequencyVector.to_json of the vector (p, n, l) whose nonzero
    (0-based index, count) pairs are `items`, in index order."""
    if not _is_dense(p, l):
        sparse = ", ".join([f'"{j + 1}": {c}' for j, c in items])
        return f'{{"p": {p}, "n": {n}, "l": {l}, "sparse": {{{sparse}}}}}'
    parts, nxt = [], 0
    for j, c in items:
        parts.append(f"{'0, ' * (j - nxt)}{c}, ")
        nxt = j + 1
    parts.append("0, " * (l**p - nxt))
    dense = "".join(parts)[:-2]
    return f'{{"p": {p}, "n": {n}, "l": {l}, "dense": [{dense}]}}'


def _index(value) -> int:
    """value as the int it is (operator.index: a bool or a numpy integer
    too); anything else, a float included, is a DomainError rather than
    silently truncated."""
    try:
        return operator.index(value)
    except TypeError:
        raise DomainError(f"not an integer: {value!r}") from None


def _as_int(value) -> int:
    """An int (not a bool) or an integer string; anything else, a float
    included, is a DomainError rather than silently truncated."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    raise DomainError(f"not an integer: {value!r}")


def project(s: CyclicSequence, p: int) -> FrequencyVector:
    """Frequency vector of the length-p cyclic windows of s.

    Implemented by sliding a cyclic window; p = 0 gives [n].
    """
    n, l = s.n, s.l
    if p < 0 or p > n:
        raise DomainError(f"projection level must satisfy 0 <= p <= n = {n}")
    if p == 0:
        return FrequencyVector(0, n, l, {0: n})
    counts: dict[int, int] = {}
    # Rolling window: index of window starting at i, as a base-l number.
    v = 0
    for k in range(p):
        v = v * l + s.symbols[k % n]
    top = l ** (p - 1)
    for i in range(n):
        counts[v] = counts.get(v, 0) + 1
        v = (v - s.symbols[i % n] * top) * l + s.symbols[(i + p) % n]
    return FrequencyVector(p, n, l, counts)


def raise_level(x: FrequencyVector) -> FrequencyVector:
    """Raising map: block sums of l consecutive entries, level p+1 -> p."""
    if x.p < 1:
        raise DomainError("cannot raise below level 0")
    counts: dict[int, int] = {}
    for j, c in x.items():
        parent = j // x.l
        counts[parent] = counts.get(parent, 0) + c
    return FrequencyVector(x.p - 1, x.n, x.l, counts)


def _check_compatible(a: CyclicSequence, b: CyclicSequence):
    if a.n != b.n or a.l != b.l:
        raise DomainError("sequences must share length and alphabet")


def p_close(a: CyclicSequence, b: CyclicSequence, p: int) -> bool:
    """True iff a and b have identical length-p window counts."""
    _check_compatible(a, b)
    return project(a, p) == project(b, p)


def gamma_max(a: CyclicSequence, b: CyclicSequence) -> int:
    """Largest p in 0..n-1 with a p-close to b (0 always qualifies).

    p-closeness holds at every level below one where it holds, since
    raising project(s, p) gives project(s, p - 1). So levels 1, 2, 4, ...
    are tried up to the first that is not close, and p is found by
    bisection below it: O(log p) projections, none above level max(2p, 1)."""
    _check_compatible(a, b)
    if a == b:
        raise DomainError("gamma_max requires distinct sequences")
    if project(a, 0) != project(b, 0):
        raise ArithmeticError("level 0 projections always coincide")
    lo, hi, step = 0, a.n - 1, 1
    while step <= hi and project(a, step) == project(b, step):
        lo, step = step, 2 * step
    hi = min(hi, step - 1)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if project(a, mid) == project(b, mid):
            lo = mid
        else:
            hi = mid - 1
    return lo


def ultrametric_distance(a: CyclicSequence, b: CyclicSequence) -> float:
    """d(a, b) = exp(-gamma_max); 0 when a == b."""
    _check_compatible(a, b)
    if a == b:
        return 0.0
    return math.exp(-gamma_max(a, b))
