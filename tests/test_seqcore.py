import math
import random
import time
from itertools import product

import pytest
from hypothesis import given, strategies as st

import cycseq
from cycseq import (
    CyclicSequence,
    DomainError,
    ResourceCapError,
    canonicalize,
    divisors,
    enumerate_necklaces,
    euler_totient,
    level1_cluster_size,
    minimal_period,
    necklace_count,
    necklace_strings,
    sequence_from_string,
    sequence_to_string,
    shift,
)
from cycseq import seqcore
from cycseq.cli import main
from cycseq.seqcore import NECKLACE_COUNT_MAX_BITS, _max_rotation_offset, _prenecklace

from conftest import all_necklaces, naive_canonical

words = st.lists(st.integers(0, 2), min_size=1, max_size=12)


def test_totient_small():
    assert [euler_totient(d) for d in range(1, 13)] == [
        1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4,
    ]


def test_totient_multiplicative_identity():
    # sum of phi(d) over d | n equals n
    for n in range(1, 200):
        assert sum(euler_totient(d) for d in divisors(n)) == n


def test_divisors():
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(13) == [1, 13]
    assert divisors(1) == [1]


@given(words)
def test_canonicalize_matches_naive(word):
    s = canonicalize(word, 3)
    assert s.symbols == naive_canonical(word)


@given(words, st.integers(0, 11))
def test_canonicalize_rotation_invariant(word, k):
    k %= len(word)
    rotated = word[k:] + word[:k]
    assert canonicalize(word, 3) == canonicalize(rotated, 3)


def test_canonical_form_is_validated():
    with pytest.raises(DomainError):
        CyclicSequence((0, 0, 1), 2)
    # the maximal rotation is accepted
    assert CyclicSequence((1, 0, 0), 2).index() == 5


def test_canonical_form_is_validated_on_every_rotation():
    for n in range(1, 7):
        for word in product(range(3), repeat=n):
            if naive_canonical(word) == word:
                assert CyclicSequence(word, 3).symbols == word
            else:
                with pytest.raises(DomainError, match="canonical rotation"):
                    CyclicSequence(word, 3)


def test_range_error_names_first_bad_symbol():
    with pytest.raises(DomainError, match="symbol 3 out of range"):
        CyclicSequence((2, 3, 5), 3)
    with pytest.raises(DomainError, match="symbol -1 out of range"):
        CyclicSequence((1, -1, 4), 3)
    # out of range and also not the maximal rotation: the range error wins
    for word, bad in (((0, 3), 3), ((1, 2, 5), 5), ((0, -1, 2), -1)):
        with pytest.raises(DomainError, match=f"symbol {bad} out of range"):
            CyclicSequence(word, 3)
    # a maximal rotation whose smallest letter is out of range
    with pytest.raises(DomainError, match="symbol -1 out of range"):
        CyclicSequence((2, -1), 3)


def _check_rotation_scan(word, l):
    # the offset, validation and minimal period the scan gives, against the
    # naive maximal rotation; the scan reads the listing's chr(48 + a)
    # strings as it reads the letters
    top = naive_canonical(word)
    k = _max_rotation_offset(word)
    assert tuple(word[k:]) + tuple(word[:k]) == top, word
    assert _prenecklace("".join(chr(48 + a) for a in word)) == _prenecklace(word), word
    if tuple(word) == top:
        n = len(word)
        period = min(d for d in divisors(n) if top[d:] + top[:d] == top)
        assert minimal_period(CyclicSequence(top, l)) == period, word
    else:
        with pytest.raises(DomainError, match="canonical rotation"):
            CyclicSequence(tuple(word), l)


@pytest.mark.parametrize("l, max_n", [(2, 14), (3, 9), (4, 7)])
def test_is_max_rotation_matches_booth_on_every_word(l, max_n):
    for n in range(1, max_n + 1):
        for word in product(range(l), repeat=n):
            _check_rotation_scan(word, l)


def test_is_max_rotation_matches_booth_on_random_words():
    # maximal rotations, their powers (periodic words), prefixes of those
    # powers (prenecklaces that need not be necklaces) and other rotations
    rng = random.Random(20000)
    for _ in range(300):
        l = rng.randint(2, 5)
        w = [rng.randrange(l) for _ in range(rng.randint(1, rng.choice((12, 200))))]
        top = list(naive_canonical(w))
        power = top * rng.randint(1, 200 // len(top))
        cut = rng.randint(1, len(power))
        assert _prenecklace(power[:cut])[0] == cut
        cases = [w, top, power, power[:cut]]
        cases += [power[r:] + power[:r] for r in rng.sample(range(len(power)), min(5, len(power)))]
        for word in cases:
            _check_rotation_scan(word, l)


def test_index_examples():
    assert CyclicSequence((0,), 2).index() == 1
    assert CyclicSequence((1, 0, 0), 2).index() == 5
    assert CyclicSequence((1, 1, 1), 2).index() == 8


def test_shift_is_raw_rotation():
    s = CyclicSequence((1, 1, 0), 2)
    assert shift(s, 1) == [1, 0, 1]
    assert shift(s, 3) == [1, 1, 0]


def test_minimal_period():
    assert minimal_period(canonicalize([0, 1, 0, 1], 2)) == 2
    assert minimal_period(canonicalize([0, 1, 1, 1], 2)) == 4
    assert minimal_period(canonicalize([1, 1, 1], 2)) == 1


def test_necklace_count_known_values():
    assert necklace_count(3, 2) == 4
    assert necklace_count(7, 2) == 20
    assert necklace_count(11, 2) == 188
    assert necklace_count(4, 3) == 24
    assert necklace_count(1, 5) == 5


def test_necklace_count_matches_enumeration():
    for l in (2, 3):
        for n in range(1, 8 if l == 2 else 6):
            assert necklace_count(n, l) == len(all_necklaces(n, l))


@pytest.mark.parametrize(
    "l, n",
    [(2, n) for n in range(1, 13)]
    + [(3, n) for n in range(1, 8)]
    + [(4, n) for n in range(1, 6)]
    + [(5, n) for n in range(1, 5)]
    + [(l, n) for l in (11, 12) for n in range(1, 4)],
)
def test_enumerate_necklaces_sorted_and_complete(monkeypatch, l, n):
    # the generator's order, not just its set: descending by index, at
    # every suffix length m the generator may reuse completions for
    want = sorted(all_necklaces(n, l), key=CyclicSequence.index, reverse=True)
    assert len(want) == necklace_count(n, l)
    assert 0 <= seqcore._suffix_length(n) <= n // 2
    monkeypatch.setattr(seqcore, "_suffix_length", lambda n: 0)
    unsplit = list(seqcore._necklace_letters(n, l))
    for m in range(n // 2 + 1):
        monkeypatch.setattr(seqcore, "_suffix_length", lambda n: m)
        assert list(seqcore._necklace_letters(n, l)) == unsplit, m
        assert enumerate_necklaces(n, l) == want, m


def test_enumerate_necklaces_ternary():
    got = enumerate_necklaces(4, 3)
    assert len(got) == 24
    assert set(got) == set(all_necklaces(4, 3))


LISTINGS = [enumerate_necklaces, necklace_strings]


def test_enumerate_cap():
    for listing in LISTINGS:
        with pytest.raises(ResourceCapError):
            listing(30, 2)
        with pytest.raises(ResourceCapError):
            listing(20, 3)
        for n, l in ((0, 2), (3, 1)):
            with pytest.raises(DomainError):
                listing(n, l)


def test_enumerate_cap_on_huge_sizes():
    # sizes past any float: the bit cap is compared in integers
    for listing in LISTINGS:
        with pytest.raises(ResourceCapError):
            listing(10**400, 3)


def test_listing_cap_at_its_edges(monkeypatch):
    # the largest shapes the count cap admits and the next ones up, n = 1
    # included; the refusals come before any word is listed
    cap = seqcore.LIST_MAX_NECKLACES
    for n, l in ((24, 2), (15, 3), (11, 4), (7, 9), (8, 7), (2, 1447), (1, cap)):
        assert necklace_count(n, l) <= cap
        seqcore._check_listable(n, l)
    for n, l in ((25, 2), (16, 3), (12, 4), (7, 10), (8, 8), (2, 1448), (1, cap + 1)):
        assert necklace_count(n, l) > cap
        for listing in LISTINGS:
            start = time.perf_counter()
            with pytest.raises(ResourceCapError, match="listing cap"):
                listing(n, l)
            assert time.perf_counter() - start < 1.0
    # at a small cap the edge itself is listed: necklace_count(7, 2) == 20
    monkeypatch.setattr(seqcore, "LIST_MAX_NECKLACES", 20)
    for listing in LISTINGS:
        assert len(listing(7, 2)) == 20
        assert [str(s) for s in listing(1, 20)] == [str(a) for a in range(19, -1, -1)]
        for n, l in ((8, 2), (1, 21)):
            with pytest.raises(ResourceCapError, match="listing cap"):
                listing(n, l)


@pytest.mark.parametrize("l, max_n", [(2, 16), (3, 9), (4, 6), (5, 5), (11, 3), (12, 3)])
def test_necklace_strings_match_the_printed_necklaces(l, max_n):
    # l = 11 and 12 print in the comma form
    for n in range(1, max_n + 1):
        assert necklace_strings(n, l) == [str(s) for s in enumerate_necklaces(n, l)]


# Listings a faulty generator could yield for n = 3, l = 2, each as long and
# as descending as the true one: a rotation that is not maximal, and a letter
# past the alphabet.
BAD_WORDS = [("111", "110", "100", "001"), ("210", "110", "100", "000")]


@pytest.mark.parametrize("words", BAD_WORDS, ids=["not-maximal", "out-of-range"])
@pytest.mark.parametrize("listing", LISTINGS)
def test_listings_check_every_word(monkeypatch, listing, words):
    monkeypatch.setattr(seqcore, "_necklace_letters", lambda n, l: iter(words))
    with pytest.raises(DomainError, match="canonical rotation|out of range"):
        listing(3, 2)


@pytest.mark.parametrize(
    "place, word, message",
    [
        (-1, "001", "canonical rotation"),
        (0, ";;;", "symbol 11 out of range"),  # chr(48 + 11)
        (-1, "///", "symbol -1 out of range"),
        (-1, "00", "not 3 letters"),
        (0, "::::", "not 3 letters"),
    ],
)
def test_comma_listings_check_every_word(monkeypatch, place, word, message):
    # the same faults past 10 letters, where each word is scanned as the
    # chr(48 + a) string it is listed as, planted in place of "000" or
    # ":::" so that the listing stays descending
    words = list(seqcore._necklace_letters(3, 11))
    words[place] = word
    monkeypatch.setattr(seqcore, "_necklace_letters", lambda n, l: iter(words))
    for listing in LISTINGS:
        with pytest.raises(DomainError, match=message):
            listing(3, 11)


def test_necklace_strings_check_the_listing_as_a_whole(monkeypatch):
    # true words, but one missing, one repeated or two swapped, refused by
    # both listings
    full = necklace_strings(3, 2)
    for words in (full[:-1], full[:1] + full[:-1], [full[1], full[0], *full[2:]]):
        monkeypatch.setattr(seqcore, "_necklace_letters", lambda n, l: iter(words))
        for listing in LISTINGS:
            with pytest.raises(DomainError, match="every necklace once"):
                listing(3, 2)


def _passes_check_word(word, n, l):
    if len(word) != n or not all(c in "0123456789" for c in word):
        return False
    try:
        seqcore._check_word([int(c) for c in word], l)
    except DomainError:
        return False
    return True


# letters a planted word may take: digits, and what int() also reads in some
# base: "_", a space, non-ASCII digits, "a" (base 16) and a sign
PLANT_LETTERS = "0123456789" * 3 + "_ \u0663\u00b2a-"


@pytest.mark.parametrize("l", range(2, 11))
def test_whole_list_check_agrees_with_check_word(l):
    # one planted word at a random place among necklaces: the whole-list
    # check raises iff that word fails _check_word or is not n digits
    rng = random.Random(l)
    for n in range(1, 11):
        for _ in range(40):
            base = [str(canonicalize([rng.randrange(l) for _ in range(n)], l))
                    for _ in range(rng.randint(0, 30))]
            top = str(canonicalize([rng.randrange(l) for _ in range(n)], l))
            kind, i = rng.randrange(4), rng.randrange(n)
            if kind == 0:  # a random word, letters up to l
                word = "".join(str(rng.randint(0, min(l, 9))) for _ in range(n))
            elif kind == 1:  # a rotation of a necklace
                word = top[i:] + top[:i]
            elif kind == 2:  # a necklace with one letter replaced
                word = top[:i] + rng.choice(PLANT_LETTERS) + top[i + 1 :]
            else:  # a necklace a letter too long or too short
                word = top + str(rng.randrange(l)) if rng.random() < 0.5 else top[:-1]
            words = list(base)
            words.insert(rng.randint(0, len(words)), word)
            if _passes_check_word(word, n, l):
                seqcore._check_digit_words(words, n, l)
            else:
                with pytest.raises(DomainError):
                    seqcore._check_digit_words(words, n, l)


@pytest.mark.parametrize(
    "n, l, place, word",
    [
        (20, 2, -1, "0" * 19 + "1"),  # the last word, a rotation that is not maximal
        (20, 2, 0, "1_" + "1" * 18),  # int() reads "1_1" as "11"
        (20, 2, 7, "1" * 19 + " "),
        (20, 2, 0, "1" * 19 + "\u0661"),  # ARABIC-INDIC DIGIT ONE
        (20, 2, 3, "2" + "1" * 19),  # not a base-2 digit
        (11, 3, 0, "3" + "2" * 10),  # a base-4 digit, but not a letter of 3
        (11, 3, -1, "0" * 10 + "1"),
        (11, 3, 100, "2" * 10),  # a letter short
        (6, 5, 0, "5" + "4" * 5),  # a base-8 digit, but not a letter of 5
    ],
)
def test_whole_list_check_on_full_listings(n, l, place, word):
    words = necklace_strings(n, l)
    seqcore._check_digit_words(words, n, l)
    words[place] = word
    with pytest.raises(DomainError):
        seqcore._check_digit_words(words, n, l)


def test_necklace_strings_build_no_sequence(monkeypatch):
    def refuse(self):
        raise AssertionError("a CyclicSequence was built")

    monkeypatch.setattr(CyclicSequence, "__post_init__", refuse)
    assert necklace_strings(4, 2) == ["1111", "1110", "1100", "1010", "1000", "0000"]


def test_level1_cluster_sizes():
    assert level1_cluster_size([9, 2]) == 5
    assert level1_cluster_size([8, 3]) == 15
    assert level1_cluster_size([7, 4]) == 30
    assert level1_cluster_size([6, 5]) == 42
    # composite n with a common divisor in the composition
    assert level1_cluster_size([2, 2]) == 2
    assert level1_cluster_size([4, 0]) == 1


def test_level1_cluster_sizes_match_enumeration():
    for n in range(1, 9):
        necklaces = all_necklaces(n, 2)
        for z in range(n + 1):
            expected = sum(1 for s in necklaces if sum(s.symbols) == z)
            assert level1_cluster_size([n - z, z]) == expected


def test_level1_partitions_necklace_count():
    for n in range(1, 13):
        total = sum(level1_cluster_size([n - z, z]) for z in range(n + 1))
        assert total == necklace_count(n, 2)


def test_string_round_trip():
    s = canonicalize([0, 1, 1, 0, 1], 2)
    assert sequence_from_string(sequence_to_string(s), 2) == s
    assert sequence_to_string(s) == "11010"
    big = canonicalize([11, 0, 3], 12)
    assert "," in sequence_to_string(big)
    assert sequence_from_string(sequence_to_string(big), 12) == big
    assert sequence_from_string("11", 12).symbols == (11,)
    assert sequence_from_string("1,0,2", 3) == sequence_from_string("210", 3)


@pytest.mark.parametrize("l", [2, 3, 9, 10, 11, 12])
def test_string_is_one_token_per_symbol(l):
    sep = "" if l <= 10 else ","
    for s in enumerate_necklaces(3, l):
        assert sequence_to_string(s) == sep.join(str(a) for a in s.symbols)


# what int() reads besides ASCII digits, and what sequence_to_string never
# writes: a letter of PLANT_LETTERS that is not a digit, planted anywhere in
# a digit string or a comma string
STRICT_TEXTS = sorted(
    {(text[:i] + c + text[i + k :], l)
     for c in set(PLANT_LETTERS) - set("0123456789")
     for text, l in (("011", 2), ("1,0,2", 3), ("10,2", 12))
     for i in range(len(text) + 1)
     for k in (0, 1) if i + k <= len(text)}
    | {("\u0660\u0661", 2), ("1_0,2", 12), ("+1,2", 3), ("1, 2", 3), (" 01", 2), ("01\n", 2)}
)


def test_string_rejects_garbage():
    with pytest.raises(DomainError):
        sequence_from_string("", 2)
    with pytest.raises(DomainError):
        sequence_from_string("102", 2)
    with pytest.raises(DomainError):
        sequence_from_string("abc", 2)
    for text, l in STRICT_TEXTS:
        with pytest.raises(DomainError, match="invalid sequence string"):
            sequence_from_string(text, l)


def test_cli_takes_ascii_digits_only(capsys):
    for text, l in STRICT_TEXTS:
        # "--seq=-1" and not "--seq -1", which argparse reads as an option
        for argv in (["project", f"--seq={text}", "--p", "1"], ["distance", f"--a={text}", "--b", "1"]):
            assert main([*argv, "--alphabet", str(l)]) == 3, (argv, l)
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("error: invalid sequence string")


def test_necklace_count_refuses_huge_n_quickly():
    # n log2(l) past the bit cap is refused before l^n is built; n = 10^9
    # used to run for seconds
    for n, l in ((10**9, 2), (NECKLACE_COUNT_MAX_BITS + 1, 2), (10**400, 3), (10**6, 10**6)):
        start = time.perf_counter()
        with pytest.raises(ResourceCapError):
            necklace_count(n, l)
        assert time.perf_counter() - start < 1.0
    assert necklace_count(NECKLACE_COUNT_MAX_BITS, 2) > 2 ** (NECKLACE_COUNT_MAX_BITS - 21)
    assert necklace_count(10**9, 1) == 1
    assert [necklace_count(n, 1) for n in (1, 6, 7)] == [1, 1, 1]


# 10^5000 has more digits than int() turns into decimal (4,300 by default):
# a refusal whose message formats it raises ValueError instead
HUGE = 10**5000


def _huge_argument_calls():
    z_n = cycseq.FrequencyVector(1, HUGE, 2, {0: HUGE})
    z_p = cycseq.FrequencyVector(HUGE, HUGE, 2, {0: HUGE})
    z_1 = cycseq.FrequencyVector(1, HUGE, 2, {0: HUGE - 1, 1: 1})
    calls = [
        ("enumerate_necklaces", (HUGE, 2)),
        ("enumerate_necklaces", (2, HUGE)),
        ("necklace_strings", (HUGE, 2)),
        ("necklace_count", (HUGE, 2)),
        ("build_tree", (HUGE, 2)),
        ("build_tree", (3, HUGE)),
        ("count_twofold_exact", (HUGE,)),
        ("count_twofold", (HUGE,)),
        ("phi", (HUGE, 0)),
        ("twofold_table", (HUGE,)),
        ("count_twofold_bruteforce", (HUGE,)),
        ("enumerate_sequences_with_frequency", (z_n,)),
        ("enumerate_sequences_with_frequency", (z_p,)),
        ("lower", (z_p,)),
        ("solve_step1", (z_p,)),
        ("count_sequences_with_frequency", (z_p,)),
        ("FrequencyVector", (1, HUGE, 2, {0: 1})),
        ("FrequencyVector", (1, 1, 2, {0: -HUGE})),
        ("FrequencyVector", (1, 1, 2, {HUGE: 1})),
        ("euler_totient", (-HUGE,)),
        ("index_word", (HUGE, 3, 2)),
        ("word_index", ([HUGE], 2)),
        ("canonicalize", ([HUGE], 2)),
        ("CyclicSequence", ((HUGE,), 2)),
        ("level1_cluster_size", ([HUGE, HUGE],)),
        ("count_sequences_with_frequency", (z_1,)),
        ("count_multi_debruijn", (2, HUGE, 1)),
        ("count_debruijn_sequences", (HUGE, 2)),
        ("full_graph", (2, HUGE)),
        ("expand_configuration", ((), HUGE)),
        ("permutation_count", (HUGE, 0)),
        ("minor_adjacency", (HUGE,)),
        ("minor_cofactor", (HUGE,)),
        ("minor_cofactor_closed_form", (HUGE,)),
    ]
    return [
        pytest.param(getattr(cycseq, name), args, id=f"{name}-{i}")
        for i, (name, args) in enumerate(calls)
    ]


@pytest.mark.parametrize("func, args", _huge_argument_calls())
def test_refusals_never_format_a_huge_argument(func, args):
    # each names its cap without turning n, l or p into decimal
    start = time.perf_counter()
    with pytest.raises((ResourceCapError, DomainError)):
        func(*args)
    assert time.perf_counter() - start < 1.0


def test_necklace_count_is_fast():
    t0 = time.perf_counter()
    for _ in range(100):
        necklace_count(11, 2)
    assert (time.perf_counter() - t0) / 100 < 1e-3
