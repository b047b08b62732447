"""Nagamese phonotactics: syllable-structure validation, exhaustive CV-pattern
enumeration, and seeded word generation.

Words are phoneme token sequences (aspirated stops and the dotted/hacek
consonants are single tokens). Each word maps to a CV skeleton which is
checked against the seven schematic syllable formulas, subject to three
global rules: a vowel cannot stand alone, a word cannot be two bare vowels,
and nothing exceeds four syllables.

Two independent implementations of the formulas live here on purpose:
`classify` goes through compiled regexes, while `enumerate_accepted` expands
optional slots directly. Tests hold them to exact agreement. `draw_word`
accepts a drawn word by looking its skeleton up in a table that `classify`
filled once for every template expansion (135 of them, 123 distinct), so it
runs no regex per word. Every verdict in that table is `classify`'s, not
`enumerate_accepted`'s, so the two routes stay independent. Its uniform
draws index power-of-two tables with `getrandbits`, which gives and consumes
exactly what `random.Random.choice` would (see `_draw_parts`), and
`datagen.generate` draws its stems through the same loop.
"""

from __future__ import annotations

import itertools
import random
import re
from dataclasses import dataclass
from typing import Iterable, Sequence

VOWELS = ("i", "u", "e", "ə", "o", "a")
CONSONANTS = (
    "p", "t", "c", "k", "b", "d", "j", "g",
    "pʰ", "tʰ", "cʰ", "kʰ", "m", "n", "ṅ",
    "s", "š", "h", "r", "l", "w", "y",
)

# ASCII aliases accepted on input (digraphs for aspirates, @ for schwa).
ASCII_TO_PHONEME = {
    "ph": "pʰ", "th": "tʰ", "ch": "cʰ", "kh": "kʰ",
    "ng": "ṅ", "sh": "š", "@": "ə",
}
PHONEME_TO_ASCII = {v: k for k, v in ASCII_TO_PHONEME.items()}

# k, and 2**k entries of which those past the first n are None; see `_table`
Table = tuple[int, tuple]


@dataclass(frozen=True)
class PhonemeInventory:
    """Ordered vowel and consonant inventories; order fixes rng draws."""

    vowels: tuple[str, ...] = VOWELS
    consonants: tuple[str, ...] = CONSONANTS

    def __post_init__(self):
        if not self.vowels or not self.consonants:
            raise ValueError("inventory classes must be non-empty")
        if len(set(self.vowels)) != len(self.vowels):
            raise ValueError("duplicate vowels")
        if len(set(self.consonants)) != len(self.consonants):
            raise ValueError("duplicate consonants")
        if set(self.vowels) & set(self.consonants):
            raise ValueError("vowels and consonants must be disjoint")


DEFAULT_INVENTORY = PhonemeInventory()

# Slot alphabet: "V" mandatory vowel, "C" mandatory consonant, "(C)" optional.
Slot = str


@dataclass(frozen=True)
class SyllableTemplate:
    identifier: str
    slots: tuple[Slot, ...]
    syllable_count: int

    def __post_init__(self):
        if not 1 <= self.syllable_count <= 4:
            raise ValueError(f"syllable_count out of range: {self.syllable_count}")
        for slot in self.slots:
            if slot not in ("V", "C", "(C)"):
                raise ValueError(f"bad slot: {slot!r}")
        if sum(s == "V" for s in self.slots) != self.syllable_count:
            raise ValueError(f"{self.identifier}: V slots must equal syllable_count")

    def regex(self) -> str:
        return "".join("C?" if s == "(C)" else s for s in self.slots)

    def expansions(self) -> set[str]:
        """Every concrete skeleton: each optional slot kept or dropped."""
        optional_positions = [i for i, s in enumerate(self.slots) if s == "(C)"]
        base = ["C" if s == "C" else "V" if s == "V" else None for s in self.slots]
        out = set()
        for keep in itertools.product((False, True), repeat=len(optional_positions)):
            parts = list(base)
            for pos, kept in zip(optional_positions, keep):
                parts[pos] = "C" if kept else ""
            out.add("".join(p for p in parts if p))
        return out


def _slots(spec: str) -> tuple[Slot, ...]:
    return tuple(spec.split())


# The seven schematic formulas. The monosyllabic superscript coda is read as
# "up to two coda consonants"; both disyllabic type-2 alternatives compile.
TEMPLATES = (
    SyllableTemplate("mono-1", _slots("(C) (C) V (C) (C)"), 1),
    SyllableTemplate("di-1", _slots("V (C) (C) (C) V (C)"), 2),
    SyllableTemplate("di-2a", _slots("(C) C V (C) (C) C V (C) (C)"), 2),
    SyllableTemplate("di-2b", _slots("(C) C V (C) (C) V (C) (C)"), 2),
    SyllableTemplate("tri-1", _slots("V (C) (C) C V (C) (C) C V (C)"), 3),
    SyllableTemplate("tri-2", _slots("(C) C V (C) (C) V (C) (C) (C) V (C)"), 3),
    SyllableTemplate("tetra-1", _slots("(C) V (C) C V C V (C) C V (C)"), 4),
)

_COMPILED = tuple((t.identifier, t.syllable_count, re.compile(t.regex())) for t in TEMPLATES)

MAX_SYLLABLES = 4


@dataclass(frozen=True)
class SyllableAnalysis:
    accepted: bool
    matches: tuple[tuple[str, int], ...]

    def __post_init__(self):
        if self.accepted != bool(self.matches):
            raise ValueError("accepted must mirror non-empty matches")

    @property
    def min_syllable_count(self) -> int | None:
        return min(c for _, c in self.matches) if self.matches else None


def _check_skeleton(skeleton: str):
    if not skeleton:
        raise ValueError("empty skeleton")
    bad = set(skeleton) - {"C", "V"}
    if bad:
        raise ValueError(f"skeleton symbols must be C or V, got {sorted(bad)}")


def _globally_rejected(skeleton: str) -> bool:
    # a vowel cannot occur alone; a word cannot be two bare vowels;
    # nothing runs past four syllables
    return skeleton in ("V", "VV") or skeleton.count("V") > MAX_SYLLABLES


def to_skeleton(phonemes: Sequence[str], inv: PhonemeInventory = DEFAULT_INVENTORY) -> str:
    """Map a phoneme sequence to its CV skeleton, preserving order."""
    if not phonemes:
        raise ValueError("empty phoneme sequence")
    out = []
    for i, p in enumerate(phonemes):
        if p in inv.vowels:
            out.append("V")
        elif p in inv.consonants:
            out.append("C")
        else:
            raise ValueError(f"unknown phoneme {p!r} at position {i}")
    return "".join(out)


def classify(skeleton: str) -> SyllableAnalysis:
    """Match a skeleton against the compiled templates. Rejection is a
    value: an unaccepted skeleton gets an empty match list, not an error."""
    _check_skeleton(skeleton)
    if _globally_rejected(skeleton):
        return SyllableAnalysis(False, ())
    matches = tuple(
        (identifier, count)
        for identifier, count, pattern in _COMPILED
        if pattern.fullmatch(skeleton)
    )
    return SyllableAnalysis(bool(matches), matches)


def analyze_word(
    phonemes: Sequence[str], inv: PhonemeInventory = DEFAULT_INVENTORY
) -> SyllableAnalysis:
    return classify(to_skeleton(phonemes, inv))


def enumerate_accepted(max_len: int) -> list[str]:
    """Oracle route: every {C,V} string up to max_len, kept iff some
    template expansion produces it and no global rule rejects it."""
    if not 1 <= max_len <= 16:
        raise ValueError(f"max_len must be in 1..16: {max_len}")
    expanded: set[str] = set()
    for template in TEMPLATES:
        expanded |= {s for s in template.expansions() if len(s) <= max_len}
    accepted = []
    for length in range(1, max_len + 1):
        for chars in itertools.product("CV", repeat=length):
            skeleton = "".join(chars)
            if skeleton in expanded and not _globally_rejected(skeleton):
                accepted.append(skeleton)
    return sorted(accepted)


# Every skeleton a template can produce, mapped to the syllable counts that
# `classify` accepts it with (none for a globally rejected one). `draw_word`
# only produces template expansions, so this table is its whole acceptance
# rule.
_ACCEPTED_COUNTS = {
    skeleton: frozenset(count for _, count in classify(skeleton).matches)
    for template in TEMPLATES
    for skeleton in template.expansions()
}


def _table(items: Iterable) -> Table:
    """items as a table that one `getrandbits(k)` indexes: k, and the items
    padded with None to 2**k entries, for k = len(items).bit_length()."""
    items = tuple(items)
    k = len(items).bit_length()
    return k, items + (None,) * ((1 << k) - len(items))


# Per syllable count: a table of the slots of its templates.
_TEMPLATE_TABLES = {
    count: _table(t.slots for t in TEMPLATES if t.syllable_count == count)
    for count in range(1, MAX_SYLLABLES + 1)
}


def _draw_parts(
    rng: random.Random,
    syllable_count: int,
    vowels: Table,
    consonants: Table,
) -> list[str]:
    """The parts of one accepted word of the given syllable count, one per
    filled slot, drawn from `_table`s of the parts each class spells as.

    `random.Random`'s `choice(seq)` draws `seq[r]` for the first
    r = getrandbits(k) below n = len(seq), with k = n.bit_length(), redrawing
    the bits while r >= n (CPython's `_randbelow_with_getrandbits`). A table
    of 2**k entries, padded with None, makes that one index: `table[r]` is
    None exactly when r >= n. So this draws what `choice` would, from the same
    calls to `getrandbits`, and leaves the rng in the same state, without
    `choice`'s two Python frames per draw. Optional slots are filled with
    probability 1/2 by one `rng.random()` each. Drawing repeats until the
    word's skeleton, built as its slots are filled, passes
    `_ACCEPTED_COUNTS`.
    """
    getrandbits, draw = rng.getrandbits, rng.random
    k_template, templates = _TEMPLATE_TABLES[syllable_count]
    k_vowel, vowel_table = vowels
    k_consonant, consonant_table = consonants
    while True:
        slots = templates[getrandbits(k_template)]
        while slots is None:
            slots = templates[getrandbits(k_template)]
        parts, skeleton = [], ""
        for slot in slots:
            if slot == "V":
                k, table = k_vowel, vowel_table
            elif slot == "C" or draw() < 0.5:  # an optional "(C)" is kept half the time
                k, table, slot = k_consonant, consonant_table, "C"
            else:
                continue
            part = table[getrandbits(k)]
            while part is None:
                part = table[getrandbits(k)]
            parts.append(part)
            skeleton += slot
        if syllable_count in _ACCEPTED_COUNTS[skeleton]:
            return parts


def draw_word(
    rng: random.Random,
    syllable_count: int,
    inv: PhonemeInventory = DEFAULT_INVENTORY,
) -> tuple[str, ...]:
    """Sample a word of the requested syllable count from a live rng.

    A template of that count is drawn, then one phoneme per slot, each
    optional slot filled with probability 1/2. Drawing repeats until the
    result passes classification, since a template instance can still hit a
    global rule (a lone V, two bare vowels). The word's skeleton is built
    while its slots are filled (the inventory classes are disjoint, so it
    equals `to_skeleton(word)`) and accepted by one lookup in
    `_ACCEPTED_COUNTS`, which `classify` built once. Every uniform draw is
    one `getrandbits` into a table (see `_draw_parts`), and it returns and
    consumes exactly what `rng.choice` over the templates and the inventory
    would.
    """
    if not 1 <= syllable_count <= MAX_SYLLABLES:
        raise ValueError(f"syllable_count must be in 1..{MAX_SYLLABLES}: {syllable_count}")
    return tuple(_draw_parts(rng, syllable_count, _table(inv.vowels), _table(inv.consonants)))


def from_ascii(text: str) -> tuple[str, ...]:
    """Parse dot-separated phoneme input ("g.o.r", "ph.o.t"), accepting
    both ASCII aliases and the phoneme symbols themselves."""
    chunks = text.split(".")
    phonemes = []
    known = set(VOWELS) | set(CONSONANTS)
    for i, chunk in enumerate(chunks):
        if chunk in ASCII_TO_PHONEME:
            phonemes.append(ASCII_TO_PHONEME[chunk])
        elif chunk in known:
            phonemes.append(chunk)
        else:
            raise ValueError(f"unknown phoneme {chunk!r} at position {i}")
    return tuple(phonemes)


def to_ascii(phonemes: Sequence[str]) -> str:
    """Join phonemes into an ASCII word using the alias digraphs."""
    return "".join(map(PHONEME_TO_ASCII.get, phonemes, phonemes))
