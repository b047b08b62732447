"""Nagamese phonotactics: syllable-structure validation, exhaustive CV-pattern
enumeration, and seeded word generation.

Words are phoneme token sequences (aspirated stops and the dotted/hacek
consonants are single tokens) over Nagamese's inventory: the module
constants VOWELS (6) and CONSONANTS (22). The inventory is the language's,
not a setting, so no function takes another one. Each word maps to a CV
skeleton which is checked against the seven schematic syllable formulas,
subject to three global rules: a vowel cannot stand alone, a word cannot be
two bare vowels, and nothing exceeds four syllables.

A template is its slots alone: its syllable count is the number of its V
slots, and its expansions are every way of keeping or dropping its optional
consonants. Two independent implementations of the formulas live here on
purpose: `classify` goes through compiled regexes, while
`enumerate_accepted` lists the expansions directly, less the globally
rejected ones. Tests hold them to exact agreement. `draw_word` accepts a
drawn word when its skeleton is in `_ACCEPTED`, the set of template
expansions (123 distinct) that `classify` accepted once at import, so it
runs no regex per word. Every verdict in that set is `classify`'s, not
`enumerate_accepted`'s, so the two routes stay independent. Its uniform
draws index power-of-two tables, built once at import, with `getrandbits`,
which gives and consumes exactly what `random.Random.choice` would (see
`_draw_parts`), and `datagen.generate` draws its stems through the same
loop.
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


# Slot alphabet: "V" mandatory vowel, "C" mandatory consonant, "(C)" optional.
Slot = str


@dataclass(frozen=True)
class SyllableTemplate:
    identifier: str
    slots: tuple[Slot, ...]

    @property
    def syllable_count(self) -> int:
        return self.slots.count("V")

    def regex(self) -> str:
        return "".join("C?" if s == "(C)" else s for s in self.slots)

    def expansions(self) -> set[str]:
        """Every concrete skeleton: each optional slot kept or dropped."""
        options = (("", "C") if s == "(C)" else (s,) for s in self.slots)
        return {"".join(parts) for parts in itertools.product(*options)}


def _slots(spec: str) -> tuple[Slot, ...]:
    return tuple(spec.split())


# The seven schematic formulas. The monosyllabic superscript coda is read as
# "up to two coda consonants"; both disyllabic type-2 alternatives compile.
TEMPLATES = (
    SyllableTemplate("mono-1", _slots("(C) (C) V (C) (C)")),
    SyllableTemplate("di-1", _slots("V (C) (C) (C) V (C)")),
    SyllableTemplate("di-2a", _slots("(C) C V (C) (C) C V (C) (C)")),
    SyllableTemplate("di-2b", _slots("(C) C V (C) (C) V (C) (C)")),
    SyllableTemplate("tri-1", _slots("V (C) (C) C V (C) (C) C V (C)")),
    SyllableTemplate("tri-2", _slots("(C) C V (C) (C) V (C) (C) (C) V (C)")),
    SyllableTemplate("tetra-1", _slots("(C) V (C) C V C V (C) C V (C)")),
)

_COMPILED = tuple((t.identifier, t.syllable_count, re.compile(t.regex())) for t in TEMPLATES)

MAX_SYLLABLES = 4


@dataclass(frozen=True)
class SyllableAnalysis:
    matches: tuple[tuple[str, int], ...]

    @property
    def accepted(self) -> bool:
        return bool(self.matches)


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


def to_skeleton(phonemes: Sequence[str]) -> str:
    """Map a phoneme sequence to its CV skeleton, preserving order."""
    if not phonemes:
        raise ValueError("empty phoneme sequence")
    out = []
    for i, p in enumerate(phonemes):
        if p in VOWELS:
            out.append("V")
        elif p in CONSONANTS:
            out.append("C")
        else:
            raise ValueError(f"unknown phoneme {p!r} at position {i}")
    return "".join(out)


def classify(skeleton: str) -> SyllableAnalysis:
    """Match a skeleton against the compiled templates. Rejection is a
    value: an unaccepted skeleton gets an empty match list, not an error."""
    _check_skeleton(skeleton)
    if _globally_rejected(skeleton):
        return SyllableAnalysis(())
    matches = tuple(
        (identifier, count)
        for identifier, count, pattern in _COMPILED
        if pattern.fullmatch(skeleton)
    )
    return SyllableAnalysis(matches)


def analyze_word(phonemes: Sequence[str]) -> SyllableAnalysis:
    return classify(to_skeleton(phonemes))


def enumerate_accepted(max_len: int) -> list[str]:
    """Oracle route: every template expansion up to max_len that no global
    rule rejects, sorted."""
    if not 1 <= max_len <= 16:
        raise ValueError(f"max_len must be in 1..16: {max_len}")
    return sorted({
        skeleton
        for template in TEMPLATES
        for skeleton in template.expansions()
        if len(skeleton) <= max_len and not _globally_rejected(skeleton)
    })


# Every skeleton a template can produce that `classify` accepts: all but the
# globally rejected "V" and "VV". `draw_word` only produces template
# expansions, so this set is its whole acceptance rule.
_ACCEPTED = frozenset(
    skeleton
    for template in TEMPLATES
    for skeleton in template.expansions()
    if classify(skeleton).accepted
)


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
# The phoneme classes as tables, built once for every `draw_word`.
_VOWEL_TABLE, _CONSONANT_TABLE = _table(VOWELS), _table(CONSONANTS)


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
    word's skeleton, built as its slots are filled, is in `_ACCEPTED`. A
    skeleton drawn from a template has that template's number of V slots,
    so every template `classify` matches it with has the requested count:
    being accepted at all is the whole test.
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
        if skeleton in _ACCEPTED:
            return parts


def draw_word(rng: random.Random, syllable_count: int) -> tuple[str, ...]:
    """Sample a word of the requested syllable count from a live rng.

    A template of that count is drawn, then one phoneme per slot, each
    optional slot filled with probability 1/2. Drawing repeats until the
    result passes classification, since a template instance can still hit a
    global rule (a lone V, two bare vowels). The word's skeleton is built
    while its slots are filled (VOWELS and CONSONANTS are disjoint, so it
    equals `to_skeleton(word)`) and accepted by one lookup in `_ACCEPTED`,
    the expansions `classify` accepted once, at import. Every uniform draw is
    one `getrandbits` into a table (see `_draw_parts`): the template tables
    and the two phoneme tables are built once, at import. It returns and
    consumes exactly what `rng.choice` over the templates, VOWELS and
    CONSONANTS would.
    """
    if not 1 <= syllable_count <= MAX_SYLLABLES:
        raise ValueError(f"syllable_count must be in 1..{MAX_SYLLABLES}: {syllable_count}")
    return tuple(_draw_parts(rng, syllable_count, _VOWEL_TABLE, _CONSONANT_TABLE))


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
