"""Helpers that only the tests use."""

import os
import random

from nagatag.phonotactics import DEFAULT_INVENTORY, PhonemeInventory, draw_word


def generate_word(
    rng_seed: int,
    syllable_count: int,
    inv: PhonemeInventory = DEFAULT_INVENTORY,
) -> tuple[str, ...]:
    """Seeded wrapper around draw_word: same seed, same word."""
    return draw_word(random.Random(rng_seed), syllable_count, inv)


def recover_tag(word: str, suffix_rule: dict[str, str]) -> str:
    """Tag by the longest marker that suffixes the word."""
    best = None
    for marker, tag in suffix_rule.items():
        if word.endswith(marker) and (best is None or len(marker) > len(best[0])):
            best = (marker, tag)
    if best is None:
        raise ValueError(f"no suffix marker matches {word!r}")
    return best[1]


def refuse_to_replace(monkeypatch, path: str):
    """Make os.replace onto path raise, so that a write that would put a
    regular file in place of a device such as /dev/null fails the test
    instead of replacing the device."""
    replace = os.replace

    def guarded(src, dst, **kwargs):
        if os.path.realpath(dst) == os.path.realpath(path):
            raise AssertionError(f"os.replace onto {path}")
        return replace(src, dst, **kwargs)

    monkeypatch.setattr(os, "replace", guarded)
