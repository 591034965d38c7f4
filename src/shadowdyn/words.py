"""Substitution languages: factor sets of the fixed point of a primitive
substitution, with the screens other modules need (aperiodicity via factor
complexity, minimality via uniform recurrence at tested depths).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


class SubstitutionLanguage:
    """Factors of the one-sided fixed point of a substitution.

    The rules must be prolongable on the symbol 0 (rules[0] starts with
    0), which makes the iteration from 0 converge to a fixed point.
    """

    def __init__(self, rules: dict):
        self.rules = {a: tuple(img) for a, img in rules.items()}
        if not self.rules[0] or self.rules[0][0] != 0:
            raise ValueError("substitution must be prolongable on 0")
        self._prefix: tuple = (0,)
        self._factor_cache: dict[int, frozenset] = {}

    @classmethod
    def fibonacci(cls) -> "SubstitutionLanguage":
        """0 -> 01, 1 -> 0."""
        return cls({0: (0, 1), 1: (0,)})

    def substitute(self, word: Sequence[int]) -> tuple:
        out: list[int] = []
        for s in word:
            out.extend(self.rules[s])
        return tuple(out)

    def prefix(self, length: int) -> tuple:
        while len(self._prefix) < length:
            self._prefix = self.substitute(self._prefix)
        return self._prefix[:length]

    def factors(self, length: int) -> frozenset:
        """All length-``length`` factors (stable under prefix growth)."""
        if length == 0:
            return frozenset({()})
        cached = self._factor_cache.get(length)
        if cached is not None:
            return cached
        span = max(64, 16 * length)
        found = self._scan(length, span)
        while True:
            span *= 2
            again = self._scan(length, span)
            if again == found:
                break
            found = again
        self._factor_cache[length] = found
        return found

    def _scan(self, length: int, span: int) -> frozenset:
        text = self.prefix(span)
        return frozenset(text[i:i + length] for i in range(len(text) - length + 1))

    def complexity(self, length: int) -> int:
        return len(self.factors(length))


@dataclass
class MinimalityScreen:
    lengths: tuple
    recurrence_windows: dict      # factor length -> R with every R-factor containing all
    aperiodic: bool
    passed: bool


def screen_minimality(lang: SubstitutionLanguage) -> MinimalityScreen:
    """Uniform recurrence at the tested depths 1, 2, 3 and 5: for each
    tested factor length, some window size R <= 4096 makes every length-R
    factor contain every factor of the tested length.  Aperiodicity is the
    complexity bound p(len) >= len + 1 at the tested depths."""
    lengths = (1, 2, 3, 5)
    windows = {}
    ok = True
    for ell in lengths:
        needed = lang.factors(ell)
        r = 2 * ell
        found = None
        while r <= 4096:
            if all(_contains_all(u, needed, ell) for u in lang.factors(r)):
                found = r
                break
            r *= 2
        if found is None:
            ok = False
            break
        windows[ell] = found
    aperiodic = all(lang.complexity(ell) >= ell + 1 for ell in lengths)
    return MinimalityScreen(lengths, windows, aperiodic, ok and aperiodic)


def _contains_all(window: tuple, needed: frozenset, ell: int) -> bool:
    present = {window[i:i + ell] for i in range(len(window) - ell + 1)}
    return needed <= present
