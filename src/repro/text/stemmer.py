"""A complete implementation of the Porter stemming algorithm.

Porter, M.F., "An algorithm for suffix stripping", Program 14(3), 1980.
The implementation follows the original five-step definition, including
the measure ``m`` (VC-pattern count) and the *v*, *d*, *o* conditions.
Used by the vocabulary statistics and the subsumption baseline to conflate
inflectional variants ("markets" / "market").
"""

from __future__ import annotations

_VOWELS = "aeiou"


class PorterStemmer:
    """Stateless Porter stemmer; use :func:`stem` for the module-level API."""

    # -- character classification ------------------------------------------

    def _is_consonant(self, word: str, i: int) -> bool:
        char = word[i]
        if char in _VOWELS:
            return False
        if char == "y":
            return i == 0 or not self._is_consonant(word, i - 1)
        return True

    def _m(self, stem_part: str) -> int:
        """Count of VC sequences in ``stem_part``."""
        count = 0
        prev_vowel = False
        for i in range(len(stem_part)):
            vowel = not self._is_consonant(stem_part, i)
            if prev_vowel and not vowel:
                count += 1
            prev_vowel = vowel
        return count

    def _contains_vowel(self, stem_part: str) -> bool:
        return any(not self._is_consonant(stem_part, i) for i in range(len(stem_part)))

    def _ends_double_consonant(self, word: str) -> bool:
        return (
            len(word) >= 2
            and word[-1] == word[-2]
            and self._is_consonant(word, len(word) - 1)
        )

    def _ends_cvc(self, word: str) -> bool:
        if len(word) < 3:
            return False
        if not self._is_consonant(word, len(word) - 3):
            return False
        if self._is_consonant(word, len(word) - 2):
            return False
        if not self._is_consonant(word, len(word) - 1):
            return False
        return word[-1] not in "wxy"

    # -- the five steps ------------------------------------------------------

    def _step1a(self, word: str) -> str:
        if word.endswith("sses"):
            return word[:-2]
        if word.endswith("ies"):
            return word[:-2]
        if word.endswith("ss"):
            return word
        if word.endswith("s"):
            return word[:-1]
        return word

    def _step1b(self, word: str) -> str:
        if word.endswith("eed"):
            stem_part = word[:-3]
            if self._m(stem_part) > 0:
                return word[:-1]
            return word
        flag = False
        if word.endswith("ed") and self._contains_vowel(word[:-2]):
            word = word[:-2]
            flag = True
        elif word.endswith("ing") and self._contains_vowel(word[:-3]):
            word = word[:-3]
            flag = True
        if flag:
            if word.endswith(("at", "bl", "iz")):
                return word + "e"
            if self._ends_double_consonant(word) and not word.endswith(("l", "s", "z")):
                return word[:-1]
            if self._m(word) == 1 and self._ends_cvc(word):
                return word + "e"
        return word

    def _step1c(self, word: str) -> str:
        if word.endswith("y") and self._contains_vowel(word[:-1]):
            return word[:-1] + "i"
        return word

    _STEP2_RULES = (
        ("ational", "ate"), ("tional", "tion"), ("enci", "ence"),
        ("anci", "ance"), ("izer", "ize"), ("abli", "able"),
        ("alli", "al"), ("entli", "ent"), ("eli", "e"), ("ousli", "ous"),
        ("ization", "ize"), ("ation", "ate"), ("ator", "ate"),
        ("alism", "al"), ("iveness", "ive"), ("fulness", "ful"),
        ("ousness", "ous"), ("aliti", "al"), ("iviti", "ive"),
        ("biliti", "ble"),
    )

    _STEP3_RULES = (
        ("icate", "ic"), ("ative", ""), ("alize", "al"), ("iciti", "ic"),
        ("ical", "ic"), ("ful", ""), ("ness", ""),
    )

    _STEP4_SUFFIXES = (
        "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
        "ment", "ent", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
    )

    def _apply_rules(self, word: str, rules: tuple[tuple[str, str], ...]) -> str:
        for suffix, replacement in rules:
            if word.endswith(suffix):
                stem_part = word[: len(word) - len(suffix)]
                if self._m(stem_part) > 0:
                    return stem_part + replacement
                return word
        return word

    def _step4(self, word: str) -> str:
        for suffix in self._STEP4_SUFFIXES:
            if word.endswith(suffix):
                stem_part = word[: len(word) - len(suffix)]
                if self._m(stem_part) > 1:
                    return stem_part
                return word
        if word.endswith("ion"):
            stem_part = word[:-3]
            if self._m(stem_part) > 1 and stem_part.endswith(("s", "t")):
                return stem_part
        return word

    def _step5a(self, word: str) -> str:
        if word.endswith("e"):
            stem_part = word[:-1]
            m = self._m(stem_part)
            if m > 1 or (m == 1 and not self._ends_cvc(stem_part)):
                return stem_part
        return word

    def _step5b(self, word: str) -> str:
        if self._m(word) > 1 and self._ends_double_consonant(word) and word.endswith("l"):
            return word[:-1]
        return word

    # -- public API -----------------------------------------------------------

    def stem(self, word: str) -> str:
        """Stem a single lower-case word."""
        word = word.lower()
        if len(word) <= 2:
            return word
        word = self._step1a(word)
        word = self._step1b(word)
        word = self._step1c(word)
        word = self._apply_rules(word, self._STEP2_RULES)
        word = self._apply_rules(word, self._STEP3_RULES)
        word = self._step4(word)
        word = self._step5a(word)
        word = self._step5b(word)
        return word


_DEFAULT = PorterStemmer()


def stem(word: str) -> str:
    """Stem ``word`` with the default :class:`PorterStemmer` instance."""
    return _DEFAULT.stem(word)
