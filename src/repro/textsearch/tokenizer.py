"""Tokenisation and stopword removal.

The paper's experimental pipeline loads the WSJ corpus into Lucene, which
"parses the documents, performs stopword removal but not stemming".  We mirror
that: lower-casing, splitting on non-alphanumeric characters, dropping a small
English stopword list and very short tokens.  No stemming is applied.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from typing import Iterable

__all__ = ["Tokenizer", "DEFAULT_STOPWORDS"]

#: The classic Lucene/Smart English stopword list (the words the paper calls
#: "common words like 'the' and 'a' that are not useful for differentiating
#: between documents").
DEFAULT_STOPWORDS: frozenset[str] = frozenset(
    """
    a an and are as at be but by for if in into is it no not of on or such
    that the their then there these they this to was will with
    """.split()
)

_TOKEN_PATTERN = re.compile(r"[a-z0-9]+(?:'[a-z0-9]+)?")
#: A phrase: a whitespace-delimited chunk holding an underscore (captured, for ``split``).
_PHRASE_PATTERN = re.compile(r"(?<!\S)([^\s_]*_\S*)")


@dataclass
class Tokenizer:
    """Configurable tokenizer: lower-case, split, drop stopwords and short tokens.

    Parameters
    ----------
    stopwords:
        Words removed from the token stream.  Defaults to
        :data:`DEFAULT_STOPWORDS`.
    min_token_length:
        Tokens shorter than this are dropped (single letters carry almost no
        retrieval signal).
    keep_phrases:
        When True, multi-word dictionary entries joined with underscores
        (``abu_sayyaf``) are preserved as single tokens; the synthetic corpus
        generator emits them in that form.
    """

    stopwords: frozenset[str] = DEFAULT_STOPWORDS
    min_token_length: int = 2
    keep_phrases: bool = True

    def tokenize(self, text: str) -> list[str]:
        """Split ``text`` into searchable tokens, in document order: one
        ``findall`` for the text between two phrases (or all of it)."""
        lowered = text.lower()
        if not self.keep_phrases or "_" not in lowered:
            return self._split_plain(lowered)
        pieces = _PHRASE_PATTERN.split(lowered)
        tokens = self._split_plain(pieces[0])
        for phrase, plain in zip(pieces[1::2], pieces[2::2]):
            cleaned = phrase.strip("_,.;:!?()[]\"'")
            if cleaned and cleaned not in self.stopwords:
                tokens.append(cleaned.replace("_", " "))
            tokens += self._split_plain(plain)
        return tokens

    def _split_plain(self, text: str) -> list[str]:
        minimum, stopwords = self.min_token_length, self.stopwords
        return [t for t in _TOKEN_PATTERN.findall(text) if len(t) >= minimum and t not in stopwords]

    def term_frequencies(self, text: str) -> dict[str, int]:
        """Token counts for a document (``f_{d,t}`` in the scoring formulas)."""
        return dict(Counter(self.tokenize(text)))

    def vocabulary(self, texts: Iterable[str]) -> set[str]:
        """The set of distinct tokens appearing in any of ``texts``."""
        vocab: set[str] = set()
        for text in texts:
            vocab.update(self.tokenize(text))
        return vocab
