"""Dictionary sequencing (Algorithm 1 of the paper).

The goal is to order the dictionary so that related terms are clustered near
each other; the bucket-formation step then picks terms that are far apart in
the sequence (hence semantically diverse) for the same bucket, and terms that
are close (hence related) for the same slot of different buckets.

The algorithm processes synsets in decreasing number of relationships -- the
highly connected synsets are semantically rich and act as seeds that pull
their related terms into growing sequences.  For every synset:

* if its terms already appear in several existing sequences, those sequences
  are concatenated;
* if none of its terms has been seen, a new sequence starts;
* otherwise it joins the single sequence that already contains one of its
  terms;

then the unprocessed terms of the synset are appended, and its related synsets
are visited in order of closeness: derivational relations, antonyms, hyponyms,
hypernyms, meronyms and holonyms.  Domain-membership relations are skipped
(the paper judges them too indirect).  On real WordNet the procedure collapses
all nouns into a single sequence because everything generalises to ``entity``;
the synthetic lexicon behaves the same way.
"""

from __future__ import annotations

from typing import Sequence

from repro.lexicon.lexicon import Lexicon
from repro.lexicon.synset import SEQUENCING_RELATION_ORDER, Synset

__all__ = ["sequence_dictionary", "SequenceBuilder"]


class SequenceBuilder:
    """Mutable state for Algorithm 1: the growing term sequences.

    Sequences are stored in a registry keyed by an integer id; a term maps to
    the id of the sequence that currently contains it.  Concatenation keeps
    the longer sequence's id and retires the others, so term lookups stay
    O(1) amortised.
    """

    def __init__(self) -> None:
        self._sequences: dict[int, list[str]] = {}
        self._term_to_sequence: dict[str, int] = {}
        self._redirects: dict[int, int] = {}
        self._next_id = 0
        self.processed_terms: set[str] = set()
        self.processed_synsets: set[str] = set()

    # -- sequence bookkeeping -------------------------------------------------
    def _new_sequence(self) -> int:
        sequence_id = self._next_id
        self._next_id += 1
        self._sequences[sequence_id] = []
        return sequence_id

    def _resolve(self, sequence_id: int) -> int:
        """Follow redirects left behind by concatenations to the live sequence id."""
        while sequence_id in self._redirects:
            sequence_id = self._redirects[sequence_id]
        return sequence_id

    def _append(self, sequence_id: int, term: str) -> None:
        sequence_id = self._resolve(sequence_id)
        self._sequences[sequence_id].append(term)
        self._term_to_sequence[term] = sequence_id

    def _concatenate(self, sequence_ids: list[int]) -> int:
        """Concatenate several sequences, keeping the id of the longest one."""
        sequence_ids = list(dict.fromkeys(self._resolve(sid) for sid in sequence_ids))
        keeper = max(sequence_ids, key=lambda sid: len(self._sequences[sid]))
        for sid in sequence_ids:
            if sid == keeper:
                continue
            for term in self._sequences[sid]:
                self._sequences[keeper].append(term)
                self._term_to_sequence[term] = keeper
            del self._sequences[sid]
            self._redirects[sid] = keeper
        return keeper

    @property
    def sequences(self) -> list[list[str]]:
        """The current sequences, in creation order, non-empty only."""
        return [seq for seq in self._sequences.values() if seq]

    # -- Algorithm 1, ProcessSynset -------------------------------------------
    def process_synset(self, synset: Synset) -> int:
        """Lines 1-11 of Algorithm 1.  Returns the id of the sequence used."""
        containing = [
            self._term_to_sequence[term]
            for term in synset.terms
            if term in self._term_to_sequence
        ]
        distinct = list(dict.fromkeys(containing))
        if len(distinct) > 1:
            sequence_id = self._concatenate(distinct)
        elif len(distinct) == 1:
            sequence_id = distinct[0]
        else:
            sequence_id = self._new_sequence()
        for term in synset.terms:
            if term not in self.processed_terms:
                self._append(sequence_id, term)
                self.processed_terms.add(term)
        self.processed_synsets.add(synset.synset_id)
        return sequence_id


def sequence_dictionary(lexicon: Lexicon) -> list[list[str]]:
    """Run Algorithm 1 (SequenceVocab) over the lexicon.

    Returns the list of term sequences.  Every dictionary term appears in
    exactly one sequence, exactly once.

    The paper's pseudocode expands each seed synset through its related
    synsets "in order of closeness" and states that "the procedure is
    repeated until all the synsets ... have been processed", reporting that on
    WordNet all 117,798 nouns collapse into one long sequence.  We realise
    that expansion as an explicit closeness-ordered depth-first walk from each
    seed (highly connected synsets first), which reproduces both properties:
    related terms end up adjacent in the sequence, and each connected
    component of the relation graph -- the whole noun dictionary, in
    WordNet's case and in the synthetic lexicon's -- yields a single sequence.
    """
    builder = SequenceBuilder()
    # Line 12: order the synsets in decreasing number of relationships.  Ties
    # are broken by synset id so the ordering -- and therefore the bucket
    # organisation built on top of it -- is deterministic.
    ordered = sorted(lexicon.synsets, key=lambda s: (-s.relation_count, s.synset_id))

    for seed in ordered:
        if seed.synset_id in builder.processed_synsets:
            continue
        sequence_id = builder.process_synset(seed)
        # Depth-first expansion through related synsets, closest relations
        # first (lines 18-21).  The stack is seeded in reverse closeness order
        # so that the closest neighbour is popped -- and therefore sequenced --
        # first, keeping derivational relatives and antonyms right next to
        # their seed, then hyponyms, and so on.
        stack = _related_in_reverse_closeness(lexicon, seed)
        while stack:
            synset_id = stack.pop()
            if synset_id in builder.processed_synsets:
                continue
            related = lexicon.synset(synset_id)
            # Line 19: append one of the related synset's terms to the current
            # sequence first, so the related material lands next to the terms
            # that pulled it in; ProcessSynset then adds the rest (and merges
            # sequences if the synset already straddles several).
            for term in related.terms:
                if term not in builder.processed_terms:
                    builder._append(sequence_id, term)
                    builder.processed_terms.add(term)
                    break
            sequence_id = builder.process_synset(related)
            stack.extend(_related_in_reverse_closeness(lexicon, related))
    return builder.sequences


def _related_in_reverse_closeness(lexicon: Lexicon, synset: Synset) -> list[str]:
    """The synset's neighbours ordered so that the *closest* relation is popped first."""
    ordered: list[str] = []
    for relation in reversed(SEQUENCING_RELATION_ORDER):
        ordered.extend(synset.related(relation))
    return ordered


def concatenate_sequences(sequences: Sequence[Sequence[str]]) -> list[str]:
    """Concatenate the Algorithm-1 sequences into the single long sequence Algorithm 2 consumes."""
    concatenated: list[str] = []
    for sequence in sequences:
        concatenated.extend(sequence)
    return concatenated
