"""The :class:`Lexicon` container: a graph of synsets with term lookup.

This is the substrate that Algorithm 1 (dictionary sequencing), the
specificity computation and the semantic-distance metric all operate on.  It
plays the role of the WordNet noun database in the paper.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.lexicon.synset import RelationType, Synset

__all__ = ["Lexicon"]


class Lexicon:
    """A collection of synsets with bidirectional relation maintenance.

    The container guarantees two invariants that the algorithms rely on:

    * every relation edge has its inverse recorded on the target synset
      (hypernym <-> hyponym, meronym <-> holonym, symmetric relations on both
      endpoints), and
    * the term index maps every lemma to the full set of synsets it belongs
      to, so polysemous terms are handled exactly as in WordNet.
    """

    def __init__(self) -> None:
        self._synsets: dict[str, Synset] = {}
        self._term_index: dict[str, list[str]] = {}

    # -- construction --------------------------------------------------------
    def add_synset(self, synset: Synset) -> Synset:
        """Add a synset (and index its terms).  Duplicate ids are rejected."""
        if synset.synset_id in self._synsets:
            raise ValueError(f"duplicate synset id {synset.synset_id!r}")
        self._synsets[synset.synset_id] = synset
        for term in synset.terms:
            self._index_term(term, synset.synset_id)
        return synset

    def create_synset(self, synset_id: str, terms: Iterable[str], gloss: str = "") -> Synset:
        """Create, add and return a new synset."""
        return self.add_synset(Synset(synset_id=synset_id, terms=list(terms), gloss=gloss))

    def add_term_to_synset(self, synset_id: str, term: str) -> None:
        """Attach an additional lemma to an existing synset."""
        synset = self.synset(synset_id)
        synset.add_term(term)
        self._index_term(term, synset_id)

    def add_relation(self, source_id: str, relation: RelationType, target_id: str) -> None:
        """Add ``source --relation--> target`` and the inverse edge on the target."""
        source = self.synset(source_id)
        target = self.synset(target_id)
        source.add_relation(relation, target_id)
        target.add_relation(relation.inverse, source_id)

    def _index_term(self, term: str, synset_id: str) -> None:
        entries = self._term_index.setdefault(term, [])
        if synset_id not in entries:
            entries.append(synset_id)

    # -- lookup ----------------------------------------------------------------
    def synset(self, synset_id: str) -> Synset:
        """Return the synset with the given id, raising ``KeyError`` when absent."""
        try:
            return self._synsets[synset_id]
        except KeyError:
            raise KeyError(f"unknown synset id {synset_id!r}") from None

    def synsets_of_term(self, term: str) -> tuple[Synset, ...]:
        """All synsets (senses) a term belongs to; empty tuple for unknown terms."""
        return tuple(self._synsets[sid] for sid in self._term_index.get(term, ()))

    def has_term(self, term: str) -> bool:
        return term in self._term_index

    @property
    def terms(self) -> tuple[str, ...]:
        """All distinct terms, in first-indexed order (the dictionary ``T``)."""
        return tuple(self._term_index)

    @property
    def synsets(self) -> tuple[Synset, ...]:
        """All synsets, in insertion order."""
        return tuple(self._synsets.values())

    @property
    def num_terms(self) -> int:
        return len(self._term_index)

    @property
    def num_synsets(self) -> int:
        return len(self._synsets)

    def __len__(self) -> int:
        return self.num_terms

    def __iter__(self) -> Iterator[Synset]:
        return iter(self._synsets.values())

    def __contains__(self, term: str) -> bool:
        return term in self._term_index

    # -- graph views -------------------------------------------------------------
    def roots(self) -> tuple[Synset, ...]:
        """Synsets with no hypernyms -- the tops of the generalisation hierarchy."""
        return tuple(s for s in self._synsets.values() if not s.hypernyms)

    def neighbours(self, synset_id: str) -> tuple[tuple[RelationType, str], ...]:
        """All outgoing edges of a synset as ``(relation, target_id)`` pairs."""
        return tuple(self.synset(synset_id).all_related())

    def restricted_to_terms(self, allowed_terms: Iterable[str]) -> "Lexicon":
        """A new lexicon whose synsets only keep terms from ``allowed_terms``.

        Used when intersecting the corpus dictionary with the lexicon (Section
        5.2: "This dictionary is intersected with the WordNet database").
        Synsets left with no terms are kept as bare relation nodes so that
        paths through them remain available for the distance metric, but they
        no longer contribute searchable terms.
        """
        allowed = set(allowed_terms)
        restricted = Lexicon()
        for synset in self._synsets.values():
            kept = [t for t in synset.terms if t in allowed]
            restricted.add_synset(
                Synset(synset_id=synset.synset_id, terms=kept, gloss=synset.gloss)
            )
        for synset in self._synsets.values():
            for relation, target in synset.all_related():
                # add_relation also records the inverse; adding both directions
                # is harmless because edges are idempotent.
                restricted.synset(synset.synset_id).add_relation(relation, target)
        return restricted

    # -- validation ----------------------------------------------------------------
    def validate(self) -> list[str]:
        """Return a list of consistency problems (empty when the lexicon is sound).

        Checks that every relation target exists and that inverse edges are
        present.  The synthetic builder and the I/O loader both call this in
        their tests.
        """
        problems: list[str] = []
        for synset in self._synsets.values():
            for relation, target_id in synset.all_related():
                if target_id not in self._synsets:
                    problems.append(
                        f"{synset.synset_id} --{relation.value}--> {target_id}: target missing"
                    )
                    continue
                target = self._synsets[target_id]
                if synset.synset_id not in target.related(relation.inverse):
                    problems.append(
                        f"{synset.synset_id} --{relation.value}--> {target_id}: inverse edge missing"
                    )
        for term, synset_ids in self._term_index.items():
            for sid in synset_ids:
                if term not in self._synsets[sid].terms:
                    problems.append(f"term index claims {term!r} in {sid} but synset disagrees")
        return problems
