"""Similarity text retrieval substrate (Appendix B of the paper).

The private retrieval scheme sits on top of an ordinary similarity search
engine with an impact-ordered inverted index.  This subpackage implements
that engine from scratch:

* :mod:`repro.textsearch.tokenizer` -- tokenisation and stopword removal
  (no stemming, matching the paper's Lucene configuration).
* :mod:`repro.textsearch.corpus` -- document and corpus containers.
* :mod:`repro.textsearch.synthetic` -- a WSJ-scale synthetic corpus generator
  over a lexicon vocabulary (topic mixtures, Zipfian term frequencies).
* :mod:`repro.textsearch.scoring` -- the Equation-3 cosine weighting scheme
  and Okapi BM25.
* :mod:`repro.textsearch.segments` -- the segmented columnar storage engine:
  immutable index segments, the tiered LSM merge policy, the pure
  merge kernel and the on-disk directory format.
* :mod:`repro.textsearch.inverted_index` -- the impact-ordered inverted index
  of Figure 9 on top of the segment store, with impact discretisation, a
  block-layout model, incremental updates and save/load persistence; its
  segment layout reads through a few counters (``num_segments``,
  ``num_tombstones``, ``update_epoch``...).
* :mod:`repro.textsearch.engine` -- query evaluation (Figure 10) and the
  Boolean model baseline.
* :mod:`repro.textsearch.evaluation` -- precision/recall and rank-agreement
  metrics used to verify Claim 1.
"""

from repro.textsearch.corpus import Corpus, Document
from repro.textsearch.engine import BooleanSearchEngine, SearchEngine, SearchResult
from repro.textsearch.inverted_index import InvertedIndex, Posting
from repro.textsearch.scoring import BM25Scorer, CosineScorer
from repro.textsearch.segments import CorruptIndexError, IndexSegment, TieredMergePolicy
from repro.textsearch.synthetic import SyntheticCorpusGenerator
from repro.textsearch.tokenizer import Tokenizer, DEFAULT_STOPWORDS

__all__ = [
    "Document",
    "Corpus",
    "Tokenizer",
    "DEFAULT_STOPWORDS",
    "SyntheticCorpusGenerator",
    "CosineScorer",
    "BM25Scorer",
    "InvertedIndex",
    "Posting",
    "CorruptIndexError",
    "IndexSegment",
    "TieredMergePolicy",
    "SearchEngine",
    "BooleanSearchEngine",
    "SearchResult",
]
