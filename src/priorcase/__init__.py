"""Lexical prior-case retrieval and evaluation toolkit.

Pipeline: normalize text (`textproc`), build an inverted index (`index`),
rank documents under TF-IDF cosine / BM25 variants / fused and derived
scorers (`rankers`), and evaluate rankings against relevance judgments
(`evaluation`).  The `priorcase` command wires the pieces together.
"""

from .embeddings import EmbeddingStore, aggregate_chunk_similarity, load_embeddings
from .evaluation import (
    EvalReport,
    evaluate_run,
    f1_at_k,
    load_qrels,
    load_run,
    precision_at_k,
    recall_at_k,
    reciprocal_rank,
    write_run,
)
from .index import (
    CorpusIndex,
    DuplicateDocIdError,
    IndexFormatError,
    IndexVersionError,
    PipelineMismatchError,
    build_index,
    load_index,
    persist_index,
    read_corpus_dir,
    read_queries_file,
)
from .porter import porter_stem
from .rake import rake_extract
from .rankers import (
    BM25Params,
    Ranking,
    SCORER_NAMES,
    Searcher,
    Variant,
    bm25_term_score,
    build_rake_vocabulary,
    fuse_product,
    okapi_mean_idf,
    rank_documents,
)
from .stopwords import ENGLISH_STOPWORDS, load_stopword_file
from .textproc import (
    PRESET_FULL,
    PRESET_NONE,
    PRESET_STANDARD,
    PRESETS,
    PipelineConfig,
    pipeline_fingerprint,
    tokenize_corpus,
    tokenize_normalize,
)

__version__ = "0.1.0"
