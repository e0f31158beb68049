"""The query–harvest–decompose crawler: engine, prober, extractor, DB_local."""

from repro.crawler.abortion import (
    AbortionPolicy,
    CombinedAbort,
    DuplicateFractionAbort,
    NeverAbort,
    PageCapAbort,
    PageProgress,
    TotalCountAbort,
)
from repro.crawler.context import CrawlerContext
from repro.crawler.engine import CrawlerEngine, CrawlResult, normalize_seed, run_crawl
from repro.crawler.extractor import Extraction, ResultExtractor
from repro.crawler.frontier import (
    FifoFrontier,
    Frontier,
    InternedPriorityFrontier,
    LifoFrontier,
    PriorityFrontier,
    RandomFrontier,
)
from repro.crawler.localdb import LocalDatabase
from repro.crawler.metrics import CoveragePoint, CrawlHistory
from repro.crawler.prober import DatabaseProber, QueryOutcome

__all__ = [
    "AbortionPolicy",
    "CombinedAbort",
    "CoveragePoint",
    "CrawlHistory",
    "CrawlResult",
    "CrawlerContext",
    "CrawlerEngine",
    "DatabaseProber",
    "DuplicateFractionAbort",
    "Extraction",
    "FifoFrontier",
    "Frontier",
    "InternedPriorityFrontier",
    "LifoFrontier",
    "LocalDatabase",
    "NeverAbort",
    "PageCapAbort",
    "PageProgress",
    "PriorityFrontier",
    "QueryOutcome",
    "RandomFrontier",
    "ResultExtractor",
    "TotalCountAbort",
    "normalize_seed",
    "run_crawl",
]
