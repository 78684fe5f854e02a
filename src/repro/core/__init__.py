"""Paresy's core: language cache, engines, and the synthesis facade."""

from .engine import (
    OP_CHAR,
    OP_CONCAT,
    OP_EMPTY,
    OP_EPSILON,
    OP_QUESTION,
    OP_STAR,
    OP_UNION,
    STATUS_BUDGET,
    STATUS_CANCELLED,
    STATUS_NOT_FOUND,
    STATUS_OOM,
    STATUS_SUCCESS,
    RunControl,
    SearchEngine,
)
from .hashset import FingerprintHashSet, fingerprint, splitmix64
from .incremental import IncrementalStats, IncrementalSynthesizer
from .result import SynthesisResult
from .scalar_engine import ScalarEngine
from .synthesizer import BACKENDS, make_engine, synthesize
from .vector_engine import VectorEngine

__all__ = [
    "OP_CHAR",
    "OP_CONCAT",
    "OP_EMPTY",
    "OP_EPSILON",
    "OP_QUESTION",
    "OP_STAR",
    "OP_UNION",
    "STATUS_BUDGET",
    "STATUS_CANCELLED",
    "STATUS_NOT_FOUND",
    "STATUS_OOM",
    "STATUS_SUCCESS",
    "RunControl",
    "SearchEngine",
    "FingerprintHashSet",
    "fingerprint",
    "splitmix64",
    "IncrementalStats",
    "IncrementalSynthesizer",
    "SynthesisResult",
    "ScalarEngine",
    "VectorEngine",
    "BACKENDS",
    "make_engine",
    "synthesize",
]
