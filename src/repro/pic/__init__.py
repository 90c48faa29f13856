"""Partitioned Iterative Convergence — the paper's contribution.

The user-facing API mirrors Figure 4 of the paper: a conventional
MapReduce IC program (``map`` / ``reduce`` / ``converged`` plus model
plumbing), extended with exactly three functions for the best-effort
phase — ``partition``, ``merge``, and ``be_converged`` — each with
library-provided defaults.

Execution (Figure 3's template) is handled by :class:`PICRunner`:

1. **best-effort phase** — partition the problem, solve the sub-problems
   with independent local IC iterations on disjoint node groups (no
   cross-partition traffic), merge the partial models, repeat until
   ``be_converged``;
2. **top-off phase** — refine the merged model with the *unmodified*
   conventional IC computation until ``converged``.
"""

from repro.pic.api import PICProgram
from repro.pic.model import (
    KeyedModel,
    as_model,
    model_to_records,
    records_to_model,
    model_nbytes,
)
from repro.pic.partitioners import (
    random_partition,
    chunk_partition,
    hash_partition,
    replicate_model,
)
from repro.pic.mergers import average_merge, sum_merge, concat_merge
from repro.pic.convergence import max_change_below, fixed_iterations
from repro.pic.engine import BestEffortEngine, BestEffortResult, SubProblem
from repro.pic.runner import PICRunner, PICResult

__all__ = [
    "PICProgram",
    "KeyedModel",
    "as_model",
    "model_to_records",
    "records_to_model",
    "model_nbytes",
    "random_partition",
    "chunk_partition",
    "hash_partition",
    "replicate_model",
    "average_merge",
    "sum_merge",
    "concat_merge",
    "max_change_below",
    "fixed_iterations",
    "BestEffortEngine",
    "BestEffortResult",
    "SubProblem",
    "PICRunner",
    "PICResult",
]
