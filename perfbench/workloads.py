"""The benchmark's workloads and the paths they share.

Every workload runs at ``max_in_flight = 1``: the client and the
completion server already fill two cores, and in-process warm eval gets
slower, not faster, with a second worker thread.
"""

from __future__ import annotations

from dataclasses import dataclass
import os

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC_DIR = os.path.join(ROOT, "src")
MANIFEST = os.path.join(ROOT, "tests", "fixtures", "manifest_replication.jsonl")
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
RECORDED = os.path.join(BENCH_DIR, "recorded.json")

MODEL = "perfbench-scripted"
POOL_FRACTION = 0.2
SOURCE_DATE_EPOCH = "1735689600"


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # eval | rank
    corpus_scale: float  # share of the replication manifest's group counts
    article_words: int
    reference_words: int
    method: str = "qa"
    k_values: tuple[int, ...] = (0,)
    eval_subsample: int | None = None  # instances per domain in the timed eval
    rank_subsample: int | None = None  # instances per domain ranked

    def config(self, seed: int) -> dict:
        """The qasum config file the workload runs with."""
        return {
            "lm": {"model": MODEL, "backend": "http", "max_in_flight": 1, "timeout": 30},
            "method": self.method,
            "k_values": list(self.k_values),
            "scope": "domain_specific",
            "icl_examples": 1,
            "pool_fraction": POOL_FRACTION,
            "seed": seed,
            "eval_subsample": self.eval_subsample,
            "rank_subsample": self.rank_subsample,
        }


WORKLOADS = {
    w.name: w
    for w in (
        # The paper's main loop on rerun: 7,200 instances, warm cache, qa
        # k = 0..5 with one ICL example. Stresses corpus indexing, cache
        # reads, prompt building and scoring. 50 instances per domain give
        # enough rows for per-row work to outweigh loading the whole corpus,
        # and few enough for three repetitions in a run.
        Workload("eval-warm-paper", "eval", 1.0, 400, 60, method="qa",
                 k_values=(0, 1, 2, 3, 4, 5), eval_subsample=50, rank_subsample=5),
        # Long summaries, vanilla, warm, 720 instances: scoring (LCS) is
        # most of the run; no ICL sampling, two by_id calls per run.
        Workload("eval-long-vanilla", "eval", 0.1, 1500, 250, method="vanilla"),
        # Cold rank over HTTP: the only workload that writes the cache and
        # crosses a socket. No LCS, no ICL.
        Workload("rank-http-cold", "rank", 0.1, 400, 60, rank_subsample=12),
    )
}
