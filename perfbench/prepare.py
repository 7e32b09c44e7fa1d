"""Set up one workload in a fresh directory, as a user's first run would.

Usage: python3 perfbench/prepare.py --workload NAME --seed N --dir DIR

Generates the corpus and the qasum config. For an eval workload it then
builds the ranking file (qa only) and primes the on-disk cache with a
cold run against the in-process scripted source; for the rank workload it
ranks in process once, as the reference the HTTP runs must reproduce.
Prints one JSON object: the SHA-256 digest of each output file, and the
median speed of the CPU-speed probe (probe.py) over the set-up.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

from workloads import MANIFEST, SRC_DIR, WORKLOADS

sys.path.insert(0, SRC_DIR)

from qasum.harness import config_from_file, run_eval, run_rank  # noqa: E402
from probe import SpeedProbe  # noqa: E402
from synth import ScriptedSource, generate_corpus, read_groups, write_corpus  # noqa: E402

EVAL_OUTPUTS = ("per_instance.csv", "aggregate_method_k.csv", "aggregate_domain_k.csv")


def digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def prepare(workload, seed: int, root: str) -> dict[str, str]:
    os.makedirs(root)
    corpus = os.path.join(root, "corpus.jsonl")
    groups = read_groups(MANIFEST, workload.corpus_scale)
    write_corpus(
        generate_corpus(groups, seed, workload.article_words, workload.reference_words), corpus
    )
    doc = workload.config(seed)
    doc["corpus"] = corpus
    ranking = os.path.join(root, "ranking.json")
    if workload.kind == "eval":
        doc["cache_dir"] = os.path.join(root, "cache")
        if workload.method == "qa":
            doc["ranking"] = ranking
    config = os.path.join(root, "config.json")
    with open(config, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)

    cfg = config_from_file(config)
    source = ScriptedSource()
    outputs = []
    if workload.kind == "rank" or workload.method == "qa":
        run_rank(cfg, ranking, backend=source)
        outputs.append(ranking)
    if workload.kind == "eval":
        prime = os.path.join(root, "prime")
        run_eval(cfg, prime, backend=source)
        outputs.extend(os.path.join(prime, name) for name in EVAL_OUTPUTS)
    return {os.path.basename(path): digest(path) for path in outputs}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    args = parser.parse_args()
    probe = SpeedProbe()
    probe.start()
    try:
        digests = prepare(WORKLOADS[args.workload], args.seed, args.dir)
    finally:
        probe.stop()
    print(json.dumps({"digests": digests, "probe_hz": probe.take()}, sort_keys=True))


if __name__ == "__main__":
    main()
