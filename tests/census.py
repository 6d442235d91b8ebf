"""The census of small presentations through the bijection, at sizes
beyond the tier-1 test.

Run ``PYTHONPATH=src python tests/census.py K MAX_ARROWS``: for each
k <= K, every gentle pair and skew-gentle triple that
``oracles.presentation_census`` lists on the vertices 1..k with at most
MAX_ARROWS arrows is rebuilt as a surface and checked by
``oracles.census_round_trip``.  One line per k gives the
numbers of pairs and triples and the seconds taken; a failed round trip
stops the run with the presentation named.
"""
from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from oracles import census_round_trip  # noqa: E402


def main(argv: list[str]) -> int:
    top, max_arrows = int(argv[0]), int(argv[1])
    total = 0
    for k in range(1, top + 1):
        start = time.perf_counter()
        pairs, triples = census_round_trip(k, max_arrows)
        total += pairs + triples
        print(f"k={k}: {pairs} pairs, {triples} triples, {time.perf_counter() - start:.1f} s")
    print(f"{total} presentations, every round trip held")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
