"""Records the search-climb reference table: the best ratio and form hash of
every (config, search seed) pair the workload can draw, at both sizes.

    python3 bench/record_search_reference.py

Run it only at a commit whose search results are trusted; the benchmark
counts every later deviation from this table as a failed op.
"""

import json
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from bhforms import search  # noqa: E402
from workloads import SEARCH_REFERENCE, SearchClimb  # noqa: E402


def main():
    table = {}
    for size in SearchClimb.BUDGET:
        for name, cfg, initial in SearchClimb.configs(size):
            for seed in range(SearchClimb.POOL):
                form, report = search.maximize_ratio(replace(cfg, seed=seed),
                                                     initial=initial)
                table[SearchClimb.reference_key(size, name, seed)] = {
                    "ratio": report.ratio, "form_hash": search.form_hash(form)}
    SEARCH_REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
