#!/usr/bin/env python3
"""Regenerate reference.json, the outputs each benchmark run compares against.

Run from the repository root:  python3 bench/make_reference.py

At full sizes it records whether the adjusted metric wins on each study seed
0..19 of binary-study, and the digest of every output of the other workloads
on seeds 0..9.  A change that alters outputs on purpose regenerates the file
and says so; the benchmark reports differences but never counts them as
failures.
"""

import json
import os
import sys

import run

DIGEST_SEEDS = range(10)


def main() -> int:
    run.prepare()
    from workloads import FULL, WORKLOADS

    reference = {"binary-study": {"wins": []}}
    for seed in range(FULL.study_seeds):
        result = run.run("binary-study", seed, 0, trace=False)
        reference["binary-study"]["wins"].append(result["details"]["wins"][str(seed)])
    for name in WORKLOADS:
        if name == "binary-study":
            continue
        digests = {}
        for seed in DIGEST_SEEDS:
            result = run.run(name, seed, 0, trace=False)
            if not result["correct"]:
                print(f"{name} seed {seed} failed: {result['details']['failures']}", file=sys.stderr)
                return 1
            digests[str(seed)] = result["details"]["digests"]
        reference[name] = {"digests": digests}
        print(f"{name}: digests of seeds {DIGEST_SEEDS.start}..{DIGEST_SEEDS.stop - 1}", file=sys.stderr)
    with open(os.path.join(run.BENCH, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    wins = reference["binary-study"]["wins"]
    print(f"binary-study wins {sum(wins)}/{len(wins)}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
