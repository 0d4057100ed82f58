#!/usr/bin/env python3
"""Survey how often random non-cone forms have a vanishing Hessian.

Small-variable sanity experiment: in up to 4 variables every non-cone form
should report a nonzero classical Hessian, while 5-variable structured
families vanish.  Prints counts and the worst-case decision times.

Usage: python scripts/vanishing_survey.py [--trials N] [--seed N]
"""

import argparse
import random
import time

from lefschetz_lab.analysis import Analysis
from lefschetz_lab.hessian import is_cone
from lefschetz_lab.reproduce import _random_form


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--trials", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    rng = random.Random(args.seed)

    cones = vanishing = nonvanishing = 0
    worst_ms = 0.0
    for _ in range(args.trials):
        f = _random_form(rng, rng.randint(2, 4), rng.randint(3, 5))
        an = Analysis(f, "probabilistic", args.seed)
        if is_cone(an).is_cone:
            cones += 1
            continue
        start = time.perf_counter()
        verdict = an.verdict(1)
        worst_ms = max(worst_ms, (time.perf_counter() - start) * 1000)
        if verdict.vanishes:
            vanishing += 1
            print(f"unexpected vanishing non-cone: {f.to_text()}")
        else:
            nonvanishing += 1
    print(
        f"{args.trials} samples: {cones} cones, {nonvanishing} nonvanishing, "
        f"{vanishing} vanishing non-cones (expected 0); worst decision {worst_ms:.1f} ms"
    )


if __name__ == "__main__":
    main()
