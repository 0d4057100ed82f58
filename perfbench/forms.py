"""Seeded writer of the dense random forms of the ``generic`` workload.

    python3 perfbench/forms.py --src SRC --seed S --out DIR 5,8,40 4,10,40 ...

Each ``NVARS,DEGREE,TERMS`` shape gives one form in ``x0 .. x{n-1}``: every
pure power ``xi^DEGREE`` plus distinct random monomials of that degree up to
TERMS terms, with random nonzero coefficients in -9..9.  The pure powers make
every variable appear.  The same seed and shape always give the same form.
The form is parsed by the package before it is written, so the set-up pays
the same interpreter start and import that a ``generate`` call pays, and it
is written as an instance file that ``analyze --in`` reads.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import sys


def shape_name(nvars: int, degree: int, terms: int) -> str:
    return f"n{nvars}-d{degree}-t{terms}"


def random_form_text(nvars: int, degree: int, terms: int, seed: int) -> str:
    if terms < nvars:
        raise ValueError(f"{terms} terms cannot hold the {nvars} pure powers")
    name = shape_name(nvars, degree, terms)
    mixed = [
        expo
        for expo in itertools.product(range(degree + 1), repeat=nvars)
        if sum(expo) == degree and max(expo) < degree
    ]
    pure = [tuple(degree if j == i else 0 for j in range(nvars)) for i in range(nvars)]
    support_rng = random.Random(f"perfbench-generic-support:{name}")
    chosen = pure + sorted(support_rng.sample(mixed, terms - nvars), reverse=True)
    rng = random.Random(f"perfbench-generic:{seed}:{name}")
    chunks = []
    for expo in chosen:
        coeff = rng.choice([c for c in range(-9, 10) if c])
        factors = [f"x{i}^{e}" if e > 1 else f"x{i}" for i, e in enumerate(expo) if e]
        chunks.append(f"{coeff}*" + "*".join(factors))
    return " + ".join(chunks).replace("+ -", "- ")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="directory holding the lefschetz_lab package")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory for the instance files")
    parser.add_argument("shapes", nargs="+", help="NVARS,DEGREE,TERMS")
    args = parser.parse_args()

    sys.path.insert(0, args.src)
    from lefschetz_lab.polycore import VariableSet, parse_poly

    os.makedirs(args.out, exist_ok=True)
    for shape in args.shapes:
        nvars, degree, terms = (int(x) for x in shape.split(","))
        names = tuple(f"x{i}" for i in range(nvars))
        f = parse_poly(random_form_text(nvars, degree, terms, args.seed), VariableSet(names))
        if f.degree != degree or f.num_terms() != terms:
            raise SystemExit(f"form {shape} came out with degree {f.degree}, {f.num_terms()} terms")
        path = os.path.join(args.out, shape_name(nvars, degree, terms) + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"vars": list(names), "split": None, "poly": f.to_text()}, fh, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
