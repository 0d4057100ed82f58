#!/usr/bin/env python3
"""Generate one instance of every family and print a one-line summary each.

Usage: python scripts/family_gallery.py [--seed N]
"""

import argparse

from lefschetz_lab.apolar import is_unimodal
from lefschetz_lab.families import (
    gen_exceptional,
    gen_gn,
    gen_gnp,
    gen_ikeda,
    gen_perazzo,
    gen_permutti,
    gen_prop44,
    gen_thmwlp,
    gen_wlpodd,
)
from lefschetz_lab.hessian import hess_profile


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    gallery = [
        gen_ikeda(seed=args.seed),
        gen_exceptional(3, 5, 2, seed=args.seed),
        gen_exceptional(3, 7, 3, seed=args.seed),
        gen_gnp(2, 2, 1, 2, seed=args.seed),
        gen_gnp(2, 2, 2, 3, seed=args.seed),
        gen_gnp(2, None, 1, 3, "maximal", seed=args.seed),
        gen_perazzo(2, 2, 3, seed=args.seed),
        gen_permutti(2, 2, 3, 4, seed=args.seed),
        gen_gn(2, 3, 1, 2, 4, seed=args.seed),
        gen_wlpodd(4, 5, seed=args.seed),
        gen_thmwlp(5, 4, seed=args.seed),
        gen_prop44("i", seed=args.seed),
    ]
    for inst in gallery:
        an = inst.analysis  # the probabilistic Analysis that verified it
        hv = an.hilbert()
        profile = "".join("0" if v.vanishes else "+" for v in hess_profile(an))
        label = f"{inst.spec.kind}{inst.spec.params}"
        print(
            f"{label:55s} hilb={hv.dims} unimodal={is_unimodal(hv)} "
            f"hessians[0..{len(profile) - 1}]={profile}"
        )
        print(f"{'':4s}{inst.f.to_text()}")


if __name__ == "__main__":
    main()
