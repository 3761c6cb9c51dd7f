"""How the axiom profile of the confidence conditional moves with the threshold.

For a fixed 11-world space with one heavy world per index, sweep the
acceptance threshold and check every axiom at each step: P1-P5 and MP
exactly over all sets, NORM on the pinned witness or the interval
family.  NORM fails at every threshold below 1; at 1, where the
conditional asks for certainty, the interval family shows no failure.
P2 fails once the threshold passes the self mass 9/10, and P1, P5 and MP
fail at the lowest thresholds.

    python3 scripts/threshold_sweep.py [--worlds K] [--seed S]
"""

import argparse
import sys
from fractions import Fraction

from condlat.ops import Axiom
from condlat.probabilistic import confidence_space, verify_axioms

AXES = (Axiom.P1, Axiom.P2, Axiom.P3, Axiom.P4, Axiom.P5, Axiom.MP, Axiom.NORM)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--worlds", type=int, default=11)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    steps = [Fraction(k, 20) for k in range(1, 20)] + [Fraction(9, 10), Fraction(1)]
    print("threshold  " + "  ".join(ax.value.ljust(4) for ax in AXES))
    for t in sorted(set(steps)):
        space = confidence_space(world_count=args.worlds, threshold=t)
        rep = verify_axioms(space, seed=args.seed)
        cells = "  ".join(
            ("ok" if rep[ax].holds else "FAIL").ljust(4) for ax in AXES
        )
        print(f"{str(t).ljust(9)}  {cells}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
