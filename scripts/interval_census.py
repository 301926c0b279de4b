"""Census of lower Bruhat intervals under maximal coset representatives.

For each n up to the given bound and each cut position k, prints the
interval size from theorem8_counts (the double-Stirling sum, checked
against the alternating sum, which is the poly-Bernoulli number), the value
of the counting recurrence, and the Poincare polynomial from the closed
form.  Everything is exact; a mismatch exits with status 1 at once, naming
n and k.

Run as: python3 scripts/interval_census.py --max-n 8 [--with-brute]
"""

import argparse
import sys

from skewrook.intervals import (
    count_lower_interval_dp,
    max_coset_rep_A,
    theorem8_counts,
    theoremA_poincare,
)
from skewrook.permutations import Permutation, poincare_brute


def check(n: int, k: int, what: str, got, want) -> None:
    if got != want:
        sys.exit(f"mismatch at n = {n}, k = {k}: {what} gave {got}, expected {want}")


def run(max_n: int, with_brute: bool) -> None:
    header = ["n", "k", "representative", "count", "recurrence"]
    if with_brute:
        header.append("brute")
    print("\t".join(header))
    for n in range(2, max_n + 1):
        for k in range(1, n):
            rep = max_coset_rep_A(n, k)
            sym, alt, _ = theorem8_counts(n, k)
            check(n, k, "the alternating sum", alt, sym)
            dp = count_lower_interval_dp(rep)
            check(n, k, "the recurrence", dp, sym)
            poly = theoremA_poincare(n, k)
            row = [str(n), str(k), rep.w.to_text(), str(sym), str(dp)]
            if with_brute:
                brute = poincare_brute(Permutation.identity(n), rep.w)
                check(n, k, "enumeration", brute, poly)
                row.append(str(brute.evaluate_at_one()))
            print("\t".join(row))
            print(f"\t\tpoincare: {poly}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-n", type=int, default=8, dest="max_n")
    parser.add_argument("--with-brute", action="store_true", dest="with_brute")
    args = parser.parse_args()
    run(args.max_n, args.with_brute)


if __name__ == "__main__":
    main()
