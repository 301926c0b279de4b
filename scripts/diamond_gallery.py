"""Gallery of hull intersections for the middle maximal representatives.

For w the maximal representative with cut position n inside the symmetric
group on 2n letters, the right hull of w intersected with the left hull of
its upside-down flip is a diamond-shaped board; its full placements are
exactly the 2^n elements of the two-sided interval.  This script draws the
boards and tabulates the counts.

Run as: python3 scripts/diamond_gallery.py --max-n 4
"""

import argparse

from skewrook.boards import left_hull, right_hull
from skewrook.intervals import max_coset_rep_A
from skewrook.rooks import q_rook_number


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-n", type=int, default=4, dest="max_n")
    args = parser.parse_args()
    for n in range(1, args.max_n + 1):
        w = max_coset_rep_A(2 * n, n).w
        board = right_hull(w).intersect(left_hull(w.flip_ud()))
        poly = q_rook_number(board, 2 * n)
        count = poly.evaluate_at_one()
        assert count == 2**n
        print(f"n = {n}: w = {w.to_text()}, placements = {count}")
        print(board.to_text())
        print(f"rank generating function: {poly}")
        print()


if __name__ == "__main__":
    main()
