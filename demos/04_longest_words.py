"""Words of maximal length and how they factor.

The longest canonical word over rank n has length L(n), which is
2^(k+1) - 2 at n = 2k and 3*2^k - 2 at n = 2k+1.  At odd ranks every
maximal word splits as w (1 n) w' around the middle with w, w' maximal
over the inner letters, forcing the count of maximal words to satisfy
f(n) = 2 f(n-2)^2.  At rank 4 that pattern already breaks.
"""

from kiselman import Word, is_canonical, length_bound, longest_census, run_suite


def main() -> None:
    print(f"{'n':>2} {'L(n)':>5} {'maximal words':>14}")
    print("-" * 23)
    for n in range(1, 7):
        lc = longest_census(n)
        print(f"{n:>2} {lc.max_length:>5} {lc.count:>14}")

    print()
    print("all maximal words of rank 3:")
    for w in longest_census(3).words:
        print(f"  {' '.join(map(str, w))}")

    print()
    for report in run_suite("structure", 5):
        if report.name == "maximal-words-factor-as-w-1-n-w":
            print(f"odd factorization at rank {report.n_or_k}: {'holds' if report.holds else 'FAILS'} ({report.note})")
    print("so f(1), f(3), f(5) = 1, 2, 8, doubling-and-squaring each step")

    print()
    word = Word((2, 3, 1, 2, 4, 3), 4)
    lc4 = longest_census(4)
    print(f"rank 4 counterexample: {word}")
    print(f"  canonical: {is_canonical(word)}, length {len(word)} = L(4) = {length_bound(4)}")
    middle = word.letters[2:4]
    print(f"  middle pair is {middle}, not (1, 4) in either order,")
    print(f"  so the odd-rank factorization fails at even rank ({lc4.count} maximal words there)")


if __name__ == "__main__":
    main()
