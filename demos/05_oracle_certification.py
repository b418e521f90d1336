"""Certifying the reducer against a presentation-level oracle.

The deletion reducer is fast but rule-based; the oracle is slow but
assumes nothing beyond the defining relations.  It partitions all words
up to a length cap into congruence classes by union-find, merging the
two sides of every relation instance that fits under the cap.  The
reducer is correct on the covered range iff every class has exactly one
canonical member and every member reduces to it.

Two short congruent words are sometimes connected only through longer
intermediates, leaving truncated classes with no canonical member; the
certification then raises the cap by 2 and restricts attention to the
classes reaching back into the original range.
"""

from kiselman import certify_reducer, congruence_closure


def main() -> None:
    print("congruence classes over rank 2, words of length <= 4:")
    for cls in congruence_closure(2, 4):
        members = ", ".join(" ".join(map(str, w)) or "(empty)" for w in cls.members)
        canonical = ", ".join(" ".join(map(str, w)) or "(empty)" for w in cls.canonical_members)
        print(f"  [{canonical}] = {{{members}}}")

    print()
    print("certification runs:")
    for n, cap in ((1, 7), (2, 7), (3, 7)):
        cert = certify_reducer(n, cap)
        retry = " after raising the cap" if cert.retried else ""
        status = "certified" if cert.holds else "FAILED"
        print(
            f"  rank {n}, length <= {cap}: {cert.classes} classes, "
            f"{cert.canonical_words} canonical words, "
            f"{cert.universe} words reduced and checked, {status}{retry}"
        )
    print()
    print("rank 4 with cap 8 passes too; it is left to the test suite, since")
    print("its retry over 1.4 million words takes about 1 s (shared 2-core Xeon)")


if __name__ == "__main__":
    main()
