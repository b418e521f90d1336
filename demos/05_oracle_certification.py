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

The runs below are the four that `kiselman verify --suite reducer`
reports.
"""

from kiselman import certify_reducer
from kiselman.verify import REDUCER_CHECKS


def main() -> None:
    print("certification runs:")
    for n, cap in REDUCER_CHECKS:
        cert = certify_reducer(n, cap)
        retry = " after raising the cap" if cert.retried else ""
        status = "certified" if cert.holds else "FAILED"
        print(
            f"  rank {n}, length <= {cap}: {cert.classes} classes, "
            f"{cert.canonical_words} canonical words, "
            f"{cert.universe} words reduced and checked, {status}{retry}"
        )


if __name__ == "__main__":
    main()
