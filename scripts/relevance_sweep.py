#!/usr/bin/env python3
"""Relevance-degree curves as a theory strengthens.

Two sweeps: the degree of p over {s -> p} as the constant s climbs (it
should track s), and the degree of the root of p over {p} plus weakenings
(the disk pins it at one half once p is fully forced).
"""

import argparse
from fractions import Fraction

from iqcl.semantics import RelevanceOptions, Theory, relevance_degree
from iqcl.syntax import parse


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--steps", type=int, default=8)
    parser.add_argument("--budget", type=int, default=100_000)
    args = parser.parse_args()
    # s = k / steps must be dyadic, the only constants the formula language has.
    if args.steps < 1 or args.steps & (args.steps - 1):
        parser.error(f"--steps must be a positive power of two, got {args.steps}")

    options = RelevanceOptions(budget=args.budget)
    try:
        options.validate()
    except ValueError as exc:
        parser.error(str(exc))

    print("s        relevance({s -> p}, p)   status")
    for k in range(args.steps + 1):
        s = Fraction(k, args.steps)
        theory = Theory([parse(f"{s} -> p")])
        result = relevance_degree(theory, parse("p"), options)
        print(f"{str(s):7}  {float(result.value):22.9f}   {result.status}")

    print("\ntheory                      relevance(T, ?p)   status")
    for text in ("", "1/2 -> p", "7/8 -> p", "p"):
        theory = Theory([parse(text)] if text else [])
        result = relevance_degree(theory, parse("?p"), options)
        label = "{" + text + "}"
        print(f"{label:26}  {float(result.value):17.9f}   {result.status}")


if __name__ == "__main__":
    main()
