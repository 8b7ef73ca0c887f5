"""Reference load that runs beside the measured commands, on the same CPU.

    python3 perfbench/refload.py TICKS_FILE

Repeats one fixed unit of standard-library work until it is terminated
(or its parent exits),
and after each unit appends a line ``<time.monotonic()> <CPU seconds of the
unit>`` to ``TICKS_FILE``.  ``run.py`` starts it on the CPU it runs its
commands on, so the scheduler interleaves the two every few milliseconds
and both see the same share of fast and slow moments of a shared host.
The CPU time of the units that end while a command runs then measures how
fast the machine was for that command; no change to the program moves it.

A unit has two halves because the workloads do: a sparse product of small
Fractions (like the Laurent products of ``cutcheck-dense`` and
``taylor-wide``), and gcds and 3-adic valuations of integers of hundreds of
bits (like the deep ladder of ``oc-deep``).
"""

import os
import sys
import time
from fractions import Fraction

FACTOR = {(i % 7 - 3, i // 7 - 2): Fraction(3 ** (i % 5), 2 ** (i % 3) + 1) for i in range(20)}


def product(a: dict, b: dict) -> dict:
    acc: dict = {}
    for (i1, j1), v1 in a.items():
        for (i2, j2), v2 in b.items():
            key = (i1 + i2, j1 + j2)
            value = acc.get(key, 0) + v1 * v2
            if value:
                acc[key] = value
            else:
                acc.pop(key, None)
    return acc


def valuation(n: int) -> int:
    v = 0
    while n % 3 == 0:
        n //= 3
        v += 1
    return v


def unit() -> int:
    power = {(0, 0): Fraction(1)}
    for _ in range(3):
        power = product(power, FACTOR)
    x = Fraction(1)
    total = len(power)
    for i in range(1, 200):
        x *= Fraction(3 ** 7 * (i % 11 + 1), 2 ** 5 * (i % 13 + 1))
        if i % 10 == 0:
            total += valuation(x.numerator) - valuation(x.denominator)
    return total


def main(path: str) -> None:
    parent = os.getppid()
    with open(path, "a", buffering=1, encoding="utf-8") as ticks:
        while os.getppid() == parent:  # stop if run.py dies without stopping us
            start = time.process_time()
            unit()
            ticks.write(f"{time.monotonic()!r} {time.process_time() - start!r}\n")


if __name__ == "__main__":
    main(sys.argv[1])
