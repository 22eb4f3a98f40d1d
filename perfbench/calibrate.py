"""Calibration kernel for timing on a shared host.

A fixed kernel of the same kinds of work the program does, in three parts:
complex arithmetic with small-array numpy steps, a walk over a heap of
small objects too large for the private caches, and a recursive walk of
expression-like trees with float formatting.  On a shared host the
machine's speed swings by a fifth or more between runs a minute apart; a
command's wall time divided by the kernel's time around it swings far
less.
Other tenants slow the three parts by different amounts, so the kernel's
time is the geometric mean of the three, which tracks the program better
than any one part.  Reported times are that ratio times CAL_REF_S, the
kernel's median time on the reference machine (see README.md), so they
read as seconds on that machine.
"""

import random
import time

import numpy as np

CAL_REF_S = 0.023
_SIDE = 6


class _Node:
    __slots__ = ("op", "left", "right", "value")

    def __init__(self, op, left=None, right=None, value=0j):
        self.op, self.left, self.right, self.value = op, left, right, value


def _tree(rng: random.Random, depth: int) -> _Node:
    if depth == 0:
        return _Node("c", value=complex(rng.random(), rng.random()))
    return _Node(rng.choice("+-*"), _tree(rng, depth - 1), _tree(rng, depth - 1))


_RNG = random.Random(0)
_TREES = [_tree(_RNG, 7) for _ in range(8)]
# About 4 MB of one-float tuples in shuffled order, so the walk misses the
# private caches the way the program's object graph does.
_HEAP = [(float(i),) for i in range(60000)]
_RNG.shuffle(_HEAP)


def _evaluate(node: _Node) -> complex:
    if node.op == "c":
        return node.value
    a, b = _evaluate(node.left), _evaluate(node.right)
    return a + b if node.op == "+" else a - b if node.op == "-" else a * b


def _arithmetic() -> float:
    start = time.perf_counter()
    acc = 0j
    table = {}
    for i in range(22000):
        z = complex(i % 7, i % 5)
        acc += z * z / (z + 1)
        table[i & 255] = acc
    a = np.arange(_SIDE**2, dtype=complex).reshape(_SIDE, _SIDE) + 1j
    for _ in range(550):
        b = a.copy()
        np.argmax(np.abs(b[:, 0]))
        b[1:, 1:] -= np.outer(b[1:, 0], b[0, 1:])
    return time.perf_counter() - start


def _heap_walk() -> float:
    start = time.perf_counter()
    total = 0.0
    for _ in range(6):
        for (value,) in _HEAP:
            total += value
    return time.perf_counter() - start


def _tree_walk() -> float:
    start = time.perf_counter()
    acc = 0j
    for _ in range(28):
        for tree in _TREES:
            acc += _evaluate(tree)
    for i in range(2000):
        ",".join(repr(0.1 * i * k) for k in range(8))
    return time.perf_counter() - start


def calibration_s() -> float:
    """Geometric mean of the wall times of the kernel's three parts."""
    return (_arithmetic() * _heap_walk() * _tree_walk()) ** (1 / 3)
