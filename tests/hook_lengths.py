"""The number of standard bitableaux of each shape, by the hook length
formula: an oracle for domino insertion and the cell modules that shares
no code with either."""

import functools

from heckeb.combinat import enumerate_bipartitions


def bipartitions_of_shape_count(n):
    """Number of standard bitableaux per shape of Bip(n)."""
    return {b: _binomial(n, b.first.size)
            * _hook_count(b.first) * _hook_count(b.second)
            for b in enumerate_bipartitions(n)}


def _binomial(n, k):
    return functools.reduce(lambda a, i: a * (n - i) // (i + 1), range(k), 1)


def _hook_count(p):
    """Number of standard Young tableaux of shape p (hook length formula)."""
    n = p.size
    if n == 0:
        return 1
    t = p.transpose()
    num = functools.reduce(lambda a, b: a * b, range(1, n + 1), 1)
    den = 1
    for (i, j) in p.cells():
        den *= (p.part(i) - j) + (t.part(j) - i) + 1
    assert num % den == 0
    return num // den
