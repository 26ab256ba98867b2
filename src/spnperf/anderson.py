"""Safeguarded Anderson acceleration of a non-negative fixed-point iteration.

Walker and Ni (2011): with f = G(x) - x, the next start point is
G(x_k) - dG gamma, where the columns of dG are differences of successive
images and gamma fits f_k by the matching differences of f in least
squares, over the last ``DEPTH`` of them.  The caller's state z holds the
iterate x and, after it, whatever the caller keeps that is linear in x, so
a mixed point brings that along without recomputing it.

Two safeguards keep the iteration on G's own path.  A mixed point with a
negative or non-finite entry is not taken: the next step starts from the
plain image.  And a step that started from a mixed point must lower
||f||_1 below the step before it (Zhang, O'Donoghue and Boyd 2020);
otherwise z goes back to the plain image the mixed point replaced, and the
history is cleared.

The mixing uses elementwise numpy calls and ``einsum``, no BLAS or LAPACK,
which would add their resident pages to a run: the differences' Gram
matrix gains one row per difference, and the normal equations, at most
DEPTH x DEPTH, are solved in Python.
"""

from __future__ import annotations

import numpy as np

#: the number of differences mixed
DEPTH = 5
#: a difference of f whose part outside the span of the others is below
#: this fraction of its squared norm gets no weight
DEPENDENT = 1e-10


class Anderson:
    """Mixes the state ``z``, whose first ``n`` entries are the iterate x."""

    def __init__(self, z: np.ndarray, n: int):
        self.z, self.x = z, z[:n]
        # a step's record is [f | z]: its residual, then the image it gave;
        # ``old`` holds the last plain step's, ``new`` is filled by the next
        self.old, self.new = (
            (r, r[:n], r[n:]) for r in (np.empty(n + z.size), np.empty(n + z.size))
        )
        self.old[2][:] = z
        # differences of successive records, a ring of DEPTH rows, and views
        # of the first k rows' f and z parts
        self.diffs = diffs = np.empty((DEPTH, n + z.size))
        self.df = [diffs[:k, :n] for k in range(DEPTH + 1)]
        self.dz = [diffs[:k, n:] for k in range(DEPTH + 1)]
        self.gram = [[0.0] * DEPTH for _ in range(DEPTH)]
        self.point = np.empty(z.size)
        self.mixed, self.norm = False, np.inf
        self.clear()

    def clear(self):
        """Forget every step so far."""
        self.rows, self.slot, self.fresh = 0, 0, True

    def begin(self) -> bool:
        """Before a step: move z to the mixed point, if there is one and it
        is non-negative and finite.  Says whether z moved."""
        k = self.rows
        self.mixed = False
        if k:
            _, f, image = self.old
            rhs = np.einsum("ij,j->i", self.df[k], f).tolist()
            gamma = np.array(_fit([row[:k] for row in self.gram[:k]], rhs))
            point = np.einsum("i,ij->j", gamma, self.dz[k], out=self.point)
            np.subtract(image, point, out=point)
            if 0.0 <= point.min() and point.max() < np.inf:
                np.copyto(self.z, point)
                self.mixed = True
        return self.mixed

    def end(self) -> bool:
        """After a step, with z now G's image: record it, or go back to the
        image before the mixed point the step started from, and clear the
        history, if the step did not lower ||f||_1.  Says whether it went
        back."""
        new, f, image = self.new
        np.subtract(self.x, (self.point if self.mixed else self.old[2])[: f.size], out=f)
        norm = np.abs(f).sum()
        if self.mixed and not norm < self.norm:
            np.copyto(self.z, self.old[2])
            self.clear()
            return True
        np.copyto(image, self.z)
        if not self.fresh:
            row = self.slot
            d = np.subtract(new, self.old[0], out=self.diffs[row])[: f.size]
            self.rows, self.slot = min(self.rows + 1, DEPTH), (row + 1) % DEPTH
            for i, g in enumerate(np.einsum("ij,j->i", self.df[self.rows], d).tolist()):
                self.gram[row][i] = self.gram[i][row] = g
        self.old, self.new, self.norm, self.fresh = self.new, self.old, norm, False
        return False


def _fit(gram: list, rhs: list) -> list:
    """Solve the normal equations ``gram gamma = rhs`` by elimination without
    pivoting, as Cholesky would; a difference all but in the span of those
    before it is left out, with gamma 0."""
    rows = [g + [r] for g, r in zip(gram, rhs)]
    kept = []
    for j, row in enumerate(rows):
        if not row[j] > DEPENDENT * gram[j][j]:
            continue
        kept.append(j)
        tail = row[j + 1 :]
        for other in rows[j + 1 :]:
            t = other[j] / row[j]
            other[j + 1 :] = [a - t * b for a, b in zip(other[j + 1 :], tail)]
    gamma = [0.0] * len(rhs)
    for j in reversed(kept):
        row = rows[j]
        gamma[j] = (row[-1] - sum(map(float.__mul__, row[j + 1 : -1], gamma[j + 1 :]))) / row[j]
    return gamma
