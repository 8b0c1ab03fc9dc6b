"""Exact minimum-cost assignment (Hungarian algorithm, O(n^3) potentials)."""

from __future__ import annotations

import numpy as np

INF = float("inf")


def hungarian(cost) -> list[int]:
    """Minimum-cost perfect matching on a square cost matrix.

    Returns ``col_of_row``: the column assigned to each row. The classic
    potentials formulation with augmenting paths; exact for any finite
    float costs.
    """
    a = np.asarray(cost, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"hungarian needs a square matrix, got {a.shape}")
    n = a.shape[0]
    if n == 0:
        return []
    if not np.all(np.isfinite(a)):
        raise ValueError("hungarian needs finite costs")
    a = a.tolist()  # Python floats: the loop below indexes them one by one

    # 1-indexed potentials; p[j] = row matched to column j (0 = none)
    u = [0.0] * (n + 1)
    v = [0.0] * (n + 1)
    p = [0] * (n + 1)
    way = [0] * (n + 1)
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = [INF] * (n + 1)
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = p[j0]
            delta = INF
            j1 = 0
            for j in range(1, n + 1):
                if used[j]:
                    continue
                cur = a[i0 - 1][j - 1] - u[i0] - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(n + 1):
                if used[j]:
                    u[p[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
    col_of_row = [0] * n
    for j in range(1, n + 1):
        if p[j]:
            col_of_row[p[j] - 1] = j - 1
    return col_of_row


def assignment_cost(cost, col_of_row) -> float:
    a = np.asarray(cost, dtype=np.float64)
    return float(sum(a[i, j] for i, j in enumerate(col_of_row)))
