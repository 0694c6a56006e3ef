"""Reference discretisation for the benchmark's checks, written apart from fracbif.

On a uniform mesh of n cells of width h, the closed-form weights
depend only on how many cells apart two cells are.  With
g(m) = m^(1-sigma) and c = h^(1-sigma) / (sigma * (1 - sigma)):

    pair weight, cells m >= 1 apart:  k[m] = c * (2 g(m) - g(m-1) - g(m+1))
    tail weight of cell i:            T[i] = c * (g(n-i) - g(n-i-1) + g(i+1) - g(i))

The discrete operator and energy are then

    A(u)_i = 2 sum_j k[|i-j|] op(u_i - u_j) + 2 T[i] op(u_i),  op(t) = sign(t)|t|^(p-1)
    E(u)   = (1/p) [sum_{i,j} k[|i-j|] |u_i - u_j|^p + 2 sum_i T[i] |u_i|^p] - h sum_i F(u_i)

Sums run over blocks of rows so that no n x n array is held at once:
the checks must not raise the peak memory the benchmark reports.
Nothing here imports fracbif.
"""

import numpy as np

ROWS = 128


def weights(n, a, b, sigma):
    """Pair weights k (k[0] = 0) and tail weights T for n cells on (a, b)."""
    h = (b - a) / n
    c = h ** (1.0 - sigma) / (sigma * (1.0 - sigma))
    g = np.arange(n + 1.0) ** (1.0 - sigma)
    k = np.zeros(n)
    k[1:] = c * (2.0 * g[1:n] - g[:n - 1] - g[2:])
    i = np.arange(n)
    T = c * (g[n - i] - g[n - i - 1] + g[i + 1] - g[i])
    return k, T


def _signed(t, e):
    return np.sign(t) * np.abs(t) ** e


def _pair_blocks(k, u):
    j = np.arange(u.size)
    for i0 in range(0, u.size, ROWS):
        i = j[i0:i0 + ROWS]
        yield i, k[np.abs(i[:, None] - j[None, :])], u[i, None] - u[None, :]


def operator(k, T, u, p):
    """A(u): the gradient of the seminorm part of E."""
    out = 2.0 * T * _signed(u, p - 1.0)
    for i, K, D in _pair_blocks(k, u):
        out[i] += 2.0 * np.sum(K * _signed(D, p - 1.0), axis=1)
    return out


def seminorm(k, T, u, p):
    pair = sum(float(np.sum(K * np.abs(D) ** p)) for _, K, D in _pair_blocks(k, u))
    return (pair + 2.0 * float(np.dot(T, np.abs(u) ** p))) / p


def reaction(u, lam, q, r):
    """f(u) = lam u+^(q-1) - u+^(r-1) and its primitive F."""
    t = np.maximum(u, 0.0)
    return (lam * t ** (q - 1.0) - t ** (r - 1.0),
            lam * t ** q / q - t ** r / r)


class Problem:
    """Weights and exponents of one discrete problem on (a, b)."""

    def __init__(self, n, a, b, p, s, q, r):
        self.h = (b - a) / n
        self.p, self.q, self.r = p, q, r
        self.k, self.T = weights(n, a, b, p * s)

    def energy(self, u, lam):
        _, F = reaction(u, lam, self.q, self.r)
        return seminorm(self.k, self.T, u, self.p) - self.h * float(np.sum(F))

    def residual(self, u, lam):
        """sup |A(u) - h f(u)|: zero at a solution of the discrete equation."""
        f, _ = reaction(u, lam, self.q, self.r)
        return float(np.max(np.abs(operator(self.k, self.T, u, self.p) - self.h * f)))

    def eigen_residual(self, u, value):
        """sup |A(u) - value h op(u)|: zero at an eigenpair."""
        Au = operator(self.k, self.T, u, self.p)
        return float(np.max(np.abs(Au - value * self.h * _signed(u, self.p - 1.0))))
