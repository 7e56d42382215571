"""Random instances: Haar states, densities, POVMs, separable operators."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .linalg import HermitianOperator, MultipartiteShape, PureState


def default_rng(rng=None) -> np.random.Generator:
    # Seeded default so library calls are reproducible unless a caller
    # supplies its own generator.
    if rng is None:
        return np.random.default_rng(0)
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def haar_vector(d: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def haar_state(dims, rng: np.random.Generator) -> PureState:
    shape = MultipartiteShape(dims) if not isinstance(dims, MultipartiteShape) else dims
    return PureState(shape, haar_vector(shape.total, rng))


def random_hermitian(d: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (g + g.conj().T) / 2


def random_psd(d: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return g @ g.conj().T


def random_density(d: int, rng: np.random.Generator) -> HermitianOperator:
    m = random_psd(d, rng)
    m /= np.trace(m).real
    return HermitianOperator(MultipartiteShape([d]), m)


def random_povm(d: int, r: int, rng: np.random.Generator) -> tuple[HermitianOperator, ...]:
    """r-outcome POVM on C^d: random PSD effects whitened to sum to identity."""
    if r < 1:
        raise ValueError("a POVM needs at least one outcome")
    parts = [random_psd(d, rng) for _ in range(r)]
    total = sum(parts)
    w, v = np.linalg.eigh(total)
    if w[0] <= 0:
        raise ValueError("degenerate POVM draw; effects do not span")
    inv_sqrt = (v * (1.0 / np.sqrt(w))) @ v.conj().T
    shape = MultipartiteShape([d])
    return tuple(HermitianOperator(shape, inv_sqrt @ p @ inv_sqrt) for p in parts)


def random_separable_terms(
    dims: Sequence[int], terms: int, rng: np.random.Generator
) -> list[tuple[HermitianOperator, ...]]:
    """Random conic combination of products of local PSD factors."""
    if terms < 1:
        raise ValueError("need at least one term")
    out = []
    for _ in range(terms):
        out.append(
            tuple(
                HermitianOperator(MultipartiteShape([d]), random_psd(d, rng) / d)
                for d in dims
            )
        )
    return out
