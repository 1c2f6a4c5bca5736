"""Multi-parameter empirical modeling (Extra-P's full capability).

Extra-P models metrics over several parameters at once (e.g. MPI ranks
*and* problem size) with hypotheses of the form

.. math::  f(p, q) = c_0 + c_1 \\cdot t_1(p) \\cdot t_2(q)

where each :math:`t_i` is a PMNF term or the constant 1 (so pure
single-parameter models are included).  Following Extra-P's search
strategy, the best single-parameter term is found per parameter first,
and the cross-product neighbourhood of those winners is then searched
— keeping the hypothesis space tractable.
"""

from __future__ import annotations

from typing import Hashable, Sequence

import numpy as np

from .terms import Term, default_hypothesis_space

__all__ = ["MultiParameterModel", "MultiParameterModeler"]


class MultiParameterModel:
    """``c0 + c1 * term_1(p_1) * ... * term_k(p_k)``."""

    __slots__ = ("intercept", "coefficient", "terms", "parameters",
                 "rss", "r_squared", "smape")

    def __init__(self, intercept: float, coefficient: float,
                 terms: Sequence[Term], parameters: Sequence[str],
                 rss: float = float("nan"), r_squared: float = float("nan"),
                 smape: float = float("nan")):
        self.intercept = float(intercept)
        self.coefficient = float(coefficient)
        self.terms = list(terms)
        self.parameters = list(parameters)
        self.rss = rss
        self.r_squared = r_squared
        self.smape = smape

    def evaluate(self, *values) -> np.ndarray | float:
        if len(values) != len(self.terms):
            raise ValueError(
                f"expected {len(self.terms)} parameter values")
        arrays = [np.asarray(v, dtype=np.float64) for v in values]
        basis = np.ones_like(arrays[0], dtype=np.float64)
        for term, arr in zip(self.terms, arrays):
            basis = basis * term.evaluate(arr)
        out = self.intercept + self.coefficient * basis
        if all(np.ndim(v) == 0 for v in values):
            return float(out)
        return out

    __call__ = evaluate

    def __str__(self) -> str:
        parts = []
        for term, param in zip(self.terms, self.parameters):
            if term.is_constant():
                continue
            parts.append(str(term).replace("p", param))
        if not parts or self.coefficient == 0.0:
            return f"{self.intercept}"
        return f"{self.intercept} + {self.coefficient} * " + " * ".join(parts)

    def __repr__(self) -> str:
        return f"MultiParameterModel({self}, R2={self.r_squared:.4f})"


class MultiParameterModeler:
    """Search the product-term hypothesis space over k parameters."""

    def __init__(self, hypothesis_space: Sequence[Term] | None = None,
                 neighbourhood: int = 3):
        self.hypothesis_space = list(hypothesis_space
                                     or default_hypothesis_space())
        self.neighbourhood = neighbourhood

    def fit(self, points: np.ndarray, y: np.ndarray,
            parameters: Sequence[str] | None = None) -> MultiParameterModel:
        """Fit measurements ``y`` at parameter matrix ``points`` (n × k)."""
        points = np.asarray(points, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if points.ndim != 2 or len(points) != len(y):
            raise ValueError("points must be (n, k) matching y")
        if np.any(points <= 0):
            raise ValueError("parameter values must be positive")
        _, k = points.shape
        if parameters is None:
            parameters = [f"p{i}" for i in range(k)]
        if len(parameters) != k:
            raise ValueError("parameter names must match matrix width")

        # 1. per-parameter single-term winners (marginalizing the rest)
        candidate_sets: list[list[Term]] = []
        for j in range(k):
            scores: list[tuple[float, Term]] = [(self._rss(
                self._basis([Term(0)] * k, points), y), Term(0))]
            for term in self.hypothesis_space:
                terms = [Term(0)] * k
                terms[j] = term
                basis = self._basis(terms, points)
                if basis is None:
                    continue
                scores.append((self._rss(basis, y), term))
            scores.sort(key=lambda s: s[0])
            candidate_sets.append(
                [t for _, t in scores[: self.neighbourhood]])

        # 2. cross-product search over the shortlisted terms
        best: tuple[float, MultiParameterModel] | None = None

        def search(j: int, chosen: list[Term]) -> None:
            nonlocal best
            if j == k:
                basis = self._basis(chosen, points)
                if basis is None:
                    return
                fit = self._lstsq(basis, y)
                if fit is None:
                    return
                c0, c1, rss = fit
                penalty = 1.0 + 0.02 * sum(
                    0 if t.is_constant() else 1 for t in chosen)
                score = rss * penalty  # prefer simpler models on ties
                if best is None or score < best[0]:
                    model = self._package(c0, c1, chosen, parameters,
                                          points, y)
                    best = (score, model)
                return
            for term in candidate_sets[j]:
                search(j + 1, chosen + [term])

        search(0, [])
        assert best is not None
        return best[1]

    # ------------------------------------------------------------------
    def _basis(self, terms: Sequence[Term], points: np.ndarray
               ) -> np.ndarray | None:
        basis = np.ones(len(points), dtype=np.float64)
        for j, term in enumerate(terms):
            basis = basis * term.evaluate(points[:, j])
        if not np.all(np.isfinite(basis)):
            return None
        return basis

    def _lstsq(self, basis: np.ndarray, y: np.ndarray
               ) -> tuple[float, float, float] | None:
        A = np.column_stack([np.ones_like(basis), basis])
        try:
            coef, *_ = np.linalg.lstsq(A, y, rcond=None)
        except np.linalg.LinAlgError:  # pragma: no cover
            return None
        pred = A @ coef
        rss = float(((y - pred) ** 2).sum())
        return float(coef[0]), float(coef[1]), rss

    def _rss(self, basis: np.ndarray | None, y: np.ndarray) -> float:
        if basis is None:
            return float("inf")
        fit = self._lstsq(basis, y)
        return fit[2] if fit else float("inf")

    def _package(self, c0: float, c1: float, terms: list[Term],
                 parameters: Sequence[str], points: np.ndarray,
                 y: np.ndarray) -> MultiParameterModel:
        basis = self._basis(terms, points)
        pred = c0 + c1 * basis
        resid = y - pred
        rss = float((resid ** 2).sum())
        tss = float(((y - y.mean()) ** 2).sum())
        r2 = 1.0 - rss / tss if tss > 0 else 1.0
        denom = np.abs(y) + np.abs(pred)
        with np.errstate(invalid="ignore", divide="ignore"):
            ratio = np.where(denom > 0, 2.0 * np.abs(resid) / denom, 0.0)
        smape = float(100.0 * np.mean(ratio))
        return MultiParameterModel(c0, c1, terms, parameters,
                                   rss=rss, r_squared=r2, smape=smape)


def model_thicket_multiparam(tk, parameter_columns: Sequence[str],
                             metric: Hashable, aggregate: str = "mean"):
    """Bulk per-node multi-parameter models from a Thicket ensemble;
    values grouped (and missing ones left out) by
    :func:`repro.core.stats.grouped_by_metadata`."""
    from ..core.stats import grouped_by_metadata
    from ..frame.ops import AGGREGATIONS

    agg = AGGREGATIONS[aggregate]
    modeler = MultiParameterModeler()
    models = {}
    for node, by_point in grouped_by_metadata(
            tk, metric, tuple(parameter_columns)).items():
        if len(by_point) < 4:
            continue
        points = sorted(by_point)
        ys = np.asarray([agg(by_point[p]) for p in points])
        models[node] = modeler.fit(np.asarray(points, dtype=np.float64), ys,
                                   parameters=list(parameter_columns))
    return models
