"""The Extra-P-style modeler: fit PMNF hypotheses, keep the best.

Given measurements ``(p_i, y_i)`` (parameter value → metric, typically
mean time per MPI-rank count), each candidate term yields a linear
least-squares problem in ``(c0, c1)``; hypotheses are ranked by
cross-validated residual sum of squares with an adjusted-R² tie-break,
following Extra-P's model-selection strategy.  ``ExtrapInterface``
is the "convenient high-level interface" of §4.2.3: it models every
call-tree node of a Thicket in bulk, taking each node's measurements
per parameter value from :func:`repro.core.stats.grouped_by_metadata`
(NaN, ``None`` and ``±inf`` cells, and profiles without a parameter
value, are missing).
"""

from __future__ import annotations

from typing import Any, Hashable, Sequence

import numpy as np

from .model import Model
from .terms import Term, default_hypothesis_space

__all__ = ["Modeler", "ExtrapInterface"]


class Modeler:
    """Single-parameter empirical modeler.

    Parameters
    ----------
    hypothesis_space:
        Candidate terms (default :func:`default_hypothesis_space`).
    use_crossvalidation:
        Score hypotheses by leave-one-out RSS instead of plain RSS
        (needs ≥ 4 distinct parameter values, else falls back).
    """

    def __init__(self, hypothesis_space: Sequence[Term] | None = None,
                 use_crossvalidation: bool = True):
        self.hypothesis_space = list(hypothesis_space
                                     or default_hypothesis_space())
        self.use_crossvalidation = use_crossvalidation

    # ------------------------------------------------------------------
    def fit(self, p, y, parameter: str = "p", metric: str | None = None) -> Model:
        """Fit the best single-term PMNF model to measurements."""
        p = np.asarray(p, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if p.shape != y.shape or p.ndim != 1:
            raise ValueError("p and y must be 1-D arrays of equal length")
        if len(p) < 2:
            raise ValueError("need at least two measurements")
        if np.any(p <= 0):
            raise ValueError("parameter values must be positive")

        # constant model is the baseline hypothesis
        const_pred = np.full_like(y, y.mean())
        best_model = self._package(
            float(y.mean()), 0.0, Term(0), p, y, const_pred,
            parameter, metric,
        )
        best_score = self._score(p, y, None)
        # a non-constant hypothesis must beat the incumbent by more than
        # float noise, or perfectly-constant data would grow phantom terms
        tol = 1e-12 * float((y ** 2).sum() + 1.0)

        distinct = len(np.unique(p))
        for term in self.hypothesis_space:
            if distinct < 3 and term.log_power > 0:
                continue  # not enough support to distinguish log terms
            fit = self._fit_term(p, y, term)
            if fit is None:
                continue
            c0, c1 = fit
            score = self._score(p, y, term)
            if score < best_score - tol:
                pred = c0 + c1 * term.evaluate(p)
                best_model = self._package(c0, c1, term, p, y, pred,
                                           parameter, metric)
                best_score = score
        return best_model

    # ------------------------------------------------------------------
    def _fit_term(self, p: np.ndarray, y: np.ndarray, term: Term
                  ) -> tuple[float, float] | None:
        basis = term.evaluate(p)
        if not np.all(np.isfinite(basis)):
            return None
        A = np.column_stack([np.ones_like(p), basis])
        try:
            coef, *_ = np.linalg.lstsq(A, y, rcond=None)
        except np.linalg.LinAlgError:  # pragma: no cover - defensive
            return None
        return float(coef[0]), float(coef[1])

    def _score(self, p: np.ndarray, y: np.ndarray, term: Term | None) -> float:
        """Cross-validated (or plain) RSS of a hypothesis."""
        distinct = len(np.unique(p))
        if self.use_crossvalidation and distinct >= 4 and len(p) >= 4:
            rss = 0.0
            for i in range(len(p)):
                mask = np.ones(len(p), dtype=bool)
                mask[i] = False
                pred = self._predict_fit(p[mask], y[mask], term, p[i])
                if pred is None:
                    return float("inf")
                rss += (y[i] - pred) ** 2
            return rss
        pred = self._predict_fit(p, y, term, p)
        if pred is None:
            return float("inf")
        return float(((y - pred) ** 2).sum())

    def _predict_fit(self, p_train, y_train, term: Term | None, p_eval):
        if term is None:
            return np.mean(y_train) if np.ndim(p_eval) == 0 else np.full(
                np.shape(p_eval), np.mean(y_train)
            )
        fit = self._fit_term(np.asarray(p_train), np.asarray(y_train), term)
        if fit is None:
            return None
        c0, c1 = fit
        return c0 + c1 * term.evaluate(p_eval)

    @staticmethod
    def _package(c0: float, c1: float, term: Term, p, y, pred,
                 parameter: str, metric: str | None) -> Model:
        resid = y - pred
        rss = float((resid ** 2).sum())
        tss = float(((y - y.mean()) ** 2).sum())
        r2 = 1.0 - rss / tss if tss > 0 else 1.0
        n, k = len(y), (1 if term.is_constant() or c1 == 0.0 else 2)
        adj = 1.0 - (1.0 - r2) * (n - 1) / max(n - k - 1, 1)
        denom = np.abs(y) + np.abs(pred)
        with np.errstate(invalid="ignore", divide="ignore"):
            ratio = np.where(denom > 0, 2.0 * np.abs(resid) / denom, 0.0)
        smape = float(100.0 * np.mean(ratio))
        return Model(c0, c1, term, rss=rss, r_squared=r2,
                     adjusted_r_squared=adj, smape=smape,
                     parameter=parameter, metric=metric)


class ExtrapInterface:
    """Bulk modeling of a Thicket (§4.2.3).

    Builds one model per call-tree node: the modeling parameter comes
    from a metadata column (e.g. ``"mpi.world.size"``), the response is
    a performance-data metric aggregated per (node, parameter value).
    """

    def __init__(self, modeler: Modeler | None = None):
        self.modeler = modeler or Modeler()

    def model_thicket(self, tk, parameter_column: str, metric: Hashable,
                      aggregate: str = "mean") -> dict[Any, Model]:
        """Return node → fitted model; also records models on the statsframe."""
        from ..core.stats import grouped_by_metadata
        from ..frame.ops import AGGREGATIONS

        agg = AGGREGATIONS[aggregate]
        models: dict[Any, Model] = {}
        for node, by_p in grouped_by_metadata(tk, metric,
                                              parameter_column).items():
            ps = sorted(by_p)
            ys = [agg(by_p[p]) for p in ps]
            if len(ps) < 2:
                continue
            models[node] = self.modeler.fit(
                np.asarray(ps), np.asarray(ys),
                parameter=parameter_column, metric=str(metric),
            )

        metric_name = metric[-1] if isinstance(metric, tuple) else metric
        out_key = f"{metric_name}_extrap_model"
        tk.statsframe[out_key] = [
            str(models[n]) if n in models else None
            for n in tk.statsframe.index.values
        ]
        return models
