"""Explicit schema validation for cali-JSON ("json-split") payloads.

The reader (:func:`repro.readers.read_cali_dict`) is the one strict
parser of the format: it checks a payload and then builds it.  This
module exposes its check alone, for callers that want a verdict on a
profile without building its call tree; the checks are listed in
:mod:`repro.readers.caliper`.
"""

from __future__ import annotations

from typing import Any

from ..readers.caliper import REQUIRED_SECTIONS, _check

__all__ = ["validate_cali_payload", "REQUIRED_SECTIONS"]


def validate_cali_payload(payload: Any, source: Any = None) -> None:
    """Raise :class:`SchemaError` unless *payload* is valid cali-JSON."""
    _check(payload, source)
