"""Outcome records for verification runs."""

from __future__ import annotations

from collections import namedtuple


class Verdict(namedtuple("Verdict", "statement params passed witness "
                                    "elapsed_ms status")):
    """One checked statement instance.

    A failing verdict always carries a witness: the nonzero remainder, or a
    description of the coefficient that obstructed an exact division.

    A tuple record (immutable, compared field by field); __new__ raises the
    ValueError, so the guard also runs under python -O and in _replace.
    """

    __slots__ = ()

    def __new__(cls, statement, params, passed, witness=None, elapsed_ms=0,
                status=None):
        if not passed and not witness:
            raise ValueError("failing verdict requires a witness")
        return tuple.__new__(cls, (statement, params, passed, witness,
                                   elapsed_ms, status))

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make, which would skip the guard
        return cls(*iterable)

    def to_json(self):
        out = {
            "statement": self.statement,
            "params": dict(self.params),
            "pass": self.passed,
            "witness": self.witness,
            "elapsed_ms": self.elapsed_ms,
        }
        if self.status is not None:
            out["status"] = self.status
        return out
