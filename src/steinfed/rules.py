"""Range rules for settings types, and the error that names the broken field.

A settings dataclass calls these from ``__post_init__``; a ``None`` value is
an unset optional field and passes every rule.
"""

from __future__ import annotations

import numpy as np


class FieldError(ValueError):
    """A settings value breaks its field's rule; the message starts with the field name."""

    def __init__(self, field: str, problem: str):
        super().__init__(f"{field}: {problem}")
        self.field = field


def _check(obj, names, broken, problem: str) -> None:
    for name in names:
        value = getattr(obj, name)
        if value is not None and broken(value):
            raise FieldError(name, f"{problem}, got {value}")


def positive(obj, *names: str) -> None:
    _check(obj, names, lambda v: not np.greater(v, 0).all(), "must be positive")


def nonnegative(obj, *names: str) -> None:
    _check(obj, names, lambda v: v < 0, "must be nonnegative")


def at_least(minimum: int, obj, *names: str) -> None:
    _check(obj, names, lambda v: v < minimum, f"must be at least {minimum}")


def one_of(choices: tuple[str, ...], obj, name: str) -> None:
    value = getattr(obj, name)
    if value not in choices:
        raise FieldError(name, f"expected one of {sorted(choices)}, got {value!r}")
