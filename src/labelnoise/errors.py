"""Exception types shared across the toolkit."""

import json


class InvalidInputError(ValueError):
    """An operation received arguments outside its domain."""


class ConfigurationError(ValueError):
    """A configuration value or combination of values is invalid."""


class TrainingError(RuntimeError):
    """A training run failed. Carries the epoch index where it happened."""

    def __init__(self, message: str, epoch: int):
        super().__init__(f"epoch {epoch}: {message}")
        self.epoch = epoch


class ExperimentError(RuntimeError):
    """A run inside a multi-run experiment failed. Carries the run index."""

    def __init__(self, message: str, run_index: int):
        super().__init__(f"run {run_index}: {message}")
        self.run_index = run_index


def line_error(path, number: int, err: Exception) -> InvalidInputError:
    """An error naming line ``number`` of the JSON-lines file ``path`` and its fault."""
    if isinstance(err, KeyError):
        reason = f"missing field {err}"
    elif isinstance(err, json.JSONDecodeError):
        reason = f"not valid JSON ({err.msg} at column {err.colno})"
    else:
        reason = str(err)
    return InvalidInputError(f"{path}, line {number}: {reason}")
