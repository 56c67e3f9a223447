"""Declarative pipeline configuration.

One JSON file drives every subcommand; command-line flags only override
individual keys. Validation happens before any output is touched.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import MISSING, dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

from .corpus import TimePartition
from .features import SET_IDS
from .learning.classifiers import FAMILIES
from .learning.cv import ClassifierSpec, check_cv_params
from .stance import HashtagLexicon
from .synth import SyntheticConfig

# Default period cutoffs for the Brexit subreddit case study: fifteen
# event-aligned intervals from late 2015 to early 2019.
BREXIT_PERIOD_CUTOFFS = (
    "2015-11-16", "2016-06-25", "2016-07-14", "2016-12-08", "2017-01-27",
    "2017-03-30", "2017-06-20", "2018-07-09", "2018-09-22", "2018-11-16",
    "2018-11-26", "2019-01-16", "2019-03-15", "2019-03-22", "2019-03-30",
    "2019-04-05",
)


class ConfigError(Exception):
    """The configuration file is missing, unreadable, or invalid."""


@dataclass
class LabelerParams:
    alpha: float = 1.0
    min_messages: int = 50
    extreme_fraction: float = 0.10
    lower_cutoff: float = 0.25
    upper_cutoff: float = 0.75
    rare_df: int = 5
    holdout_fraction: float = 0.2
    distinct_hashtags: bool = False

    def __post_init__(self) -> None:
        _check(self, "alpha", lambda v: 0 < v < math.inf, "a finite number above 0")
        for name in ("min_messages", "rare_df"):
            _check(self, name, lambda v: v >= 0, "an integer of at least 0")
        _check(self, "extreme_fraction", lambda v: 0 < v <= 0.5, "a number in (0, 0.5]")
        _check(self, "upper_cutoff", lambda v: 0 < v <= 1, "a number in (0, 1]")
        _check(self, "lower_cutoff", lambda v: 0 <= v < self.upper_cutoff,
               "a number in [0, upper_cutoff)")
        _check(self, "holdout_fraction", lambda v: 0 <= v < 1, "a number in [0, 1)")


@dataclass
class FeatureParams:
    vocab_size: int = 100
    sets: tuple[str, ...] = SET_IDS

    def __post_init__(self) -> None:
        _check(self, "vocab_size", lambda v: v >= 0, "an integer of at least 0")
        _check(self, "sets", lambda v: _distinct_names(v, SET_IDS),
               "a non-empty list of distinct " + ", ".join(SET_IDS))


@dataclass
class LearningParams:
    families: tuple[str, ...] = FAMILIES
    outer_k: int = 10
    inner_k: int = 5
    search_iters: int = 500
    group_by_user: bool = False
    per_transition: bool = False
    spaces: dict[str, dict] = field(default_factory=dict)

    def __post_init__(self) -> None:
        check_cv_params(self.outer_k, self.inner_k, self.search_iters)
        _check(self, "families", lambda v: _distinct_names(v, FAMILIES),
               "a non-empty list of distinct " + ", ".join(FAMILIES))
        for family, space in self.spaces.items():
            try:
                ClassifierSpec(family, space)
            except ValueError as exc:
                raise ValueError(f"spaces[{family!r}]: {exc}") from None


def _distinct_names(values: tuple, names: tuple[str, ...]) -> bool:
    """`values` is non-empty, each one of `names`, and none repeated."""
    return all(v in names for v in values) and 0 < len(set(values)) == len(values)


def _check(params, name: str, ok: Callable[[Any], bool], wanted: str) -> None:
    """Raise `ValueError` unless `ok` holds for `params.<name>`."""
    value = getattr(params, name)
    if not ok(value):
        raise ValueError(f"{name} must be {wanted}, got {value!r}")


@dataclass
class PipelineConfig:
    input: Path
    output_dir: Path
    seed: int
    periods: tuple[str, ...] = BREXIT_PERIOD_CUTOFFS
    lexicon: Optional[Path] = None
    labeler: LabelerParams = field(default_factory=LabelerParams)
    features: FeatureParams = field(default_factory=FeatureParams)
    learning: LearningParams = field(default_factory=LearningParams)
    # The CLI's synthetic corpus plants hashtags by default; the library's
    # `SyntheticConfig` does not.
    synth: SyntheticConfig = field(default_factory=lambda: SyntheticConfig(hashtag_prob=0.25))

    def __post_init__(self) -> None:
        _check(self, "seed", lambda v: type(v) is int, "an integer")
        for name in ("input", "output_dir"):
            _check(self, name, lambda v: isinstance(v, Path) or (isinstance(v, str) and v != ""),
                   "a path string")
            setattr(self, name, Path(getattr(self, name)))
        _check(self, "lexicon", lambda v: v is None or isinstance(v, (str, Path)),
               "a path string or null")
        self.lexicon = Path(self.lexicon) if self.lexicon else None
        try:
            TimePartition.from_iso_dates(self.periods)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(
                f"periods must be a list of at least two increasing ISO dates: {exc}") from None

    @classmethod
    def from_file(cls, path: str | Path, overrides: Optional[list[str]] = None) -> "PipelineConfig":
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8-sig"))
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deeply
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        for override in overrides or []:
            _apply_override(raw, override)
        return cls.from_dict(raw)

    @classmethod
    def from_dict(cls, raw: Any) -> "PipelineConfig":
        problems: list[str] = []
        config = _build(cls, raw, "config", problems)
        if problems:
            raise ConfigError("; ".join(problems))
        return config

    def require_input(self) -> None:
        if not self.input.exists():
            raise ConfigError(f"input path does not exist: {self.input}")

    def load_lexicon(self) -> HashtagLexicon:
        """The configured hashtag lexicon, or the default; one that cannot be read is a config error."""
        if self.lexicon is None:
            return HashtagLexicon.default()
        try:
            return HashtagLexicon.from_file(self.lexicon)
        except (OSError, ValueError) as exc:  # UnicodeDecodeError is a ValueError
            raise ConfigError(f"lexicon {self.lexicon}: {exc}") from None


# The JSON type a field takes, by the type of its default: (default type,
# accepted types, wanted). A bool passes only where the default is a bool.
_JSON_TYPES = ((bool, bool, "true or false"), (int, int, "an integer"),
               (float, (int, float), "a number"), (tuple, list, "a list"),
               (dict, dict, "an object"))


def _build(template, data: Any, where: str, problems: list[str]):
    """Build a dataclass from the JSON object `data`, or append one problem and return None.

    `template` is the dataclass, or an instance whose values are the
    defaults. Every key must name a field, and every value must have the
    JSON type of its field's default (a list is kept as a tuple). A field
    whose default is a dataclass is built from its own object by this same
    rule; a field without a default, or with None, is left to `__post_init__`.
    """
    try:
        if not isinstance(data, dict):
            raise ValueError("not a JSON object")
        fields = {f.name: f for f in dataclasses.fields(template)}
        unknown = sorted(set(data) - set(fields))
        if unknown:
            raise ValueError(f"unknown keys {unknown}")
        kwargs = {}
        for name, value in data.items():
            f = fields[name]
            default = f.default_factory() if f.default_factory is not MISSING else f.default
            if dataclasses.is_dataclass(default):
                kwargs[name] = _build(default, value, f"'{name}' section", problems)
                continue
            for kind, accepted, wanted in _JSON_TYPES:
                if isinstance(default, kind):
                    if isinstance(value, bool) and kind is not bool \
                            or not isinstance(value, accepted):
                        raise ValueError(f"{name} must be {wanted}, got {value!r}")
                    value = tuple(value) if kind is tuple else value
                    break
            kwargs[name] = value
        if isinstance(template, type):
            return template(**kwargs)
        return dataclasses.replace(template, **kwargs)
    except (TypeError, ValueError, RecursionError) as exc:  # a deep value's repr recurses
        problems.append(f"invalid {where}: {exc}")
        return None


def _apply_override(raw: dict, override: str) -> None:
    """Apply a dotted `section.key=value` override; values parse as JSON."""
    if "=" not in override:
        raise ConfigError(f"override {override!r} is not of the form key=value")
    dotted, _, value_text = override.partition("=")
    try:
        value = json.loads(value_text)
    except json.JSONDecodeError:
        value = value_text
    except RecursionError as exc:
        raise ConfigError(f"override of {dotted!r} is nested too deeply: {exc}") from None
    *path, last = dotted.split(".")
    target = raw
    for part in path:  # a non-object, once met, stays the target
        target = target.setdefault(part, {}) if isinstance(target, dict) else target
    if not isinstance(target, dict):
        raise ConfigError(f"override {override!r} crosses a non-object key")
    target[last] = value
