"""Declarative pipeline configuration.

One JSON file drives every subcommand; command-line flags only override
individual keys. Validation happens before any output is touched.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from numbers import Real
from pathlib import Path
from typing import Any, Callable, Iterator, Optional

from .corpus import TimePartition
from .features import SET_IDS
from .learning.classifiers import FAMILIES, build_classifier, sample_params
from .learning.cv import check_cv_params
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
        _check(self, "alpha", Real, lambda v: 0 < v < math.inf, "a finite number above 0")
        for name in ("min_messages", "rare_df"):
            _check(self, name, int, lambda v: v >= 0, "an integer of at least 0")
        _check(self, "extreme_fraction", Real, lambda v: 0 < v <= 0.5, "a number in (0, 0.5]")
        _check(self, "upper_cutoff", Real, lambda v: 0 < v <= 1, "a number in (0, 1]")
        _check(self, "lower_cutoff", Real, lambda v: 0 <= v < self.upper_cutoff,
               "a number in [0, upper_cutoff)")
        _check(self, "holdout_fraction", Real, lambda v: 0 <= v < 1, "a number in [0, 1)")


@dataclass
class FeatureParams:
    vocab_size: int = 100
    sets: tuple[str, ...] = SET_IDS

    def __post_init__(self) -> None:
        _check(self, "vocab_size", int, lambda v: v >= 0, "an integer of at least 0")


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


def _check(params, name: str, kind: type, ok: Callable[[Any], bool], wanted: str) -> None:
    """Raise `ValueError` unless `params.<name>` is a `kind`, not a bool, for which `ok` holds."""
    value = getattr(params, name)
    if isinstance(value, bool) or not isinstance(value, kind) or not ok(value):
        raise ValueError(f"{name} must be {wanted}, got {value!r}")


# The CLI's synthetic corpus plants hashtags by default; the library's
# `SyntheticConfig` does not.
_SYNTH_DEFAULTS = {"hashtag_prob": 0.25}


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
    synth: SyntheticConfig = field(
        default_factory=lambda: SyntheticConfig(**_SYNTH_DEFAULTS))

    @classmethod
    def from_file(cls, path: str | Path, overrides: Optional[list[str]] = None) -> "PipelineConfig":
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        for override in overrides or []:
            _apply_override(raw, override)
        return cls.from_dict(raw)

    @classmethod
    def from_dict(cls, raw: dict) -> "PipelineConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
        problems: list[str] = []
        seed = raw.get("seed")
        if not isinstance(seed, int) or isinstance(seed, bool):
            problems.append("'seed' is mandatory and must be an integer")
            seed = 0
        input_path = raw.get("input")
        if not isinstance(input_path, str) or not input_path:
            problems.append("'input' is mandatory and must be a path string")
            input_path = "corpus.jsonl"
        output_dir = raw.get("output_dir")
        if not isinstance(output_dir, str) or not output_dir:
            problems.append("'output_dir' is mandatory and must be a path string")
            output_dir = "out"
        periods = raw.get("periods", list(BREXIT_PERIOD_CUTOFFS))
        try:
            TimePartition.from_iso_dates(periods if isinstance(periods, list) else ())
        except (TypeError, ValueError) as exc:
            problems.append(f"'periods' must be a list of at least two increasing ISO dates: {exc}")
            periods = list(BREXIT_PERIOD_CUTOFFS)
        lexicon = raw.get("lexicon")
        if lexicon is not None and not isinstance(lexicon, str):
            problems.append("'lexicon' must be a path string or null")
            lexicon = None

        labeler = _section(raw, "labeler", LabelerParams, problems)
        features = _section(raw, "features", FeatureParams, problems,
                            coerce={"sets": tuple})
        learning = _section(raw, "learning", LearningParams, problems,
                            coerce={"families": tuple})
        synth = _section(raw, "synth", SyntheticConfig, problems, defaults=_SYNTH_DEFAULTS)

        for family in learning.families:
            if family not in FAMILIES:
                problems.append(f"unknown classifier family {family!r}")
        problems.extend(_space_problems(learning.spaces))
        for set_id in features.sets:
            if set_id not in SET_IDS:
                problems.append(f"unknown feature set {set_id!r}")
        if problems:
            raise ConfigError("invalid config: " + "; ".join(problems))
        return cls(
            input=Path(input_path),
            output_dir=Path(output_dir),
            seed=seed,
            periods=tuple(periods),
            lexicon=Path(lexicon) if lexicon else None,
            labeler=labeler,
            features=features,
            learning=learning,
            synth=synth,
        )

    def require_input(self) -> None:
        if not self.input.exists():
            raise ConfigError(f"input path does not exist: {self.input}")

    def require_lexicon(self) -> None:
        if self.lexicon is not None and not self.lexicon.exists():
            raise ConfigError(f"lexicon path does not exist: {self.lexicon}")


def _section(raw: dict, name: str, factory, problems: list[str], coerce: dict = (),
             defaults: dict = ()):
    data = raw.get(name, {})
    if not isinstance(data, dict):
        problems.append(f"'{name}' must be a JSON object")
        return factory(**dict(defaults))
    fields = factory.__dataclass_fields__  # type: ignore[attr-defined]
    unknown = set(data) - set(fields)
    if unknown:
        problems.append(f"unknown keys in '{name}': {sorted(unknown)}")
    kwargs: dict[str, Any] = dict(defaults)
    kwargs.update((k, v) for k, v in data.items() if k in fields)
    try:
        for key, f in fields.items():
            if isinstance(f.default, bool) and not isinstance(kwargs.get(key, False), bool):
                raise ValueError(f"{key} must be true or false, got {kwargs[key]!r}")
        for key, fn in (coerce or {}).items():
            if key in kwargs:
                kwargs[key] = fn(kwargs[key])
        return factory(**kwargs)
    except (TypeError, ValueError) as exc:
        problems.append(f"invalid '{name}' section: {exc}")
        return factory(**dict(defaults))


def _space_problems(spaces: Any) -> list[str]:
    """Check `learning.spaces`: one draw checks each dimension's kind and
    arguments, then every edge value must build the family's classifier."""
    if not isinstance(spaces, dict) or not all(isinstance(s, dict) for s in spaces.values()):
        return ["'learning.spaces' must be an object of objects"]
    problems = []
    for family, space in spaces.items():
        if family not in FAMILIES:
            problems.append(f"unknown classifier family {family!r} in 'learning.spaces'")
            continue
        try:
            sample_params(space, random.Random(0))
            for params in _edge_params(space):
                build_classifier(family, params)
        except (ValueError, TypeError, IndexError, OverflowError) as exc:
            problems.append(f"invalid 'learning.spaces.{family}': {exc}")
    return problems


def _edge_params(space: dict) -> Iterator[dict]:
    """One candidate per edge value: every `choice` value and both ends of
    each `int`/`loguniform` range, the other dimensions at their first edge."""
    edges = {}
    for name, (kind, *args) in space.items():
        if kind == "choice":
            edges[name] = list(args[0])
        else:
            edges[name] = [int(end) for end in args] if kind == "int" else list(args)
    first = {name: values[0] for name, values in edges.items()}
    for name, values in edges.items():
        for value in values:
            yield {**first, name: value}


def _apply_override(raw: dict, override: str) -> None:
    """Apply a dotted `section.key=value` override; values parse as JSON."""
    if "=" not in override:
        raise ConfigError(f"override {override!r} is not of the form key=value")
    dotted, _, value_text = override.partition("=")
    try:
        value = json.loads(value_text)
    except json.JSONDecodeError:
        value = value_text
    *path, last = dotted.split(".")
    target = raw
    for part in path:  # a non-object, once met, stays the target
        target = target.setdefault(part, {}) if isinstance(target, dict) else target
    if not isinstance(target, dict):
        raise ConfigError(f"override {override!r} crosses a non-object key")
    target[last] = value
