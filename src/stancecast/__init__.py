"""stancecast: thread reconstruction, stance labeling, next-stance forecasting."""

from .corpus import (
    SENTINEL_AUTHOR,
    Diffusion,
    Entry,
    ParseResult,
    PartitionResult,
    ThreadForest,
    TimePartition,
    build_forest,
    extract_diffusions,
    parse_entries,
    partition_periods,
)
from .features import (
    FeatureTable,
    PeriodUserIndex,
    assemble_union,
    build_period_user_index,
    build_vocab_top_words,
    compute_fs0,
    compute_fs1,
    compute_fs2,
    compute_fs3,
    extract_all,
    quantiles5,
)
from .stance import (
    HashtagLexicon,
    NBModel,
    Stance,
    StanceAssignment,
    label_period_users,
    leave_score,
    nb_leave_probability,
    select_weak_labels,
    stance_from_probability,
    train_nb,
)
from .synth import SyntheticConfig, SyntheticCorpus, generate_synthetic_corpus
from .textprep import porter_stem, preprocess

__version__ = "0.1.0"
