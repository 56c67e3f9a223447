from .classifiers import (
    DEFAULT_SPACES,
    FAMILIES,
    GaussianNBClassifier,
    GradientBoostingClassifier,
    KNNClassifier,
    LogisticRegressionClassifier,
    RandomForestClassifier,
    build_classifier,
    sample_params,
    train_predict,
)
from .cv import (
    ClassifierSpec,
    CVResult,
    FoldResult,
    LabeledRows,
    make_instances,
    nested_cv,
)
from .evaluation import macro_metrics, transition_f1_matrix

__all__ = [
    "DEFAULT_SPACES",
    "FAMILIES",
    "GaussianNBClassifier",
    "GradientBoostingClassifier",
    "KNNClassifier",
    "LogisticRegressionClassifier",
    "RandomForestClassifier",
    "build_classifier",
    "sample_params",
    "train_predict",
    "ClassifierSpec",
    "CVResult",
    "FoldResult",
    "LabeledRows",
    "make_instances",
    "nested_cv",
    "macro_metrics",
    "transition_f1_matrix",
]
