"""Rating-prediction workbench: user-based collaborative filtering and a
probabilistic social-network recommender, with a seeded synthetic dataset
generator and an MAE/accuracy evaluation harness."""

from .model import (
    Dataset,
    ItemCategoryMatrix,
    Prediction,
    RatingMatrix,
    RelationshipGraph,
    SocialRecError,
    RATING_LEVELS,
    RATING_MAX,
    RATING_MIN,
    category_label,
    item_label,
    parse_label,
    round_rating,
    user_label,
    validate_dataset,
)
from .storage import (
    DataFormatError,
    DatasetValidationError,
    load_dataset,
    save_dataset,
)
from .datagen import (
    FillEvent,
    GenConfig,
    friend_weighted_fill_trace,
    generate_dataset,
)
from .cf import (
    CfConfig,
    CfPredictor,
    ColdStartError,
    SimilarityCache,
    pearson_correlation,
)
from .snrs import (
    DegenerateEvidenceError,
    EmptyTrainingSetError,
    RatingDistribution,
    SnrsConfig,
    SnrsPredictor,
    combine,
)
from .evaluate import (
    CellRecord,
    EvaluationReport,
    MissingCellError,
    SplitSpec,
    accuracy,
    evaluate_method,
    mae,
    run_comparison,
    split,
    train_predictor,
    write_detail_csv,
    write_summary_csv,
)

__version__ = "0.1.0"
