"""Rating-prediction workbench: user-based collaborative filtering and a
probabilistic social-network recommender, with a seeded synthetic dataset
generator and an MAE/accuracy evaluation harness."""

from .model import (
    Dataset,
    ItemCategoryMatrix,
    RatingMatrix,
    RelationshipGraph,
    SocialRecError,
    RATING_LEVELS,
    RATING_MAX,
    RATING_MIN,
    category_label,
    check_rating,
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
    friend_weighted_fill,
    friend_weighted_fill_trace,
    generate_categories,
    generate_dataset,
    generate_relationships,
    seed_ratings,
)
from .cf import (
    CfConfig,
    CfPrediction,
    CfPredictor,
    ColdStartError,
    SimilarityCache,
    pearson_correlation,
    pearson_similarity,
    predict_cf,
    select_neighbors,
)
from .snrs import (
    DegenerateEvidenceError,
    EmptyTrainingSetError,
    FriendConditionalTable,
    ItemAcceptanceModel,
    RatingDistribution,
    SnrsConfig,
    SnrsPredictor,
    UserPreferenceModel,
    combine,
    friend_inference_prob,
    item_acceptance_prob,
    learn_models,
    predict_snrs,
    user_preference_prob,
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
    write_detail_csv,
    write_summary_csv,
)

__version__ = "0.1.0"
