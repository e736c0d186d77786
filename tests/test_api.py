"""The package's public surface: the names at its root, and the README's
library examples, which must run against them."""

import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import socialrec

ROOT_NAMES = {
    # tables and labels
    "Dataset", "ItemCategoryMatrix", "Prediction", "RatingMatrix", "RelationshipGraph",
    "SocialRecError", "RATING_LEVELS", "RATING_MAX", "RATING_MIN", "category_label",
    "item_label", "parse_label", "round_rating", "user_label", "validate_dataset",
    # storage
    "DataFormatError", "DatasetValidationError", "load_dataset", "save_dataset",
    # generator
    "FillEvent", "GenConfig", "friend_weighted_fill_trace", "generate_dataset",
    # cf
    "CfConfig", "CfPredictor", "ColdStartError", "SimilarityCache", "pearson_correlation",
    # snrs
    "DegenerateEvidenceError", "EmptyTrainingSetError", "RatingDistribution", "SnrsConfig",
    "SnrsPredictor", "combine",
    # evaluation
    "CellRecord", "EvaluationReport", "MissingCellError", "SplitSpec", "accuracy",
    "evaluate_method", "mae", "run_comparison", "split", "train_predictor",
    "write_detail_csv", "write_summary_csv",
}

README = Path(__file__).resolve().parents[1] / "README.md"
PYTHON_BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                           re.DOTALL | re.MULTILINE)


def test_root_names_are_pinned():
    public = {name for name, value in vars(socialrec).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert public == ROOT_NAMES
    assert len(ROOT_NAMES) == 46


def test_readme_has_python_blocks():
    assert len(PYTHON_BLOCKS) >= 2


@pytest.mark.parametrize("block", PYTHON_BLOCKS,
                         ids=[f"block{n}" for n in range(1, len(PYTHON_BLOCKS) + 1)])
def test_readme_python_block_runs(block, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(socialrec.__file__).resolve().parents[1]))
    result = subprocess.run([sys.executable, "-W", "error", "-c", block], cwd=tmp_path,
                            env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
