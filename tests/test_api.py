"""The package's public surface: the names at its root, and the README's
library examples, which must run against them."""

import functools
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import socialrec
from socialrec import (
    CfConfig,
    CfPredictor,
    GenConfig,
    ItemCategoryMatrix,
    RatingMatrix,
    RelationshipGraph,
    SimilarityCache,
    SnrsConfig,
    SnrsPredictor,
    SplitSpec,
    generate_dataset,
    split,
)

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
    "mae", "run_comparison", "split", "train_predictor",
    "write_detail_csv", "write_summary_csv",
}

README = Path(__file__).resolve().parents[1] / "README.md"
PYTHON_BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                           re.DOTALL | re.MULTILINE)


def test_root_names_are_pinned():
    public = {name for name, value in vars(socialrec).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert public == ROOT_NAMES
    assert len(ROOT_NAMES) == 45


def test_readme_has_python_blocks():
    assert len(PYTHON_BLOCKS) >= 2


@pytest.mark.parametrize("block", PYTHON_BLOCKS,
                         ids=[f"block{n}" for n in range(1, len(PYTHON_BLOCKS) + 1)])
def test_readme_python_block_runs(block, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(socialrec.__file__).resolve().parents[1]))
    result = subprocess.run([sys.executable, "-W", "error", "-c", block], cwd=tmp_path,
                            env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr


@functools.cache
def _world() -> SimpleNamespace:
    """The default generated dataset, user 3, a friend v of 3 and a user n
    with a defined similarity to 3, and what each entry point reads."""
    dataset = generate_dataset(GenConfig())
    cache = SimilarityCache.build(dataset.ratings)
    snrs = SnrsPredictor(dataset)
    return SimpleNamespace(dataset=dataset, graph=dataset.graph, ratings=dataset.ratings,
                           cache=cache, cf=CfPredictor(dataset), snrs=snrs,
                           tables=snrs.friend_tables, v=dataset.graph.friends_of(3)[0][0],
                           n=next(iter(cache.row(3))))


CELLS = [(u, i) for u in range(40, 60) for i in range(3)]


def _bits(predictions) -> list[str]:
    return [p.value.hex() for p in predictions]


def _scored(engine, cfg) -> tuple:
    return cfg, _bits(engine(_world().dataset, cfg).predict_many(CELLS))


def _generated(field: str, value) -> tuple:
    cfg = GenConfig(**{field: value})
    return cfg, generate_dataset(cfg)


# (id, the name its ValueError opens with, a valid Python int k, the call of
# the entry point with k, giving what its result depends on)
INTEGER_ENTRIES = [
    ("CfConfig.neighbor_k", "neighbor_k", 5,
     lambda w, k: _scored(CfPredictor, CfConfig(neighbor_k=k))),
    ("CfConfig.co_rate_min", "co_rate_min", 3,
     lambda w, k: _scored(CfPredictor, CfConfig(co_rate_min=k))),
    ("SnrsConfig.friend_min_strength", "friend_min_strength", 2,
     lambda w, k: _scored(SnrsPredictor, SnrsConfig(friend_min_strength=k))),
    ("SnrsConfig.prediction_levels", "prediction_levels", 2,
     lambda w, k: _scored(SnrsPredictor, SnrsConfig(prediction_levels=(k, 4)))),
    *[(f"GenConfig.{field}", field, k, lambda w, k, field=field: _generated(field, k))
      for field, k in (("n_users", 30), ("n_items", 4), ("n_categories", 3),
                       ("fill_passes", 2), ("rng_seed", 7))],
    ("SplitSpec.test_users", "test_users index", 60,
     lambda w, k: split(w.dataset, SplitSpec(test_users=(k,), test_items=(0,)))),
    ("SplitSpec.test_items", "test_items index", 2,
     lambda w, k: split(w.dataset, SplitSpec(test_users=(60,), test_items=(k,)))),
    ("RelationshipGraph.n_users", "n_users", 3, lambda w, k: RelationshipGraph(k, {(0, 1): 3})),
    ("RelationshipGraph.friends_of", "u", 3, lambda w, k: w.graph.friends_of(k)),
    ("RelationshipGraph.strength.x", "x", 3, lambda w, k: w.graph.strength(k, w.v)),
    ("RelationshipGraph.strength.y", "y", 3, lambda w, k: w.graph.strength(w.v, k)),
    ("RatingMatrix.get.user", "user", 3, lambda w, k: w.ratings.get(k, 2)),
    ("RatingMatrix.get.item", "item", 2, lambda w, k: w.ratings.get(3, k)),
    ("RatingMatrix.user_mean", "user", 3, lambda w, k: w.ratings.user_mean(k)),
    ("SimilarityCache.row", "u", 3, lambda w, k: w.cache.row(k)),
    ("SimilarityCache.similarity.u", "u", 3, lambda w, k: w.cache.similarity(k, w.n)),
    ("SimilarityCache.similarity.n", "n", 3, lambda w, k: w.cache.similarity(w.n, k)),
    ("FriendConditionalTable.column", "friend level", 2,
     lambda w, k: w.tables.column(3, w.v, k)),
    ("FriendConditionalTable.column.u", "u", 3, lambda w, k: w.tables.column(k, w.v, 2)),
    ("FriendConditionalTable.column.v", "v", 3, lambda w, k: w.tables.column(w.v, k, 2)),
    ("RatingMatrix.n_users", "n_users", 3, lambda w, k: RatingMatrix(k, 2, {(2, 1): 4})),
    ("RatingMatrix.n_items", "n_items", 2, lambda w, k: RatingMatrix(3, k, {(2, 1): 4})),
    ("ItemCategoryMatrix.n_items", "n_items", 2,
     lambda w, k: ItemCategoryMatrix(k, 3, {(1, 2)})),
    ("ItemCategoryMatrix.n_categories", "n_categories", 3,
     lambda w, k: ItemCategoryMatrix(2, k, {(1, 2)})),
    ("CfPredictor.predict_many.user", "cell", 3, lambda w, k: _bits(w.cf.predict_many([(k, 2)]))),
    ("CfPredictor.predict_many.item", "cell", 2, lambda w, k: _bits(w.cf.predict_many([(3, k)]))),
    ("SnrsPredictor.predict_many.user", "cell", 3,
     lambda w, k: _bits(w.snrs.predict_many([(k, 2)]))),
    ("SnrsPredictor.predict_many.item", "cell", 2,
     lambda w, k: _bits(w.snrs.predict_many([(3, k)]))),
]
REAL_ENTRIES = [
    ("SnrsConfig.laplace_alpha", "laplace_alpha", lambda a: SnrsConfig(laplace_alpha=a)),
    ("GenConfig.edge_density", "edge_density", lambda a: GenConfig(edge_density=a)),
    ("GenConfig.seed_rating_fraction", "seed_rating_fraction",
     lambda a: GenConfig(seed_rating_fraction=a)),
]


class TestIntegerRule:
    """Every count, level and index a caller passes follows one rule: a
    Python or numpy int gives the Python int's result, and a bool, a float
    or a string raises ValueError naming the argument."""

    @pytest.mark.parametrize("bad", [True, 1.0, 2.5, "3"], ids=repr)
    @pytest.mark.parametrize("entry", INTEGER_ENTRIES, ids=lambda entry: entry[0])
    def test_rejects_non_integers(self, entry, bad):
        _, name, _, call = entry
        with pytest.raises(ValueError, match=f"^{re.escape(name)} "):
            call(_world(), bad)

    @pytest.mark.parametrize("engine", ["cf", "snrs"])
    def test_rejects_a_cell_of_bools(self, engine):
        # bool is a numbers.Integral, so only the rule's bool clause refuses it
        with pytest.raises(ValueError, match=r"^cell \(True, False\) has an index"):
            getattr(_world(), engine).predict_many([(True, False)])

    @pytest.mark.parametrize("kind", [np.int64, np.int32], ids=lambda kind: kind.__name__)
    @pytest.mark.parametrize("entry", INTEGER_ENTRIES, ids=lambda entry: entry[0])
    def test_numpy_ints_give_the_int_result(self, entry, kind):
        _, _, k, call = entry
        assert call(_world(), kind(k)) == call(_world(), k)

    @pytest.mark.parametrize("bad", [True, "3"], ids=repr)
    @pytest.mark.parametrize("entry", REAL_ENTRIES, ids=lambda entry: entry[0])
    def test_reals_reject_bools_and_strings(self, entry, bad):
        _, name, make = entry
        with pytest.raises(ValueError, match=f"^{re.escape(name)} "):
            make(bad)
