"""Golden SHA-256 hashes pinning generated datasets and compare reports.

Rerun-equality only shows a result is deterministic; these hashes show it
is the *same* result as before, so a refactor cannot quietly change the
dataset bytes or the report CSVs.  A deliberate format or behaviour change
must update the hashes in the same commit and say why.
"""

import hashlib

import pytest
from click.testing import CliRunner

from socialrec import (CfConfig, CfPredictor, GenConfig, SnrsConfig, SnrsPredictor,
                       generate_dataset, save_dataset)
from socialrec.cli import main
from conftest import build_dataset
import test_snrs

DATASET_FILES = ("relationships.csv", "ratings.csv", "categories.csv")

DENSE_SHAPE = dict(n_users=120, n_items=16, n_categories=10, edge_density=0.9)

DEFAULT_SHAPE_DIGESTS = {
    0: "9b6a7a5ae5e69a2610bb32e4c011497287cdae7a7541766b1c1b66602e6e0342",
    1: "8babab781907693e28152a89bb288b8eaa02286227aa7ebaa807a73bb16c2d30",
    2: "2b4a3e784fae98fb43bffb0e8069703de31204c740f5fe1e6208676966f787df",
    3: "4d458c82ce0a5be1bf99b8a4b20bfe4c03d9f4d1aac31648f33e0509de83d047",
    4: "9f0b9b92d7b62423b76ac4740bc69e512b16b0b2370bb996681e04a482b7b77d",
    5: "8d2c77c3372e21b43be88f141acb633a4b5a07b8286a0af35970a3849ac87c3f",
    6: "401aa6824d12f35ced15baad889cb28282de2a6e9b742a9c2ac53be10dc299ac",
    7: "b6f7d9650bb77adfaeb69d2ae91f0d5dc26dd235a6a70135c3315aeed4755552",
    8: "35c5c758a61440be71dc154b13dc57c319d00b3c65e9275658860eb44f24f753",
    9: "ffd0d2a2be32abcf70b9c0706e1d56da15bc48442b72ec220d4077398e5f5585",
}

DENSE_SHAPE_DIGESTS = {
    0: "9d530870f3eb7389395860d6e6ee926d7b8e8d9cc856d728b740bb64206016c5",
    1: "8d647f3649edfbbb3c1690817b18fd507fb35772c827933c6e14eac6c8e1d9eb",
    2: "2dc84222afaa4f823caef0fdf811575209a6d827fea39ef5670ebd7fdc89c1d3",
    3: "bc824e989292fcb711902749bc6147041f2b65dc5a8b28846fe3ef03f8dfa230",
    4: "7cf6ecdf5cda75eaaf339a64f56ce788df9975b2d887fb669a7af644785c96f2",
    5: "348c2a567ea5a04dda9125b8dc89315960bc3f6bb0bbf5c681769202251799da",
    6: "c2f7d12de85610fb264a6a037ab944b47ab7bb9b5fe360c6388e5291b282efd6",
    7: "5d8a1e15e706074b1ec5d4bbf435cd38ba69da2ca258ff3b71e1e5fe027c9457",
    8: "f348be292557eca8fef36504b6971e8de11f38ae8602c50a8c5de9a8f7c7af45",
    9: "4ee8a800d448047148b494943769a502943bf51c89eccc5ac7d75d617fd48747",
}

COMPARE_SEED_42_DIGESTS = {
    "detail.csv": "09d132acce60fc9b120107f27621cb84e20bf230ec0df96b3b201135cd4aa3df",
    "summary.csv": "fb07ce9788f119f9a33a4d61e39c5d9eb4b9894e56b0ca080031558959f6b4b1",
}

# compare --out at the benchmark's dense-graph and many-items shapes, seed 0:
# (gen flags, compare split flags, {file: digest})
COMPARE_SHAPE_DIGESTS = {
    "social": (
        ["--users", "120", "--items", "16", "--categories", "10", "--edge-density", "0.9"],
        ["--test-users", "61-120", "--test-items", "I1-I8"],
        {"detail.csv": "444d4405f8b187554aab68aa795a093e5893954a19fabe804ae03467232f7e33",
         "summary.csv": "71f434bcc46c18b6780c822fe7694e7d4ac97535195057b6e2959fcdd680482e"},
    ),
    "catalog": (
        ["--users", "80", "--items", "80", "--categories", "4", "--edge-density", "0.05"],
        ["--test-users", "41-80", "--test-items", "I1-I40"],
        {"detail.csv": "9e87adb66b5b6b28bc9431ebe4d2c5c9a23450bf27bee1e5225f0068d7800969",
         "summary.csv": "706fab2396a098f01d7daa51a58f2d2123d6826dd21ddc9ded64ec2dcca2b142"},
    ),
}

# eval --method M --out at the "catalog" shape of COMPARE_SHAPE_DIGESTS, seed 0:
# {method: {file: digest}}.  eval writes a one-method report through the same
# path as compare.
EVAL_CATALOG_DIGESTS = {
    "cf": {"detail.csv": "999e296245d13855d0ed17b812e240b5e7fcff0f0bc6caca189d35a6c96274ad",
           "summary.csv": "3af23f291d1335ff45d0bcc6a0f63687fda9809a1c2f3538a399a5aa8d12a328"},
    "snrs": {"detail.csv": "1b571d479ea0d47ddbed71b1593a1c73bbaca1edca052fb10b19982dd4a904a1",
             "summary.csv": "0783ff45ad258527b25dd88d6f9d42e7481777265a0301a98d1688d123276a4e"},
}

# float.hex() of every level of the three snrs factor distributions
# (preference, acceptance, friend inference), for every cell of the seed-42
# default dataset and of the seed-0 DENSE_SHAPE dataset, each trained on
# itself.  repr would round to 4 places and hide a changed last bit.
SNRS_FACTORS_DIGEST = "82b1ba5515c019ea86cd5134afcdb427d834208b124fe81c901c4f5546a7672a"

# float.hex() of SnrsPredictor(dataset, cfg).predict(u, i) for every cell of
# the seed-0 DENSE_SHAPE dataset, trained on itself, under non-default
# configs: half smoothing, the friendship gate at 0 (strength-0 edges count)
# and at 3, and the expectation restricted to levels 1..5.
SNRS_CONFIG_PREDICT_DIGEST = "5e4753d087c626654cdac7a2a28c11eb2e494e5ad8014636e2f6a29809669827"
SNRS_PIN_CONFIGS = [SnrsConfig(laplace_alpha=0.5, friend_min_strength=strength,
                               prediction_levels=(1, 2, 3, 4, 5))
                    for strength in (0, 3)]

# float.hex() of every level of components(0, 0) and of predict(0, 0) on
# the long products of test_snrs.TestLongProducts: the star datasets of 300,
# 800 and 2000 friends and the 1100- and 2000-category datasets.  Their
# friend or preference evidence falls below 2**-500 and is rescaled, so
# these pin the rescale path's bits, which those tests check only to a
# tolerance.
SNRS_LONG_PRODUCT_DIGEST = "136cf1e94cc0d1aa176fca893e11744e182842a0fc2adbaf902b7743c89a7213"

# float.hex() of the three factor rows and the value of every cell of one
# batch over three hubs of 300, 800 and 2000 friends mixed with few-friend
# cells.  The hubs' friend evidence is rescaled at different steps (216 and
# 276 first), and the few-friend rows are never rescaled.
SNRS_RESCALE_BATCH_DIGEST = "e62bb262a858f368714a456f2fa60c9a74f442fc80271af5f0c9262148bad82e"
RESCALE_BATCH_HUBS = [(300, (3, 1), True), (800, (5, 0), False), (2000, (2, 4), True)]
RESCALE_BATCH_CELLS = [(0, 0), (301, 0), (1102, 0), (1, 1), (5, 2), (302, 1), (3103, 0),
                       (0, 1), (1103, 1), (2, 0)]

# float.hex() of the value, the fallback and the (neighbour, float.hex()
# similarity) list of CfPredictor(dataset, cfg).predict_detailed(u, i) for
# every cell of the seed-0 DENSE_SHAPE dataset, trained on itself, with the
# neighbours restricted to graph friends.
CF_CONFIG_PREDICT_DIGEST = "4ada16e030f2c6317706628f4703a47bec80f599166288ff3e4283c188c53e60"
CF_PIN_CONFIG = CfConfig(neighbor_k=5, co_rate_min=3, neighbor_scope="friends-only")

# The same hash under the default CfConfig, for every cell of the seed-0
# dataset at the benchmark's many-items shape (CATALOG_SHAPE), trained on
# itself: each cell has many co-raters, so neighbour order, truncation to k
# and the summation order of the weighted average are all exercised.
CATALOG_SHAPE = dict(n_users=80, n_items=80, n_categories=4, edge_density=0.05)
CF_DEFAULT_PREDICT_DIGEST = "ad8459f3f3ada2b21f056415d579ffbca6ac11f4510629ae4c1eafbe712937b2"

# gen --out at the generator's extreme fill paths, default shape:
# (gen flags, {seed: (dataset digest, ratings line of stdout)}).  "sparse-seed"
# seeds 5% of the cells on a sparse graph and sweeps once, so most cells come
# from the final random fill; "full-seed" seeds every cell, so nothing is
# propagated or randomly filled.
GEN_PATH_DIGESTS = {
    "sparse-seed": (
        ["--edge-density", "0.02", "--seed-fraction", "0.05", "--fill-passes", "1"],
        {0: ("a01bf16adedce66de3909c4eb30a62139fa249a22666eaa446f1f83b3c153aa9",
             "  ratings: 1000 (seeded 50, propagated 139, random 811)"),
         1: ("f060466964f1682872d786fc817bc13beaffc10a43a761a3868c40385b040031",
             "  ratings: 1000 (seeded 50, propagated 192, random 758)"),
         2: ("d6cf2ae2fd4b18c579fdd3914ca67739df21a246b4d90aaa45e7b1df39bcab6c",
             "  ratings: 1000 (seeded 50, propagated 170, random 780)")},
    ),
    "full-seed": (
        ["--seed-fraction", "1.0"],
        {0: ("76f5cde50a14055b732f0d12853ebc232f44ad588357997f9ba761659a01a44c",
             "  ratings: 1000 (seeded 1000, propagated 0, random 0)"),
         1: ("3e271cd8b4e89455e5aecced56ffa3d36c923f0f8fa24ce056cd96c6835f5f28",
             "  ratings: 1000 (seeded 1000, propagated 0, random 0)"),
         2: ("592802c710a33c4c92ef0698460b3dc8daebfe70a84a179a438e3f9d9a278b7e",
             "  ratings: 1000 (seeded 1000, propagated 0, random 0)")},
    ),
}

# predict stdout on PREDICT_DATASET, one line per (method, user, item).
# U3's only co-raters of I1 correlate negatively with U3 (user-mean
# fallback); U4's single rating is the held-out cell (global-mean fallback).
PREDICT_LINES = {
    ("cf", "U1", "I1"): "cf U1 x I1: 4.0000 (rounded 4)",
    ("cf", "U3", "I1"): "cf U3 x I1: 4.0000 (rounded 4)  [fallback: user-mean]",
    ("cf", "U4", "I2"): "cf U4 x I2: 2.6667 (rounded 3)  [fallback: global-mean]",
    ("cf", "U2", "I3"): "cf U2 x I3: 1.0000 (rounded 1)",
    ("snrs", "U1", "I1"): "snrs U1 x I1: 1.9060 (rounded 2)",
    ("snrs", "U3", "I1"): "snrs U3 x I1: 3.7863 (rounded 4)",
    ("snrs", "U4", "I2"): "snrs U4 x I2: 2.5556 (rounded 3)",
    ("snrs", "U2", "I3"): "snrs U2 x I3: 2.9681 (rounded 3)",
}

PREDICT_DATASET = dict(
    n_users=4, n_items=3, n_categories=2,
    edges={(0, 1): 4, (1, 2): 2, (2, 3): 5, (0, 2): 1},
    cells={(0, 0): 5, (0, 1): 3, (0, 2): 1,
           (1, 0): 4, (1, 1): 2, (1, 2): 0,
           (2, 0): 1, (2, 1): 3, (2, 2): 5,
           (3, 1): 4},
    members={(0, 0), (1, 1), (2, 0)},
)


def dataset_digest(directory) -> str:
    """SHA-256 over the three saved CSV files, each prefixed by its name."""
    digest = hashlib.sha256()
    for name in DATASET_FILES:
        digest.update(name.encode() + b"\0")
        digest.update((directory / name).read_bytes())
    return digest.hexdigest()


def file_digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("seed", range(10))
def test_default_shape_dataset_bytes(seed, tmp_path):
    save_dataset(generate_dataset(GenConfig(rng_seed=seed)), tmp_path)
    assert dataset_digest(tmp_path) == DEFAULT_SHAPE_DIGESTS[seed]


@pytest.mark.parametrize("seed", range(10))
def test_dense_shape_dataset_bytes(seed, tmp_path):
    save_dataset(generate_dataset(GenConfig(rng_seed=seed, **DENSE_SHAPE)), tmp_path)
    assert dataset_digest(tmp_path) == DENSE_SHAPE_DIGESTS[seed]


def test_compare_reports_seed_42(tmp_path):
    runner = CliRunner()
    data, reports = tmp_path / "data", tmp_path / "reports"
    result = runner.invoke(main, ["gen", "--seed", "42", "--out", str(data)])
    assert result.exit_code == 0, result.output
    result = runner.invoke(main, ["compare", "--data", str(data), "--out", str(reports)])
    assert result.exit_code == 0, result.output
    for name, expected in COMPARE_SEED_42_DIGESTS.items():
        assert file_digest(reports / name) == expected, name


@pytest.mark.parametrize("shape", sorted(COMPARE_SHAPE_DIGESTS))
def test_compare_reports_benchmark_shapes(shape, tmp_path):
    gen_flags, split_flags, digests = COMPARE_SHAPE_DIGESTS[shape]
    runner = CliRunner()
    data, reports = tmp_path / "data", tmp_path / "reports"
    result = runner.invoke(main, ["gen", *gen_flags, "--seed", "0", "--out", str(data)])
    assert result.exit_code == 0, result.output
    result = runner.invoke(main, ["compare", "--data", str(data), *split_flags,
                                  "--out", str(reports)])
    assert result.exit_code == 0, result.output
    for name, expected in digests.items():
        assert file_digest(reports / name) == expected, name


@pytest.mark.parametrize("method", sorted(EVAL_CATALOG_DIGESTS))
def test_eval_reports_catalog_shape(method, tmp_path):
    gen_flags, split_flags, _ = COMPARE_SHAPE_DIGESTS["catalog"]
    runner = CliRunner()
    data, reports = tmp_path / "data", tmp_path / "reports"
    result = runner.invoke(main, ["gen", *gen_flags, "--seed", "0", "--out", str(data)])
    assert result.exit_code == 0, result.output
    result = runner.invoke(main, ["eval", "--data", str(data), "--method", method,
                                  *split_flags, "--out", str(reports)])
    assert result.exit_code == 0, result.output
    for name, expected in EVAL_CATALOG_DIGESTS[method].items():
        assert file_digest(reports / name) == expected, name


def test_snrs_factor_bits():
    digest = hashlib.sha256()
    for dataset in (generate_dataset(GenConfig(rng_seed=42)),
                    generate_dataset(GenConfig(rng_seed=0, **DENSE_SHAPE))):
        predictor = SnrsPredictor(dataset)
        for u in range(dataset.n_users):
            for i in range(dataset.n_items):
                for dist in predictor.components(u, i):
                    digest.update(" ".join(p.hex() for p in dist).encode() + b"\n")
    assert digest.hexdigest() == SNRS_FACTORS_DIGEST


def test_snrs_predict_bits_non_default_configs():
    dataset = generate_dataset(GenConfig(rng_seed=0, **DENSE_SHAPE))
    digest = hashlib.sha256()
    for cfg in SNRS_PIN_CONFIGS:
        predictor = SnrsPredictor(dataset, cfg)
        for u in range(dataset.n_users):
            digest.update(" ".join(predictor.predict(u, i).hex()
                                   for i in range(dataset.n_items)).encode() + b"\n")
    assert digest.hexdigest() == SNRS_CONFIG_PREDICT_DIGEST


def many_categories_dataset(n_categories):
    """test_snrs.TestLongProducts.test_many_categories's dataset."""
    members = ({(0, c) for c in range(0, n_categories, 2)}
               | {(1, c) for c in range(0, n_categories, 3)}
               | {(2, c) for c in range(0, n_categories, 5)})
    return build_dataset(2, 3, n_categories, edges={(0, 1): 2},
                         cells={(0, 1): 2, (0, 2): 4, (1, 0): 3, (1, 1): 1},
                         members=members)


def hubs_dataset(hubs):
    """Hubs of (n_friends, (ratings of I2 and I3), alternate), each with its
    own friends in test_snrs.TestLongProducts.star_dataset's pattern.  A
    friend rates I1 like I2, or, when ``alternate``, like I3 on even
    friends, so the hub's friend evidence falls at a rate of its own."""
    edges, cells = {}, {}
    hub = 0
    for n_friends, (r2, r3), alternate in hubs:
        cells.update({(hub, 1): r2, (hub, 2): r3})
        for v in range(1, n_friends + 1):
            a, b = v % 6, (v + 1) % 6
            edges[(hub, hub + v)] = 3
            cells.update({(hub + v, 1): a, (hub + v, 2): b,
                          (hub + v, 0): b if alternate and v % 2 == 0 else a})
        hub += n_friends + 1
    return build_dataset(hub + 1, 3, 1, edges, cells, {(0, 0)})


def hex_rows(rows) -> bytes:
    return b"".join(" ".join(float(p).hex() for p in row).encode() + b"\n" for row in rows)


def test_snrs_long_product_bits():
    long_products = test_snrs.TestLongProducts()
    digest = hashlib.sha256()
    for dataset in ([long_products.star_dataset(n) for n in (300, 800, 2000)]
                    + [many_categories_dataset(n) for n in (1100, 2000)]):
        predictor = SnrsPredictor(dataset)
        digest.update(hex_rows(predictor.components(0, 0)))
        digest.update(predictor.predict(0, 0).hex().encode() + b"\n")
    assert digest.hexdigest() == SNRS_LONG_PRODUCT_DIGEST


def test_snrs_rescale_batch_bits():
    predictor = SnrsPredictor(hubs_dataset(RESCALE_BATCH_HUBS))
    digest = hashlib.sha256()
    for rows in predictor._factors(RESCALE_BATCH_CELLS):
        digest.update(hex_rows(rows))
    digest.update(hex_rows([[p.value for p in predictor.predict_many(RESCALE_BATCH_CELLS)]]))
    assert digest.hexdigest() == SNRS_RESCALE_BATCH_DIGEST


def cf_predict_digest(dataset, cfg) -> str:
    predictor = CfPredictor(dataset, cfg)
    digest = hashlib.sha256()
    for u in range(dataset.n_users):
        for i in range(dataset.n_items):
            p = predictor.predict_detailed(u, i)
            neighbors = " ".join(f"{n}:{sim.hex()}" for n, sim in p.neighbors)
            digest.update(f"{p.value.hex()} {p.fallback} {neighbors}\n".encode())
    return digest.hexdigest()


def test_cf_predict_bits_friends_only():
    dataset = generate_dataset(GenConfig(rng_seed=0, **DENSE_SHAPE))
    assert cf_predict_digest(dataset, CF_PIN_CONFIG) == CF_CONFIG_PREDICT_DIGEST


def test_cf_predict_bits_default_config():
    dataset = generate_dataset(GenConfig(rng_seed=0, **CATALOG_SHAPE))
    assert cf_predict_digest(dataset, CfConfig()) == CF_DEFAULT_PREDICT_DIGEST


@pytest.mark.parametrize("path, seed", [(path, seed) for path in sorted(GEN_PATH_DIGESTS)
                                         for seed in range(3)])
def test_gen_fill_paths(path, seed, tmp_path):
    gen_flags, pins = GEN_PATH_DIGESTS[path]
    result = CliRunner().invoke(main, ["gen", *gen_flags, "--seed", str(seed),
                                       "--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    digest, ratings_line = pins[seed]
    assert dataset_digest(tmp_path) == digest
    assert result.output.splitlines()[2] == ratings_line


@pytest.fixture(scope="module")
def predict_data(tmp_path_factory):
    directory = tmp_path_factory.mktemp("predict") / "d"
    save_dataset(build_dataset(**PREDICT_DATASET), directory)
    return directory


@pytest.mark.parametrize("method, user, item", sorted(PREDICT_LINES))
def test_predict_stdout(method, user, item, predict_data):
    result = CliRunner().invoke(main, ["predict", "--data", str(predict_data),
                                       "--method", method, "--user", user, "--item", item])
    assert result.exit_code == 0, result.output
    assert result.output.splitlines() == [PREDICT_LINES[(method, user, item)]]
