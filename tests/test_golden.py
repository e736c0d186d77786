"""Golden SHA-256 hashes pinning generated datasets and compare reports.

Rerun-equality only shows a result is deterministic; these hashes show it
is the *same* result as before, so a refactor cannot quietly change the
dataset bytes or the report CSVs.  A deliberate format or behaviour change
must update the hashes in the same commit and say why.
"""

import hashlib

import pytest
from click.testing import CliRunner

from socialrec import GenConfig, generate_dataset, save_dataset
from socialrec.cli import main

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
