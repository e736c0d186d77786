"""The benchmark's workloads: dataset shape, held-out rectangle and seed window.

Every workload runs the same operation mix (gen, compare, predict cf,
predict snrs) and differs only in the generated data, so each one stresses
different layers.  Fields not listed keep their GenConfig defaults
(seed_rating_fraction 0.2, fill_passes 3).
"""

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    users: int
    items: int
    categories: int
    edge_density: float
    test_users: tuple[int, int]  # 1-based inclusive range, as the CLI takes it
    test_items: tuple[int, int]
    # Dataset seeds one run cycles through; the window for --seed 0 has
    # recorded reference outputs, which hold every detail row.
    seeds_per_run: int

    def gen_args(self) -> list[str]:
        return ["--users", str(self.users), "--items", str(self.items),
                "--categories", str(self.categories),
                "--edge-density", repr(self.edge_density)]

    def split_args(self) -> list[str]:
        return ["--test-users", f"U{self.test_users[0]}-U{self.test_users[1]}",
                "--test-items", f"I{self.test_items[0]}-I{self.test_items[1]}"]

    def test_cells(self) -> list[tuple[int, int]]:
        """0-based (user, item) test cells in the order detail.csv lists them."""
        return [(u, i)
                for u in range(self.test_users[0] - 1, self.test_users[1])
                for i in range(self.test_items[0] - 1, self.test_items[1])]

    def dataset_seeds(self, run_seed: int) -> list[int]:
        base = (run_seed % 2**64) * 1000
        return [base + k for k in range(self.seeds_per_run)]

    def predict_cell(self, dataset_seed: int) -> tuple[int, int]:
        """The 0-based cell that both predict operations score for a dataset."""
        rng = random.Random(dataset_seed)
        return rng.randrange(self.users), rng.randrange(self.items)


WORKLOADS = {w.name: w for w in [
    Workload(
        name="paper",
        why="The paper's 100x10 setting: each op takes tens of ms, so per-call "
            "costs (interpreter, load/save, click) dominate.",
        users=100, items=10, categories=10, edge_density=0.1,
        test_users=(51, 100), test_items=(1, 5), seeds_per_run=8),
    Workload(
        name="social",
        why="Dense graph (~6.5k edges, ~45 friends with evidence per cell): snrs "
            "learn/predict and the generator's friend fill dominate; cf stays light.",
        users=120, items=16, categories=10, edge_density=0.9,
        test_users=(61, 120), test_items=(1, 8), seeds_per_run=4),
    Workload(
        name="catalog",
        why="Many co-rated items and a sparse graph: cf build and predict "
            "dominate; graph and snrs work stays light.",
        users=80, items=80, categories=4, edge_density=0.05,
        test_users=(41, 80), test_items=(1, 40), seeds_per_run=4),
]}
