"""CSV persistence for datasets.

A dataset directory holds four files:

    relationships.csv   user_a,user_b,strength      one row per unordered pair
    ratings.csv         user,item,rating            absent cells have no row
    categories.csv      item,category               rows are the 1-memberships
    shape.csv           n_users,n_items,n_categories   one row of counts

All files are UTF-8 with LF line endings and display labels ("U1", "I5",
"C3").  Saves are byte-deterministic: rows are sorted by index, so equal
datasets always produce identical files.

A table file whose body is exactly the form ``save_dataset`` writes, rows
in its order, parses in bulk; every other file, and every file with an
error, goes through the csv row walk, which gives the same result and
names the line of an error.
"""

import contextlib
import csv
import io
import re
from pathlib import Path

import numpy as np

from .model import (
    Dataset,
    ItemCategoryMatrix,
    RatingMatrix,
    RelationshipGraph,
    SocialRecError,
    RATING_MAX,
    RATING_MIN,
    _column,
    _too_large,
    is_number,
    parse_label,
    user_label,
    validate_dataset,
)

RELATIONSHIPS_FILE = "relationships.csv"
RATINGS_FILE = "ratings.csv"
CATEGORIES_FILE = "categories.csv"
SHAPE_FILE = "shape.csv"

_HEADERS = {
    RELATIONSHIPS_FILE: ["user_a", "user_b", "strength"],
    RATINGS_FILE: ["user", "item", "rating"],
    CATEGORIES_FILE: ["item", "category"],
    SHAPE_FILE: ["n_users", "n_items", "n_categories"],
}

# The exact body save_dataset writes: a "\n" after every row, labels without
# a leading zero and short enough for int64, levels 0..5.
_LABEL = "[1-9][0-9]{0,17}"
_BULK_BODY = {
    RELATIONSHIPS_FILE: re.compile(f"(?:U{_LABEL},U{_LABEL},[0-5]\n)*"),
    RATINGS_FILE: re.compile(f"(?:U{_LABEL},I{_LABEL},[0-5]\n)*"),
    CATEGORIES_FILE: re.compile(f"(?:I{_LABEL},C{_LABEL}\n)*"),
}
_LABELS_TO_NUMBERS = str.maketrans({"U": None, "I": None, "C": None, "\n": ","})


class DataFormatError(SocialRecError):
    """A dataset file is missing or malformed; carries file and line context."""

    def __init__(self, file: str, line: int | None, reason: str):
        self.file = file
        self.line = line
        self.reason = reason
        where = f"{file}:{line}" if line is not None else file
        super().__init__(f"{where}: {reason}")


class DatasetValidationError(SocialRecError):
    """Loaded files parse but the assembled dataset breaks an invariant."""

    def __init__(self, problems: list[str]):
        self.problems = problems
        super().__init__("; ".join(problems))


def save_dataset(dataset: Dataset, path: str | Path) -> None:
    """Write the four CSV files for a valid dataset into ``path``.

    The directory is created if needed.  Raises ValueError if the dataset
    fails validation (save never persists a broken dataset).
    """
    problems = validate_dataset(dataset)
    if problems:
        raise ValueError("refusing to save invalid dataset: " + "; ".join(problems))

    directory = Path(path)
    directory.mkdir(parents=True, exist_ok=True)
    graph, ratings = dataset.graph, dataset.ratings.dense()
    order = np.lexsort((graph.high, graph.low))
    # dense() is row-major, so its nonzero cells come in (row, column) order.
    users, items = np.nonzero(ratings >= 0)
    tables = {
        RELATIONSHIPS_FILE: ("U%d,U%d,%d\n", graph.low[order] + 1, graph.high[order] + 1,
                             graph.strengths[order]),
        RATINGS_FILE: ("U%d,I%d,%d\n", users + 1, items + 1, ratings[users, items]),
        CATEGORIES_FILE: ("I%d,C%d\n",
                          *(ids + 1 for ids in np.nonzero(dataset.categories.dense()))),
        SHAPE_FILE: ("%d,%d,%d\n", [dataset.n_users], [dataset.n_items],
                     [dataset.n_categories]),
    }
    for name, (row, *columns) in tables.items():
        body = (row * len(columns[0])) % tuple(np.column_stack(columns).ravel().tolist())
        with open(directory / name, "w", encoding="utf-8", newline="") as handle:
            handle.write(",".join(_HEADERS[name]) + "\n" + body)


def load_dataset(path: str | Path) -> Dataset:
    """Read a dataset directory written by :func:`save_dataset`.

    Dimensions come from ``shape.csv``.  A directory without that file gets
    one past the highest index mentioned in any file, so trailing
    users/items/categories that appear in no row are lost.

    Raises DataFormatError for a missing file, a file that is not UTF-8 or
    a malformed row (with file and line number) and DatasetValidationError
    if the assembled dataset fails validation.  Row order within the files
    never affects the result.
    """
    directory = Path(path)

    low, high, strengths = _read_relationships(directory)
    users, items, ratings = _read_cells(directory, RATINGS_FILE, "UI", "rating for")
    members = _read_cells(directory, CATEGORIES_FILE, "IC", "membership")

    shape = _read_shape(directory)
    if shape is None:
        shape = tuple(1 + max(int(column.max(initial=-1)) for column in columns)
                      for columns in ((high, users), (items, members[0]), (members[1],)))
    n_users, n_items, n_categories = shape

    dataset = Dataset(
        graph=RelationshipGraph._from_arrays(n_users, low, high, strengths),
        ratings=RatingMatrix(n_users, n_items,
                             _table_form((n_users, n_items), -1, (users, items), ratings)),
        categories=ItemCategoryMatrix(n_items, n_categories,
                                      _table_form((n_items, n_categories), 0, members, 1)),
        meta={"path": str(directory)},
    )
    problems = validate_dataset(dataset)
    if problems:
        raise DatasetValidationError(problems)
    return dataset


def _read_text(directory: Path, name: str) -> str:
    """The decoded text of one dataset file."""
    file_path = directory / name
    if not file_path.is_file():
        raise DataFormatError(name, None, "file not found")
    try:
        return file_path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise DataFormatError(name, line, f"not UTF-8: {exc.reason}") from None


def _bulk_rows(name: str, text: str) -> np.ndarray | None:
    """The rows of a table file as an int64 array of its label numbers and
    levels, one row per line, or None unless its body is save_dataset's form."""
    header = ",".join(_HEADERS[name]) + "\n"
    if not (text.startswith(header) and _BULK_BODY[name].fullmatch(text, len(header))):
        return None
    body = text[len(header):-1].translate(_LABELS_TO_NUMBERS)
    numbers = np.fromstring(body, dtype=np.int64, sep=",") if body else np.empty(0, np.int64)
    return numbers.reshape(-1, len(_HEADERS[name]))


def _ascending(a: np.ndarray, b: np.ndarray) -> bool:
    """True when the (a, b) rows strictly increase, as save_dataset writes
    them, so that no pair appears twice."""
    step = np.diff(a)
    return bool(((step > 0) | ((step == 0) & (np.diff(b) > 0))).all())


def _key_columns(entries: dict) -> tuple[np.ndarray, np.ndarray]:
    """The (a, b) keys of ``entries`` as two columns, in insertion order."""
    return _column([a for a, _ in entries]), _column([b for _, b in entries])


def _table_form(shape: tuple[int, int], fill: int, keys: tuple[np.ndarray, np.ndarray],
                values) -> np.ndarray | dict:
    """The cells ``keys`` (row and column indices, all >= 0) holding
    ``values`` as the ``shape`` array, ``fill`` elsewhere, that a table takes.
    A cell outside the shape makes it the {cell: value} map instead, whose
    keys a table keeps and reports."""
    if not all((column < n).all() for column, n in zip(keys, shape)):
        values = np.broadcast_to(values, len(keys[0])).tolist()
        return dict(zip(zip(*(column.tolist() for column in keys)), values))
    with _too_large(f"a {shape[0]}x{shape[1]} table"):
        grid = np.full(shape, fill, dtype=np.int8)
    grid[keys] = values
    return grid


def _read_rows(name: str, text: str) -> list[tuple[int, list[str]]]:
    """Rows of one CSV text as (line_number, fields), header checked and skipped."""
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        rows = list(enumerate(reader, start=1))
    except csv.Error as exc:
        raise DataFormatError(name, reader.line_num, str(exc)) from None
    if not rows:
        raise DataFormatError(name, 1, "missing header")
    header_line, header = rows[0]
    if header != _HEADERS[name]:
        raise DataFormatError(name, header_line,
                              f"expected header {','.join(_HEADERS[name])!r}, "
                              f"got {','.join(header)!r}")
    for line, row in rows[1:]:
        if len(row) != len(_HEADERS[name]):
            raise DataFormatError(name, line,
                                  f"expected {len(_HEADERS[name])} fields, got {len(row)}")
    return rows[1:]


def _parse_index(name: str, line: int, token: str, kind: str) -> int:
    try:
        return parse_label(token, kind)
    except ValueError as exc:
        raise DataFormatError(name, line, str(exc)) from None


def _parse_int(name: str, line: int, token: str, what: str) -> int:
    """An integer field: ASCII digits with an optional "-", whitespace around."""
    text = token.strip()
    with contextlib.suppress(ValueError):  # more digits than int() converts
        if is_number(text.removeprefix("-")):
            return int(text)
    raise DataFormatError(name, line, f"{what} {token!r} is not an integer")


def _parse_level(name: str, line: int, token: str, what: str) -> int:
    value = _parse_int(name, line, token, what)
    if not RATING_MIN <= value <= RATING_MAX:
        raise DataFormatError(name, line,
                              f"{what} {value} outside {RATING_MIN}..{RATING_MAX}")
    return value


def _read_relationships(directory: Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The edges as (low, high, strength) columns, in file-row order."""
    name = RELATIONSHIPS_FILE
    text = _read_text(directory, name)
    rows = _bulk_rows(name, text)
    if rows is not None:
        low, high = (rows[:, :2] - 1).T
        if (low < high).all() and _ascending(low, high):
            return low, high, rows[:, 2]
    edges: dict[tuple[int, int], int] = {}
    first_line: dict[tuple[int, int], int] = {}
    for line, (a_token, b_token, s_token) in _read_rows(name, text):
        a = _parse_index(name, line, a_token, "U")
        b = _parse_index(name, line, b_token, "U")
        strength = _parse_level(name, line, s_token, "strength")
        if a == b:
            raise DataFormatError(name, line, f"self-edge on {a_token.strip()}")
        key = (min(a, b), max(a, b))
        if key in edges:
            pair = f"{user_label(key[0])}/{user_label(key[1])}"
            if edges[key] != strength:
                raise DataFormatError(
                    name, line,
                    f"conflicting strengths for pair {pair}: {edges[key]} on line "
                    f"{first_line[key]}, {strength} here")
            raise DataFormatError(
                name, line, f"duplicate row for pair {pair} (first on line {first_line[key]})")
        edges[key] = strength
        first_line[key] = line
    return (*_key_columns(edges), _column(list(edges.values())))


def _read_cells(directory: Path, name: str, kinds: str, what: str) -> tuple[np.ndarray, ...]:
    """The rows of the ratings or categories file as columns, in file-row
    order: the indices of its two ``kinds`` of label, then its levels if it
    has a level column.  A repeated cell is a duplicate ``what``."""
    text = _read_text(directory, name)
    rows = _bulk_rows(name, text)
    if rows is not None and _ascending(rows[:, 0], rows[:, 1]):
        return (*(rows[:, :2] - 1).T, *rows[:, 2:].T)
    cells: dict[tuple[int, int], list[int]] = {}
    first_line: dict[tuple[int, int], int] = {}
    for line, (a_token, b_token, *r_tokens) in _read_rows(name, text):
        key = (_parse_index(name, line, a_token, kinds[0]),
               _parse_index(name, line, b_token, kinds[1]))
        levels = [_parse_level(name, line, token, "rating") for token in r_tokens]
        if key in cells:
            raise DataFormatError(
                name, line, f"duplicate {what} ({kinds[0]}{key[0] + 1}, {kinds[1]}{key[1] + 1}) "
                f"(first on line {first_line[key]})")
        cells[key], first_line[key] = levels, line
    return (*_key_columns(cells), *(_column([row[k] for row in cells.values()])
                                    for k in range(len(_HEADERS[name]) - 2)))


def _read_shape(directory: Path) -> tuple[int, int, int] | None:
    """(n_users, n_items, n_categories) from the shape file, or None without one."""
    name = SHAPE_FILE
    if not (directory / name).is_file():
        return None
    rows = _read_rows(name, _read_text(directory, name))
    if len(rows) != 1:
        raise DataFormatError(name, rows[1][0] if rows else 2,
                              f"expected one row of counts, got {len(rows)}")
    line, fields = rows[0]
    counts = []
    for what, token in zip(_HEADERS[name], fields):
        count = _parse_int(name, line, token, what)
        if count < 0:
            raise DataFormatError(name, line, f"{what} {count} is negative")
        counts.append(count)
    return tuple(counts)
