"""ColumnBatch: the columnar record batch the vectorized kernels run on.

A batch holds a horizontal slice of a dataset as *columns*: one typed
value buffer plus a validity bitmap per field, instead of one dict per
row. Types are chosen per column when the batch is built:

- ``"f"`` — float64 values in an ``array('d')``;
- ``"q"`` — int64 values in an ``array('q')``;
- ``"dict"`` — dictionary-encoded strings: an ``array('q')`` of codes
  into a per-column list of distinct values (HPC identifier columns —
  node names, application names — have tiny cardinality, so encoding
  both shrinks the batch and lets kernels evaluate a predicate once
  per *distinct* value instead of once per row);
- ``"obj"`` — anything else (Timestamps, TimeSpans, lists) as a plain
  Python list.

Null handling follows the row convention of the rest of the codebase,
where a missing value is an *absent dict key*: a column slot whose
validity byte is 0 means "this row does not have this field", and
``to_rows`` omits it, so a row→batch→row round trip is exact for the
sparse dict rows every wrapper produces. ``None`` values are
normalized to nulls on the way in (sources already drop them). NaN is
a *value*, not a null — it stays in the buffer and flows through
kernels with IEEE comparison semantics, exactly like the row path.

Batches are plain picklable objects, so they ride through thread and
process executors the same way rows do.
"""

from __future__ import annotations

from array import array
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = ["Column", "ColumnBatch", "count_rows"]

_I64_MIN = -(2 ** 63)
_I64_MAX = 2 ** 63 - 1


class Column:
    """One typed column: ``(kind, data, validity[, dictionary])``.

    ``validity`` is a bytearray (1 = value present). Invalid slots hold
    a type-appropriate placeholder (0.0 / 0 / code 0 / None) that must
    never be observed through the public accessors.
    """

    __slots__ = ("kind", "data", "validity", "dictionary")

    def __init__(
        self,
        kind: str,
        data: Any,
        validity: bytearray,
        dictionary: Optional[List[str]] = None,
    ) -> None:
        self.kind = kind
        self.data = data
        self.validity = validity
        self.dictionary = dictionary

    # pickle support for __slots__ classes
    def __getstate__(self):
        return (self.kind, self.data, self.validity, self.dictionary)

    def __setstate__(self, state):
        self.kind, self.data, self.validity, self.dictionary = state

    def __len__(self) -> int:
        return len(self.validity)

    def get(self, i: int) -> Any:
        """Value at row ``i``, or None when the slot is null."""
        if not self.validity[i]:
            return None
        if self.kind == "dict":
            return self.dictionary[self.data[i]]
        return self.data[i]

    def values(self) -> List[Any]:
        """All slots as Python values, None where null (kernel food)."""
        valid = self.validity
        if self.kind == "dict":
            d = self.dictionary
            if 0 not in valid:
                return list(map(d.__getitem__, self.data))
            return [
                d[c] if v else None for c, v in zip(self.data, valid)
            ]
        if 0 not in valid:
            if self.kind in ("f", "q"):
                return self.data.tolist()
            return list(self.data)
        return [x if v else None for x, v in zip(self.data, valid)]

    def take(self, indices: Sequence[int]) -> "Column":
        # map() keeps the gather loop in C; the no-null fast path
        # skips the per-slot validity gather entirely
        data = self.data
        validity = self.validity
        gathered = map(data.__getitem__, indices)
        if self.kind in ("f", "q", "dict"):
            out = array(data.typecode, gathered)
        else:
            out = list(gathered)
        if 0 not in validity:
            new_validity = bytearray(b"\x01") * len(out)
        else:
            new_validity = bytearray(map(validity.__getitem__, indices))
        return Column(self.kind, out, new_validity, self.dictionary)

    def approx_bytes(self) -> int:
        if self.kind in ("f", "q"):
            n = len(self.data) * self.data.itemsize
        elif self.kind == "dict":
            n = len(self.data) * self.data.itemsize + sum(
                len(s) + 49 for s in self.dictionary
            )
        else:
            n = len(self.data) * 56
        return n + len(self.validity)


def _encode_column(raw: List[Any], present: int) -> Column:
    """Pick the physical kind for one column's raw values (None =
    null) and build the typed buffer.

    ``bool`` is excluded from the numeric kinds on purpose (it is an
    ``int`` subclass but a semantically different value), as are int
    subclasses generally — strict ``type() is`` checks keep exotic
    types on the exact-preserving object path.
    """
    validity = bytearray(0 if v is None else 1 for v in raw)
    n = len(raw)
    if present:
        kinds = {type(v) for v in raw if v is not None}
        if kinds == {float}:
            return Column(
                "f",
                array("d", (0.0 if v is None else v for v in raw)),
                validity,
            )
        if kinds == {int} and all(
            v is None or _I64_MIN <= v <= _I64_MAX for v in raw
        ):
            return Column(
                "q",
                array("q", (0 if v is None else v for v in raw)),
                validity,
            )
        if kinds == {str}:
            codes: Dict[str, int] = {}
            data = array("q", bytes(8) * n)
            for i, v in enumerate(raw):
                if v is None:
                    continue
                code = codes.get(v)
                if code is None:
                    code = codes[v] = len(codes)
                data[i] = code
            return Column("dict", data, validity, list(codes))
    return Column("obj", list(raw), validity)


class ColumnBatch:
    """A set of equal-length named :class:`Column` buffers."""

    __slots__ = ("cols", "num_rows")

    def __init__(self, cols: Dict[str, Column], num_rows: int) -> None:
        self.cols = cols
        self.num_rows = num_rows

    def __getstate__(self):
        return (self.cols, self.num_rows)

    def __setstate__(self, state):
        self.cols, self.num_rows = state

    # -- construction --------------------------------------------------

    @staticmethod
    def from_rows(rows: Sequence[Dict[str, Any]]) -> "ColumnBatch":
        """Pivot sparse dict rows into columns (missing/None → null)."""
        n = len(rows)
        raw: Dict[str, List[Any]] = {}
        present: Dict[str, int] = {}
        for i, row in enumerate(rows):
            for k, v in row.items():
                col = raw.get(k)
                if col is None:
                    col = raw[k] = [None] * n
                    present[k] = 0
                if v is not None:
                    col[i] = v
                    present[k] += 1
        return ColumnBatch(
            {k: _encode_column(v, present[k]) for k, v in raw.items()},
            n,
        )

    @staticmethod
    def concat(batches: Sequence["ColumnBatch"]) -> "ColumnBatch":
        """One batch holding every input batch's rows, in order."""
        batches = [b for b in batches if b.num_rows]
        if not batches:
            return ColumnBatch({}, 0)
        if len(batches) == 1:
            return batches[0]
        # columns are sparse: concatenation goes through row values so
        # a column present in only some batches stays null elsewhere
        names: List[str] = []
        for b in batches:
            for k in b.cols:
                if k not in names:
                    names.append(k)
        n = sum(b.num_rows for b in batches)
        out: Dict[str, Column] = {}
        for name in names:
            vals: List[Any] = []
            present = 0
            for b in batches:
                col = b.cols.get(name)
                if col is None:
                    vals.extend([None] * b.num_rows)
                else:
                    chunk = col.values()
                    vals.extend(chunk)
                    present += sum(col.validity)
            out[name] = _encode_column(vals, present)
        return ColumnBatch(out, n)

    # -- accessors -----------------------------------------------------

    def columns(self) -> List[str]:
        return list(self.cols)

    def __len__(self) -> int:
        return self.num_rows

    def column_values(self, name: str) -> List[Any]:
        """One column as Python values with None at nulls; a column
        absent from the batch is all-null."""
        col = self.cols.get(name)
        if col is None:
            return [None] * self.num_rows
        return col.values()

    def row(self, i: int) -> Dict[str, Any]:
        out: Dict[str, Any] = {}
        for name, col in self.cols.items():
            if col.validity[i]:
                out[name] = col.get(i)
        return out

    def to_rows(self) -> List[Dict[str, Any]]:
        """Back to sparse dict rows (nulls become absent keys)."""
        out: List[Dict[str, Any]] = [
            {} for _ in range(self.num_rows)
        ]
        for name, col in self.cols.items():
            validity = col.validity
            if col.kind == "dict":
                d = col.dictionary
                data = col.data
                for i, v in enumerate(validity):
                    if v:
                        out[i][name] = d[data[i]]
            else:
                data = col.data
                for i, v in enumerate(validity):
                    if v:
                        out[i][name] = data[i]
        return out

    def approx_bytes(self) -> int:
        return 64 + sum(c.approx_bytes() for c in self.cols.values())

    # -- row-preserving transforms -------------------------------------

    def project(self, fields: Iterable[str]) -> "ColumnBatch":
        """Keep only the named columns (absent names are ignored —
        the row-path projection also just drops unknown keys)."""
        keep = {
            f: self.cols[f] for f in fields if f in self.cols
        }
        return ColumnBatch(keep, self.num_rows)

    def rename(self, field: str, to: str) -> "ColumnBatch":
        """Rename one column, preserving column order at its slot."""
        if field not in self.cols:
            return self
        out: Dict[str, Column] = {}
        for name, col in self.cols.items():
            if name == field:
                out[to] = col
            elif name != to:
                out[name] = col
        return ColumnBatch(out, self.num_rows)

    def take(self, indices: Sequence[int]) -> "ColumnBatch":
        """Gather rows by index into a new batch."""
        return ColumnBatch(
            {k: c.take(indices) for k, c in self.cols.items()},
            len(indices),
        )

    def filter(self, mask: Sequence[int]) -> "ColumnBatch":
        """Keep rows whose mask entry is truthy."""
        indices = [i for i, m in enumerate(mask) if m]
        if len(indices) == self.num_rows:
            return self
        return self.take(indices)

    def drop_all_null_rows(self) -> "ColumnBatch":
        """Drop rows with no valid value in any column (the batch
        analogue of ``.filter(bool)`` after a row projection)."""
        if not self.cols:
            return ColumnBatch({}, 0)
        validities = [c.validity for c in self.cols.values()]
        mask = [1 if any(v[i] for v in validities) else 0
                for i in range(self.num_rows)]
        return self.filter(mask)

    def key_tuples(self, fields: Sequence[str]) -> List[Tuple]:
        """Join/group keys: ``tuple(row.get(f) for f in fields)`` per
        row, computed column-wise."""
        cols = [self.column_values(f) for f in fields]
        if not cols:
            return [()] * self.num_rows
        return list(zip(*cols)) if self.num_rows else []

    def __repr__(self) -> str:
        kinds = {k: c.kind for k, c in self.cols.items()}
        return f"ColumnBatch({self.num_rows} rows, {kinds})"


def count_rows(elements: Sequence[Any]) -> int:
    """Logical row count of a partition that may hold batches, rows,
    or a mix (the scheduler's batch-aware accounting helper)."""
    total = 0
    for x in elements:
        total += x.num_rows if isinstance(x, ColumnBatch) else 1
    return total
