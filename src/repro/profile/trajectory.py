"""Golden lane records (``BENCH_<tag>.json``).

Every number a lane reports is simulated, hence a pure function of
(commit, command) — so a lane file holds exactly one record,
``{schema, tag, meta, metrics}``, with no run counter, timestamp or
host-clock key: replaying the command rewrites the file byte for byte.
A record that differs from the one it replaced means the commit moved a
simulated number — a bug, or a re-pin that commits the new file.
"""

from __future__ import annotations

import json
import pathlib

from repro.errors import GSamplerError

SCHEMA_VERSION = 2
_MISSING = "<missing>"


def bench_path(directory: str | pathlib.Path, tag: str) -> pathlib.Path:
    """The lane file for ``tag`` under ``directory``."""
    return pathlib.Path(directory) / f"BENCH_{tag}.json"


def write_record(
    path: str | pathlib.Path, *, tag: str, meta: dict, metrics: dict
) -> dict | None:
    """Replace the lane's record; returns the one it replaced, if any.

    A non-finite value is refused (``ValueError``: NaN is not JSON) and a
    file of another schema is refused typed, both before any write.
    """
    path = pathlib.Path(path)
    record = {
        "schema": SCHEMA_VERSION, "tag": tag, "meta": meta, "metrics": metrics,
    }
    text = json.dumps(record, indent=1, allow_nan=False) + "\n"
    previous = json.loads(path.read_text()) if path.exists() else None
    if previous is not None and previous.get("schema") != SCHEMA_VERSION:
        raise GSamplerError(
            f"{path} is not a schema-{SCHEMA_VERSION} lane record "
            f"(schema {previous.get('schema')!r}); delete it and re-run"
        )
    path.write_text(text)
    return previous


def _flatten(record: dict) -> dict[str, object]:
    """``section.key`` -> value, dict values (``time_by_kernel``) opened."""
    flat: dict[str, object] = {}
    for section in ("meta", "metrics"):
        for key, value in record[section].items():
            if isinstance(value, dict):
                flat |= {f"{section}.{key}.{k}": v for k, v in value.items()}
            else:
                flat[f"{section}.{key}"] = value
    return flat


def moved(previous: dict, record: dict) -> list[tuple[str, object, object]]:
    """``(key, old, new)`` for every ``meta``/``metrics`` key that differs
    (``"<missing>"`` where only one record carries the key)."""
    old, new = _flatten(previous), _flatten(record)
    return [
        (key, old.get(key, _MISSING), new.get(key, _MISSING))
        for key in sorted(old.keys() | new.keys())
        if old.get(key, _MISSING) != new.get(key, _MISSING)
    ]
