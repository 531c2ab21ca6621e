"""CSV/JSON emission and flat config-file parsing for the command line.

Output rules: CSV cells carry full double precision (17 significant
digits) so files round-trip losslessly, and every CSV gets a JSON
metadata sidecar (same path, ``.json`` suffix) echoing the effective
configuration, the seed, and the generator identity.  Nothing
time-dependent is written — rerunning with the same config and seed must
produce byte-identical files, at any BLAS thread count, on a fixed CPU
feature set.
"""
from __future__ import annotations

import csv
import json
from pathlib import Path

VERSION = "0.1.0"
GENERATOR_ID = "numpy-pcg64"


class ConfigError(ValueError):
    """Bad command-line, environment, or config-file input."""


def format_cell(value) -> str:
    """One CSV cell: floats at 17 significant digits, everything else as-is."""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


def write_csv(path: str | Path, header: list[str], rows: list) -> None:
    path = Path(path)
    if path.parent != Path("."):
        path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            if len(row) != len(header):
                raise ValueError(f"row width {len(row)} != header width {len(header)}")
            writer.writerow([format_cell(cell) for cell in row])


def sidecar_path(csv_path: str | Path) -> Path:
    return Path(csv_path).with_suffix(".json")


def write_metadata(csv_path: str | Path, payload: dict) -> Path:
    """JSON sidecar next to the CSV; returns the sidecar path."""
    meta = dict(payload)
    meta.setdefault("generator", GENERATOR_ID)
    meta.setdefault("version", VERSION)
    out = sidecar_path(csv_path)
    with open(out, "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return out


def load_config_file(path: str | Path) -> dict[str, str]:
    """Flat ``key = value`` text: one pair per line, '#' starts a comment."""
    result: dict[str, str] = {}
    try:
        text = Path(path).read_text()
    except OSError as err:
        raise ConfigError(f"cannot read config file {path}: {err}") from err
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not key or not value:
            raise ConfigError(f"{path}:{lineno}: empty key or value")
        if key in result:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        result[key] = value
    return result
