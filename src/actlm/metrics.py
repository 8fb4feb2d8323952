"""JSONL metrics log, flushed per record. Opening one truncates the file,
so a rerun of the same config reproduces it exactly."""

from __future__ import annotations

import json


class MetricsWriter:
    def __init__(self, path):
        self._f = open(path, "w")

    def append(self, record: dict) -> None:
        if not record:
            raise ValueError("refusing to log an empty metrics record")
        self._f.write(json.dumps(record, sort_keys=True, default=float) + "\n")
        self._f.flush()

    def close(self) -> None:
        self._f.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def read_metrics(path) -> list[dict]:
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]
