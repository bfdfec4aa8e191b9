"""A dependency-free checker for the Prometheus text exposition format.

The tests scrape ``/metrics?format=prometheus`` and CI checks the stage
metrics' exposition; both must validate the output without installing a
Prometheus client.  This module implements the line-format rules the
exposition format (version 0.0.4) actually guarantees:

* every line is blank, a well-formed ``# HELP``/``# TYPE`` comment, or a
  sample ``name{labels} value [timestamp]``;
* metric and label names match the Prometheus identifier grammar; label
  values are double-quoted with only ``\\``, ``\"`` and ``\n`` escapes;
* sample values parse as floats (``+Inf``/``-Inf``/``NaN`` allowed);
* a sample's base name (``_bucket``/``_sum``/``_count`` stripped for
  histograms) has a preceding ``# TYPE``;
* histogram bucket counts are cumulative, non-decreasing, and the
  ``+Inf`` bucket equals ``_count``.

:func:`check_prometheus_text` returns a list of problem strings (empty
means the text parses); :func:`parse_samples` returns the samples for
assertions in tests.
"""

from __future__ import annotations

import math
import re

__all__ = ["check_prometheus_text", "parse_samples"]

_NAME_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*\Z")
_LABEL_NAME_RE = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*\Z")
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r"\s+(?P<value>\S+)"
    r"(?:\s+(?P<timestamp>-?\d+))?\s*$"
)


def _parse_labels(raw: str) -> dict[str, str]:
    """Parse ``a="x",b="y"`` honoring the three legal escapes."""
    labels: dict[str, str] = {}
    i, n = 0, len(raw)
    while i < n:
        eq = raw.index("=", i)
        name = raw[i:eq].strip()
        if not _LABEL_NAME_RE.match(name):
            raise ValueError(f"invalid label name {name!r}")
        if eq + 1 >= n or raw[eq + 1] != '"':
            raise ValueError(f"label {name!r} value is not quoted")
        i = eq + 2
        out: list[str] = []
        while True:
            if i >= n:
                raise ValueError(f"unterminated label value for {name!r}")
            ch = raw[i]
            if ch == "\\":
                if i + 1 >= n or raw[i + 1] not in ('\\', '"', 'n'):
                    raise ValueError(f"bad escape in label {name!r}")
                out.append("\n" if raw[i + 1] == "n" else raw[i + 1])
                i += 2
            elif ch == '"':
                i += 1
                break
            else:
                out.append(ch)
                i += 1
        labels[name] = "".join(out)
        if i < n:
            if raw[i] != ",":
                raise ValueError(f"expected ',' after label {name!r}")
            i += 1
    return labels


def _parse_value(text: str) -> float:
    if text in ("+Inf", "Inf"):
        return math.inf
    if text == "-Inf":
        return -math.inf
    if text == "NaN":
        return math.nan
    return float(text)


def parse_samples(text: str) -> list[tuple[str, dict[str, str], float]]:
    """All (name, labels, value) samples; raises ValueError on bad lines."""
    errors = check_prometheus_text(text)
    if errors:
        raise ValueError("; ".join(errors))
    samples = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        assert match is not None  # check_prometheus_text accepted it
        labels = _parse_labels(match["labels"]) if match["labels"] else {}
        samples.append((match["name"], labels, _parse_value(match["value"])))
    return samples


def check_prometheus_text(text: str) -> list[str]:
    """Validate exposition text; returns a list of problems (empty = ok)."""
    problems: list[str] = []
    typed: dict[str, str] = {}
    helped: set[str] = set()
    histogram_series: dict[tuple[str, tuple], dict[str, float]] = {}
    bucket_last: dict[tuple[str, tuple], float] = {}

    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.rstrip("\n")
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) < 3 or parts[1] not in ("HELP", "TYPE"):
                # Other comments are legal; only HELP/TYPE have structure.
                if len(parts) >= 2 and parts[1] in ("HELP", "TYPE"):
                    problems.append(f"line {lineno}: malformed {parts[1]} comment")
                continue
            kind, name = parts[1], parts[2]
            if not _NAME_RE.match(name):
                problems.append(f"line {lineno}: invalid metric name {name!r}")
                continue
            if kind == "TYPE":
                if len(parts) < 4 or parts[3] not in (
                    "counter", "gauge", "histogram", "summary", "untyped"
                ):
                    problems.append(f"line {lineno}: bad TYPE for {name}")
                else:
                    if name in typed:
                        problems.append(f"line {lineno}: duplicate TYPE for {name}")
                    typed[name] = parts[3]
            else:
                if name in helped:
                    problems.append(f"line {lineno}: duplicate HELP for {name}")
                helped.add(name)
            continue

        match = _SAMPLE_RE.match(line)
        if match is None:
            problems.append(f"line {lineno}: unparseable sample {line!r}")
            continue
        name = match["name"]
        try:
            labels = _parse_labels(match["labels"]) if match["labels"] else {}
        except ValueError as exc:
            problems.append(f"line {lineno}: {exc}")
            continue
        try:
            value = _parse_value(match["value"])
        except ValueError:
            problems.append(f"line {lineno}: bad value {match['value']!r}")
            continue

        base = name
        for suffix in ("_bucket", "_sum", "_count"):
            trimmed = name[: -len(suffix)] if name.endswith(suffix) else None
            if trimmed and typed.get(trimmed) in ("histogram", "summary"):
                base = trimmed
                break
        if base not in typed:
            problems.append(f"line {lineno}: sample {name} has no TYPE")
            continue

        if typed.get(base) == "histogram":
            key_labels = tuple(sorted(
                (k, v) for k, v in labels.items() if k != "le"
            ))
            series = histogram_series.setdefault((base, key_labels), {})
            if name.endswith("_bucket"):
                if "le" not in labels:
                    problems.append(f"line {lineno}: bucket without le label")
                    continue
                last = bucket_last.get((base, key_labels), -math.inf)
                if value < last:
                    problems.append(
                        f"line {lineno}: bucket counts of {base} decrease"
                    )
                bucket_last[(base, key_labels)] = value
                if labels["le"] == "+Inf":
                    series["inf"] = value
            elif name.endswith("_count"):
                series["count"] = value

    for (base, key_labels), series in histogram_series.items():
        if "inf" in series and "count" in series and series["inf"] != series["count"]:
            problems.append(
                f"histogram {base}{dict(key_labels)}: +Inf bucket "
                f"({series['inf']}) != _count ({series['count']})"
            )
    return problems
