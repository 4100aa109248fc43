"""Reference input loader: each file read whole, then split with str.splitlines.

This is the package's previous `copslab.cli._load_graphs`, kept as an oracle
for differential tests of the loader that reads graph6 files a line at a
time. Locations are `path:lineno` with lines numbered as `str.splitlines`
numbers them; an edge-list file is one graph at `path`, or `path:offset`
when it does not parse.
"""

from __future__ import annotations

from pathlib import Path

from copslab.graphs import GraphFormatError, parse_edge_list, parse_graph6


def reference_load_graphs(paths: list[str]):
    """Yield (location, Graph | None, error | None) over all input files."""
    for path in paths:
        try:
            text = Path(path).read_text()
        except (OSError, UnicodeDecodeError) as exc:
            yield f"{path}", None, f"cannot read: {exc}"
            continue
        payload = [ln for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")]
        first = payload[0].split() if payload else []
        if len(first) == 2 and all(tok.lstrip("-").isdigit() for tok in first):
            try:
                yield f"{path}", parse_edge_list(text), None
            except GraphFormatError as exc:
                yield f"{path}:{exc.offset}", None, str(exc)
            continue
        for lineno, line in enumerate(text.splitlines(), start=1):
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            loc = f"{path}:{lineno}"
            try:
                yield loc, parse_graph6(line), None
            except GraphFormatError as exc:
                yield loc, None, str(exc)
