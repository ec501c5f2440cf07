"""Every metric, span and flight event name written under ``src/`` has a reader.

A name is read when it occurs, as a whole name, in something that consumes
or documents it: the doctor, ``/healthz``, the sampler, the trace renderer,
the Prometheus help table, a test, a benchmark, an example or the docs. A
counter nothing looks at costs a dict lookup on a hot path and a line in
every snapshot, so it gets a reader or gets deleted.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

#: ``obs.counter("name"``, ``local.histogram("name"``, ``obs.span(\n "name"``,
#: ``flight_event("kind"``.
_WRITE = re.compile(
    r'(?:\.(?:counter|gauge|histogram|span)|\bflight_event)\(\s*"([a-z][a-z0-9_.]*)"'
)

_READER_MODULES = ("doctor.py", "serve.py", "sampler.py", "trace.py", "export.py")

#: Unread today but not single-site leaves: counters written at several
#: sites and spans that parent other spans. ROADMAP item 7's next slice
#: gives each a reader or deletes it; nothing may be added here.
_NEXT_SLICE = {
    "campaign.run",
    "campaign.shards.skipped",
    "cluster.fleet",
    "cluster.warmup.partial",
}


def _written_names() -> set[str]:
    return {
        name
        for path in (ROOT / "src").rglob("*.py")
        for name in _WRITE.findall(path.read_text(encoding="utf-8"))
    }


def _reader_text() -> str:
    # A reader module's own writes are not reads of themselves.
    parts = [
        _WRITE.sub("", (ROOT / "src/repro/observability" / name).read_text("utf-8"))
        for name in _READER_MODULES
    ]
    for folder in ("tests", "benchmarks", "examples", "docs"):
        parts += [
            path.read_text(encoding="utf-8")
            for path in (ROOT / folder).rglob("*")
            if path.suffix in (".py", ".md") and path != Path(__file__).resolve()
        ]
    parts += [
        (ROOT / name).read_text("utf-8")
        for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md")
    ]
    return "\n".join(parts)


def test_every_metric_and_span_name_has_a_reader():
    text = _reader_text()
    unread = {
        name
        for name in _written_names()
        # `host.warmup` is not read by a mention of `host.warmup.weight`.
        if not re.search(rf"(?<![\w.]){re.escape(name)}(?!\w|\.\w)", text)
    }
    assert sorted(unread - _NEXT_SLICE) == []
    assert sorted(_NEXT_SLICE - unread) == [], "read or gone now: drop it from _NEXT_SLICE"
