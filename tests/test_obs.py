"""Unit tests of the flight recorder: tracing, metrics, and logging.

The cross-process / cross-HTTP propagation paths have their own file
(``test_obs_propagation.py``); this one covers the in-process contracts —
the zero-cost-when-disabled span path, recorder hierarchy and absorption,
Chrome trace export and validation, the Prometheus registry, and the
logging setup.
"""

from __future__ import annotations

import io
import json
import logging
import threading

import pytest

from repro.obs import (
    MetricsRegistry,
    Span,
    SpanContext,
    TraceRecorder,
    configure_logging,
    current_context,
    get_logger,
    install_recorder,
    recorder,
    render_prometheus,
    span,
    tracing_enabled,
)
from repro.obs.trace import (
    _NOOP_SPAN,
    _new_id,
    uninstall_recorder,
    validate_chrome_trace,
)


@pytest.fixture()
def rec():
    """A recorder installed for the duration of one test."""
    recorder_ = TraceRecorder()
    token = install_recorder(recorder_)
    yield recorder_
    uninstall_recorder(token)


class TestDisabledPath:
    """The zero-cost-when-disabled contract."""

    def test_span_yields_the_shared_noop_without_a_recorder(self):
        assert recorder() is None
        with span("anything", category="x", a=1) as s:
            assert s is _NOOP_SPAN
            s.set(ignored=True)  # must be callable and do nothing
            assert s.context is None

    def test_tracing_enabled_reflects_installation(self):
        assert tracing_enabled() is False
        token = install_recorder(TraceRecorder())
        try:
            assert tracing_enabled() is True
        finally:
            uninstall_recorder(token)
        assert tracing_enabled() is False

    def test_current_context_is_none_while_disabled(self):
        assert current_context() is None


class TestRecorder:
    def test_spans_nest_under_the_enclosing_span(self, rec):
        with span("outer", category="job") as outer:
            with span("inner", category="stage", stage="schedule") as inner:
                assert inner.parent_id == outer.span_id
        spans = {s.name: s for s in rec.spans()}
        assert spans["outer"].parent_id is None
        assert spans["inner"].parent_id == spans["outer"].span_id
        assert spans["inner"].trace_id == rec.trace_id
        assert spans["inner"].attributes == {"stage": "schedule"}
        # Inner closed before outer: completion order, both closed.
        assert all(s.end_s is not None for s in spans.values())
        assert rec.open_spans == 0

    def test_set_attaches_attributes_after_opening(self, rec):
        with span("s", category="solver") as s:
            s.set(nodes=17, warm_start=True)
        (recorded,) = rec.spans()
        assert recorded.attributes == {"nodes": 17, "warm_start": True}

    def test_current_context_prefers_the_active_span(self, rec):
        with span("active") as s:
            ctx = current_context()
            assert ctx == SpanContext(rec.trace_id, s.span_id)
        # No open span: falls back to the recorder-level root context.
        assert current_context().trace_id == rec.trace_id

    def test_child_recorder_adopts_the_parent_trace(self, rec):
        with span("parent") as parent:
            ctx = current_context()
        child = TraceRecorder(parent=ctx)
        assert child.trace_id == rec.trace_id
        token = install_recorder(child)
        try:
            with span("remote"):
                pass
        finally:
            uninstall_recorder(token)
        (remote,) = child.spans()
        assert remote.parent_id == parent.span_id
        rec.absorb(child.serialized_spans())
        assert {s.name for s in rec.spans()} == {"parent", "remote"}

    def test_absorb_rebuilds_spans_from_dicts(self, rec):
        payload = Span(
            name="shipped",
            trace_id=rec.trace_id,
            span_id="feedfacefeedface",
            parent_id=None,
            start_s=1.0,
            end_s=2.0,
            category="verify",
            attributes={"lo": 0},
        ).to_dict()
        rec.absorb([json.loads(json.dumps(payload))])
        (rebuilt,) = rec.spans()
        assert rebuilt.name == "shipped"
        assert rebuilt.duration_s == 1.0
        assert rebuilt.attributes == {"lo": 0}

    def test_threads_need_their_own_installation(self, rec):
        """`threading.Thread` targets start with fresh contextvars: the
        ambient recorder does NOT leak in, which is why every worker
        surface installs a child recorder explicitly."""
        seen = {}

        def worker():
            seen["recorder"] = recorder()

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        assert seen["recorder"] is None

    def test_stage_summaries_digest_stage_spans_in_start_order(self, rec):
        with span("stage:b", category="stage", stage="b", action="ran"):
            pass
        with span("not-a-stage", category="cache"):
            pass
        with span("stage:a", category="stage", stage="a", action="replayed"):
            pass
        names = [row["name"] for row in rec.stage_summaries()]
        assert names == ["stage:b", "stage:a"]  # start order, stages only
        first = rec.stage_summaries()[0]
        assert first["action"] == "ran"
        assert first["duration_s"] >= 0


class TestSpanContextWire:
    def test_roundtrip(self):
        ctx = SpanContext("a" * 16, "b" * 16)
        assert SpanContext.deserialize(ctx.serialize()) == ctx

    @pytest.mark.parametrize(
        "raw",
        [None, "", "justone", "a:b:c", "bad id:x", ":", "a:", ":b", 42],
    )
    def test_malformed_wire_forms_yield_none(self, raw):
        assert SpanContext.deserialize(raw) is None

    def test_ids_are_16_hex_chars_and_unique(self):
        ids = {_new_id() for _ in range(2000)}
        assert len(ids) == 2000
        assert all(len(i) == 16 and int(i, 16) >= 0 for i in ids)


class TestChromeExport:
    def test_export_is_structurally_valid_and_loadable(self, rec, tmp_path):
        with span("outer", category="job"):
            with span("inner", category="stage", stage="schedule"):
                pass
        out = tmp_path / "trace.json"
        rec.write(out)
        document = json.loads(out.read_text())
        assert validate_chrome_trace(document) == []
        events = document["traceEvents"]
        assert {e["name"] for e in events} == {"outer", "inner"}
        for event in events:
            assert event["ph"] == "X"
            assert event["dur"] >= 0
            assert event["args"]["trace_id"] == rec.trace_id
        assert document["otherData"]["trace_id"] == rec.trace_id

    def test_validator_flags_dangling_parents_and_open_events(self):
        document = {
            "traceEvents": [
                {
                    "name": "orphan",
                    "ph": "X",
                    "dur": 1,
                    "args": {"span_id": "s1", "parent_id": "missing"},
                },
                {"name": "open", "ph": "B", "args": {"span_id": "s2"}},
            ]
        }
        problems = validate_chrome_trace(document)
        assert any("dangling parent" in p for p in problems)
        assert any("ph != 'X'" in p for p in problems)
        assert validate_chrome_trace({}) == ["traceEvents missing or empty"]


class TestMetrics:
    def test_counter_accumulates_per_label_set(self):
        registry = MetricsRegistry()
        hits = registry.counter("hits_total", "Hits.")
        hits.inc(tier="memory")
        hits.inc(2, tier="memory")
        hits.inc(tier="disk")
        assert hits.value(tier="memory") == 3
        assert hits.value(tier="disk") == 1
        assert hits.value(tier="shared") == 0
        with pytest.raises(ValueError):
            hits.inc(-1)

    def test_gauge_moves_both_ways(self):
        registry = MetricsRegistry()
        depth = registry.gauge("depth", "Depth.")
        depth.set(4, state="queued")
        depth.dec(3, state="queued")
        depth.inc(state="queued")
        assert depth.value(state="queued") == 2

    def test_histogram_buckets_are_cumulative(self):
        registry = MetricsRegistry()
        hist = registry.histogram("wall", "Wall.", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 5.0):
            hist.observe(value, stage="schedule")
        ((key, cumulative, count, total),) = hist.snapshot_series()
        assert dict(key) == {"stage": "schedule"}
        assert cumulative == [1, 2]  # le=0.1 → 1, le=1.0 → 2
        assert count == 3
        assert total == pytest.approx(5.55)

    def test_get_or_create_returns_the_same_object(self):
        registry = MetricsRegistry()
        assert registry.counter("c") is registry.counter("c")
        with pytest.raises(ValueError):
            registry.gauge("c")

    def test_snapshot_is_json_ready(self):
        registry = MetricsRegistry()
        registry.counter("jobs_total", "Jobs.").inc(state="ok")
        registry.histogram("wall", "Wall.", buckets=(1.0,)).observe(0.5)
        snapshot = json.loads(json.dumps(registry.snapshot()))
        assert snapshot["jobs_total"]["series"] == [
            {"labels": {"state": "ok"}, "value": 1}
        ]
        assert snapshot["wall"]["series"][0]["count"] == 1


class TestPrometheusRendering:
    def test_exposition_has_help_type_and_sample_lines(self):
        registry = MetricsRegistry()
        registry.counter("repro_hits_total", "Hits by tier.").inc(tier="memory")
        registry.gauge("repro_depth", "Depth.").set(2, state="queued")
        text = render_prometheus(registry)
        assert "# HELP repro_hits_total Hits by tier.\n" in text
        assert "# TYPE repro_hits_total counter\n" in text
        assert 'repro_hits_total{tier="memory"} 1\n' in text
        assert 'repro_depth{state="queued"} 2\n' in text
        assert text.endswith("\n")

    def test_histograms_expand_to_bucket_sum_count(self):
        registry = MetricsRegistry()
        hist = registry.histogram("repro_wall_seconds", "Wall.", buckets=(0.1, 1.0))
        hist.observe(0.5, stage="s")
        text = render_prometheus(registry)
        assert 'repro_wall_seconds_bucket{stage="s",le="0.1"} 0' in text
        assert 'repro_wall_seconds_bucket{stage="s",le="1"} 1' in text
        assert 'repro_wall_seconds_bucket{stage="s",le="+Inf"} 1' in text
        assert 'repro_wall_seconds_sum{stage="s"} 0.5' in text
        assert 'repro_wall_seconds_count{stage="s"} 1' in text

    def test_every_line_parses_as_prometheus_text_exposition(self):
        """The structural check the obs-smoke CI job runs over the live
        endpoints: every non-comment line is ``name{labels} value``."""
        import re

        registry = MetricsRegistry()
        registry.counter("repro_a_total", "A.").inc(kind="x")
        registry.histogram("repro_b_seconds", "B.").observe(0.2)
        sample = re.compile(
            r"^[a-zA-Z_:][a-zA-Z0-9_:]*"
            r'(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"'
            r'(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? '
            r"[0-9eE+.\-]+$|^\+Inf$"
        )
        for line in render_prometheus(registry).strip().splitlines():
            if line.startswith("#"):
                assert re.match(r"^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]*", line)
            else:
                assert sample.match(line), line


class TestLogging:
    def _fresh_root(self):
        root = logging.getLogger("repro")
        for handler in list(root.handlers):
            root.removeHandler(handler)
        return root

    def test_get_logger_prefixes_the_taxonomy_root(self):
        assert get_logger("batch").name == "repro.batch"

    def test_configure_logging_is_idempotent(self):
        self._fresh_root()
        stream = io.StringIO()
        configure_logging(level="info", stream=stream)
        configure_logging(level="debug", stream=stream)
        root = logging.getLogger("repro")
        assert len(root.handlers) == 1
        assert root.level == logging.DEBUG  # reconfigure updates the level
        assert root.propagate is False

    def test_json_lines_format_emits_parseable_records(self):
        self._fresh_root()
        stream = io.StringIO()
        configure_logging(level="info", json_lines=True, stream=stream)
        get_logger("service").info("job %s accepted", "abc123")
        record = json.loads(stream.getvalue().strip())
        assert record["logger"] == "repro.service"
        assert record["level"] == "info"
        assert record["message"] == "job abc123 accepted"
        assert "ts" in record

    def test_unknown_level_raises(self):
        with pytest.raises(ValueError):
            configure_logging(level="loud")


def _without_wall_times(payload):
    """A job payload minus its wall-clock fields and span digests."""
    payload = {k: v for k, v in payload.items() if k not in ("wall_time_s", "spans")}
    payload["stages"] = [
        {k: v for k, v in row.items() if k != "wall_time_s"}
        for row in payload["stages"]
    ]
    payload["metrics"] = {
        k: v for k, v in payload["metrics"].items() if not k.endswith("(s)")
    }
    return payload


class TestObservationNeverSteers:
    """Tracing a synthesis run must not change a single computed field."""

    @pytest.mark.parametrize("assay", ["RA30", "IVD", "PCR"])
    def test_traced_and_untraced_payloads_are_identical(self, assay):
        from repro.batch import BatchJob, BatchSynthesisEngine, ResultCache
        from repro.graph.library import assay_by_name
        from repro.synthesis.config import FlowConfig

        config = FlowConfig.paper_defaults_for(assay)
        if assay == "IVD":
            config.ilp_operation_limit = 0  # list scheduler; PCR keeps the ILP

        def run():
            job = BatchJob(assay, assay_by_name(assay), config)
            engine = BatchSynthesisEngine(max_workers=1, cache=ResultCache())
            outcome = engine.run([job]).outcomes[0]
            assert outcome.ok, outcome.error
            return outcome.payload()

        untraced = run()
        traced_recorder = TraceRecorder()
        token = install_recorder(traced_recorder)
        try:
            traced = run()
        finally:
            uninstall_recorder(token)

        assert _without_wall_times(traced) == _without_wall_times(untraced)
        names = {s.name for s in traced_recorder.spans()}
        assert {"stage:schedule", "stage:archsyn", "stage:physical"} <= names
        if assay == "PCR":
            assert traced["metrics"]["scheduler"] == "ilp"
