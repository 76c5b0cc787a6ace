"""The trace recorder."""

from repro.sim.trace import TRACE_ENV, TraceEvent, TraceRecorder, configure_from_env


class TestTraceRecorder:
    def test_disabled_category_records_nothing(self):
        trace = TraceRecorder()
        trace.record("mac", "tx", node=1)
        assert len(trace) == 0

    def test_enabled_category_records(self):
        trace = TraceRecorder(["mac"])
        trace.record("mac", "tx", node=1)
        assert len(trace) == 1

    def test_enable_after_construction(self):
        trace = TraceRecorder()
        trace.enable("phy")
        trace.record("phy", "rx")
        assert len(trace) == 1

    def test_wants_guard(self):
        trace = TraceRecorder(["a"])
        assert trace.wants("a")
        assert not trace.wants("b")

    def test_clock_binding(self):
        trace = TraceRecorder(["x"])
        now = {"t": 0}
        trace.bind_clock(lambda: now["t"])
        now["t"] = 42
        trace.record("x", "evt")
        assert trace.events()[0].time == 42

    def test_filtering_by_category_and_name(self):
        trace = TraceRecorder(["a", "b"])
        trace.record("a", "one")
        trace.record("a", "two")
        trace.record("b", "one")
        assert len(trace.events("a")) == 2
        assert len(trace.events(category="a", name="one")) == 1
        assert len(trace.events(name="one")) == 2

    def test_detail_lookup(self):
        trace = TraceRecorder(["a"])
        trace.record("a", "evt", node=7, frame="data")
        event = trace.events()[0]
        assert event.get("node") == 7
        assert event.get("missing", "default") == "default"

    def test_counts_histogram(self):
        trace = TraceRecorder(["a"])
        trace.record("a", "x")
        trace.record("a", "x")
        trace.record("a", "y")
        assert trace.counts() == {"a/x": 2, "a/y": 1}

    def test_counts_of_a_slice(self):
        trace = TraceRecorder(["a"])
        trace.record("a", "x")
        base = len(trace)
        trace.record("a", "x")
        trace.record("a", "y")
        assert trace.counts(trace.events()[base:]) == {"a/x": 1, "a/y": 1}
        assert trace.counts([]) == {}

    def test_empty_recorder_is_falsy_but_usable(self):
        # Regression guard: constructors must not use "trace or default()"
        # because an empty recorder has len() == 0.
        trace = TraceRecorder(["a"])
        assert not trace  # empty -> falsy
        trace.record("a", "x")
        assert trace


class TestRingBuffer:
    """There is no ring buffer: a baseline index into the recorder stays
    valid, so the slice from it is exactly what came after."""

    def test_unbounded_by_default(self):
        trace = TraceRecorder(["a"])
        for i in range(1000):
            trace.record("a", "x", i=i)
        assert len(trace) == 1000
        assert [e.get("i") for e in trace.events()[990:]] == list(range(990, 1000))


class TestMerge:
    def test_merge_bypasses_filter_and_keeps_timestamps(self):
        # Worker events were filtered by the worker's recorder; the
        # parent must accept them even without the category enabled.
        parent = TraceRecorder()
        events = [TraceEvent(time=7, category="sweep", name="task_run")]
        assert parent.merge(events) == 1
        assert parent.events()[0].time == 7
        assert parent.events()[0].category == "sweep"


class TestConfigureFromEnv:
    def test_unset_enables_nothing(self, monkeypatch):
        monkeypatch.delenv(TRACE_ENV, raising=False)
        trace = configure_from_env(TraceRecorder())
        assert not trace.wants("sweep")

    def test_zero_enables_nothing(self, monkeypatch):
        monkeypatch.setenv(TRACE_ENV, "0")
        assert not configure_from_env(TraceRecorder()).wants("sweep")

    def test_one_is_sweep_shorthand(self, monkeypatch):
        monkeypatch.setenv(TRACE_ENV, "1")
        trace = configure_from_env(TraceRecorder())
        assert trace.wants("sweep")
        assert not trace.wants("mac")

    def test_any_other_value_is_the_sweep_switch(self, monkeypatch):
        # The sweep executor records nothing but ``sweep``, so a name
        # is not a category list: it turns the sweep trace on.
        monkeypatch.setenv(TRACE_ENV, "sweep, mac")
        trace = configure_from_env(TraceRecorder())
        assert trace.wants("sweep")
        assert not trace.wants("mac")
