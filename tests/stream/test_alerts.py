"""Alert engine: deterministic ids, dedup, crash-tolerant resume."""

from __future__ import annotations

import json

from repro.logs.parsing import ParsedRecord
from repro.logs.record import LogSource
from repro.stream.alerts import Alert, AlertEngine


def precursor(time=6000.0, node="c0-0c0s0n1", event="nvf"):
    return ParsedRecord(time, LogSource.CONTROLLER, "c0-0c0s0",
                        "controller", event, {"node": node})


class TestIdentity:
    def test_id_is_content_addressed(self):
        a = Alert(kind="precursor", time=6000.0, node="n1", event="nvf")
        b = Alert(kind="precursor", time=6000.0, node="n1", event="nvf")
        assert a.alert_id == b.alert_id
        assert a.alert_id != Alert(kind="precursor", time=6000.0,
                                   node="n2", event="nvf").alert_id

    def test_scan_filters_to_node_scoped_precursors(self):
        records = [
            precursor(event="nvf"),
            precursor(event="nhf", node="c0-0c0s0n2"),
            # a heartbeat stop is blade-scoped, not node-scoped: no alert
            ParsedRecord(5000.0, LogSource.ERD, "erd", "erd",
                         "ec_heartbeat_stop", {"src": "c0-0c0s0n1"}),
        ]
        alerts = AlertEngine.scan_records(records)
        assert [a.event for a in alerts] == ["nvf", "nhf"]
        assert alerts[0].node == "c0-0c0s0n1"

    def test_window_alert_none_when_clean(self):
        assert AlertEngine.window_alert(0, 0, 1, failures=0) is None
        alert = AlertEngine.window_alert(0, 0, 1, failures=3)
        assert alert is not None and alert.failures == 3


class TestEmit:
    def test_emit_appends_and_dedups(self, tmp_path):
        engine = AlertEngine(tmp_path)
        alerts = AlertEngine.scan_records([precursor()])
        assert len(engine.emit(alerts)) == 1
        assert engine.emit(alerts) == []  # same identity: swallowed
        lines = engine.path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 1
        entry = json.loads(lines[0])
        assert entry["id"] == alerts[0].alert_id
        assert entry["kind"] == "precursor"


class TestResume:
    def test_resume_dedups_from_the_file_alone(self, tmp_path):
        first = AlertEngine(tmp_path)
        in_file = AlertEngine.scan_records([precursor()])
        first.emit(in_file)
        engine = AlertEngine.resume(tmp_path)
        assert engine.emit(in_file) == []
        # an alert whose line never reached the file is emitted
        fresh = Alert(kind="precursor", time=1.0, node="nX", event="nhf")
        assert engine.emit([fresh]) == [fresh]
        assert [json.loads(line)["id"] for line in
                engine.path.read_text(encoding="utf-8").splitlines()] == [
            in_file[0].alert_id, fresh.alert_id]

    def test_torn_tail_is_repaired_then_reemitted_whole(self, tmp_path):
        uninterrupted = AlertEngine(tmp_path / "a")
        alerts = AlertEngine.scan_records(
            [precursor(), precursor(node="c0-0c0s0n2")])
        uninterrupted.emit(alerts)
        expected = uninterrupted.path.read_bytes()

        crashed = AlertEngine(tmp_path / "b")
        crashed.emit(alerts[:1])
        with crashed.path.open("a", encoding="utf-8") as handle:
            handle.write('{"id": "' + alerts[1].alert_id + '", "ki')
        # resume drops the torn line and the replayed record re-emits
        # the alert whole
        engine = AlertEngine.resume(tmp_path / "b")
        assert len(engine.emit(alerts)) == 1
        assert engine.path.read_bytes() == expected
