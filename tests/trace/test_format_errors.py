"""Loader hardening: typed TraceFormatError with file:line context,
the truncated flag, and the v2 world-plane stream."""

import json

import pytest

from repro.trace import (
    SUPPORTED_VERSIONS,
    TraceFormatError,
    read_trace,
    write_trace,
)

from tests.trace.conftest import record_hall


def _write(tmp_path, lines):
    path = tmp_path / "t.trace"
    path.write_text("\n".join(lines) + "\n")
    return path


META = ('{"kind": "meta", "format": "repro.trace", "format_version": 2, '
        '"capacity": 64, "truncated": false}')


def test_format_error_is_a_value_error():
    assert issubclass(TraceFormatError, ValueError)


def test_missing_file_is_a_format_error(tmp_path):
    with pytest.raises(TraceFormatError, match="cannot read trace"):
        read_trace(tmp_path / "never_recorded.trace")


def test_missing_file_exits_2_everywhere(tmp_path, capsys):
    from repro.cli import main

    gone = str(tmp_path / "gone.trace")
    for argv in (["trace", "report", gone], ["trace", "export", gone],
                 ["replay", "verify", gone]):
        assert main(argv) == 2, argv
        assert "gone.trace" in capsys.readouterr().err


def test_malformed_json_line_names_file_and_line(tmp_path):
    path = _write(tmp_path, [META, '{"kind": "summary"}', "{broken"])
    with pytest.raises(TraceFormatError, match=r"t\.trace:3: malformed JSON"):
        read_trace(path)
    try:
        read_trace(path)
    except TraceFormatError as exc:
        assert exc.lineno == 3
        assert exc.path.endswith("t.trace")


def test_non_object_line_is_rejected(tmp_path):
    path = _write(tmp_path, [META, "[1, 2, 3]"])
    with pytest.raises(TraceFormatError, match=r":2: .*not a JSON object"):
        read_trace(path)


def test_missing_header_is_rejected(tmp_path):
    path = _write(tmp_path, ['{"kind": "summary"}'])
    with pytest.raises(TraceFormatError, match="missing meta header"):
        read_trace(path)


def test_foreign_format_is_rejected(tmp_path):
    path = _write(tmp_path, ['{"kind": "meta", "format": "other.tool", '
                             '"format_version": 2}'])
    with pytest.raises(TraceFormatError, match="missing meta header"):
        read_trace(path)


def test_unsupported_version_is_rejected(tmp_path):
    path = _write(tmp_path, ['{"kind": "meta", "format": "repro.trace", '
                             '"format_version": 99}'])
    with pytest.raises(TraceFormatError, match="format_version"):
        read_trace(path)
    assert 99 not in SUPPORTED_VERSIONS


def test_unknown_line_kind_is_rejected(tmp_path):
    path = _write(tmp_path, [META, '{"kind": "telegram"}'])
    with pytest.raises(TraceFormatError, match=r":2: unknown trace line kind"):
        read_trace(path)


# Well-formed lines, broken one field at a time (``...`` drops it).
EVENT = {"kind": "n", "pid": 0, "gseq": 1, "t": 0.5, "digest": "00" * 8,
         "key": [0, 1], "stamps": {}}
SEND = {"kind": "s", "pid": 0, "gseq": 2, "t": 0.5, "digest": "00" * 8,
        "mid": 0, "src": 0, "dst": 1, "msg_kind": "strobe", "size": 1}
DETECTION = {"kind": "detection", "detector": "online_strobe_vector",
             "trigger": [0, 1], "var": "x0", "value": "1", "label": "firm",
             "emit_time": 1.0, "host": 0}


def _broken(base, **fields):
    row = {**base, **fields}
    return json.dumps({k: v for k, v in row.items() if v is not ...})


@pytest.mark.parametrize("line", [
    '{"kind": "n", "pid": 0}',
    _broken(EVENT, gseq=None),
    _broken(EVENT, t="x"),
    _broken(EVENT, pid=True),
    _broken(EVENT, digest=...),
    _broken(EVENT, key=[0]),
    _broken(SEND, mid="0"),
    _broken(SEND, dst=None, size=1.5),
    _broken(DETECTION, host=...),
    _broken(DETECTION, trigger="p0#1"),
    _broken(DETECTION, emit_time=None),
], ids=["missing-gseq", "null-gseq", "string-t", "bool-pid",
        "missing-digest", "short-key", "string-mid", "float-size",
        "detection-missing-host", "detection-string-trigger",
        "detection-null-emit_time"])
def test_malformed_event_line_is_rejected(tmp_path, capsys, line):
    """read_trace raises a typed error naming the line; trace report
    and export exit 2 on it."""
    from repro.cli import main

    kind = json.loads(line)["kind"]
    what = "detection" if kind == "detection" else f"'{kind}' event"
    path = _write(tmp_path, [META, line])
    with pytest.raises(TraceFormatError, match=f":2: malformed {what} line"):
        read_trace(path)
    for argv in (["trace", "report", str(path)],
                 ["trace", "export", str(path), "--out", f"{path}.json"]):
        assert main(argv) == 2, argv
        assert "t.trace:2:" in capsys.readouterr().err


def test_world_line_missing_keys_is_rejected(tmp_path):
    path = _write(tmp_path, [META, '{"kind": "w", "t": 1.0, "gseq": 3}'])
    with pytest.raises(TraceFormatError, match=r"world line is missing"):
        read_trace(path)


def test_v1_files_still_load(tmp_path):
    path = _write(tmp_path, [
        '{"kind": "meta", "format": "repro.trace", "format_version": 1, '
        '"capacity": 64}',
        '{"kind": "summary", "detections": 0, "evicted": {"0": 0}}',
    ])
    trace = read_trace(path)
    assert trace.world == []
    assert trace.truncated is False
    assert trace.manifest_spec is None


# ---------------------------------------------------------------------------
# The truncated flag
# ---------------------------------------------------------------------------

def test_truncated_flag_round_trips(tmp_path):
    _, _, rec = record_hall(seed=0, capacity=16, duration=30.0)
    assert any(rec.evicted.values())
    trace = read_trace(write_trace(tmp_path / "tiny.trace", rec))
    assert trace.meta["truncated"] is True
    assert trace.truncated is True


def test_untruncated_recording_reads_false(tmp_path):
    _, _, rec = record_hall(seed=0, duration=30.0)
    assert not any(rec.evicted.values())
    trace = read_trace(write_trace(tmp_path / "full.trace", rec))
    assert trace.meta["truncated"] is False
    assert trace.truncated is False


# ---------------------------------------------------------------------------
# World-plane lines (v2)
# ---------------------------------------------------------------------------

def test_world_stream_round_trips_in_gseq_order(tmp_path):
    hall, _, rec = record_hall(seed=0, duration=30.0)
    assert rec.world_events, "hall run must produce world changes"
    path = write_trace(tmp_path / "w.trace", rec)
    trace = read_trace(path)
    assert len(trace.world) == len(rec.world_events)
    assert trace.summary["world"] == len(trace.world)
    assert trace.summary["world_opaque"] == 0
    gseqs = [w["gseq"] for w in trace.world]
    assert gseqs == sorted(gseqs)
    for w in trace.world:
        assert {"t", "obj", "attr", "value", "gseq"} <= set(w)
    # File body is interleaved by gseq across both planes.
    body_gseqs = [
        json.loads(line)["gseq"]
        for line in path.read_text().splitlines()
        if json.loads(line).get("kind") in
        ("c", "n", "a", "s", "r", "drop", "w")
    ]
    assert body_gseqs == sorted(body_gseqs)


def test_world_listener_fires_before_sensor_notification():
    from repro.sim.kernel import Simulator
    from repro.world.objects import WorldState

    sim = Simulator()
    world = WorldState(sim)
    world.create("door")
    order = []
    world.add_listener(lambda change: order.append(("tap", change.new)))
    world.subscribe(lambda change: order.append(("sensor", change.new)),
                    obj="door", attr="open")
    world.set_attribute("door", "open", True)
    assert order == [("tap", True), ("sensor", True)]


def test_opaque_world_values_are_wrapped_and_counted():
    from repro.sim.kernel import Simulator
    from repro.trace import FlightRecorder
    from repro.world.objects import WorldState

    sim = Simulator()
    world = WorldState(sim)
    world.create("box")
    rec = FlightRecorder(sim, capacity=64)
    world.add_listener(rec.record_world)
    world.set_attribute("box", "weird", {"not": "a scalar"})
    world.set_attribute("box", "fine", 3.5)
    assert rec.world_opaque == 1
    values = [w["value"] for w in rec.world_events]
    assert values[0][0] == "repr"
    assert values[1] == 3.5
