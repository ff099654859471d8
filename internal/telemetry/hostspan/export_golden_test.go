package hostspan

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// goldenSpans is a fixed wall-clock span set across two processes and
// three traces (plus process-level spans with no trace): roots, children,
// instants, attributes, and one span that never finished. It is listed
// out of start order so the exporters' sorting is part of what the
// goldens pin.
func goldenSpans() []Span {
	t0 := time.Date(2024, 5, 1, 12, 0, 0, 0, time.UTC)
	at := func(us int) time.Time { return t0.Add(time.Duration(us) * time.Microsecond) }
	return []Span{
		{Trace: "t2", Seq: 1, Name: "rep.admit", Proc: "replica:b", Start: at(900), End: at(1400),
			Attrs: map[string]string{"job": "j2"}},
		{Trace: "t1", Seq: 1, Name: "gw.job", Proc: "gateway:g", Start: at(0), End: at(5000),
			Attrs: map[string]string{"program": "gzip", "outcome": "done"}},
		{Trace: "t1", Seq: 2, Parent: 1, Name: "gw.relay", Proc: "gateway:g", Start: at(250), End: at(4750),
			Attrs: map[string]string{"replica": "b"}},
		{Trace: "t1", Seq: 2, Name: "rep.run-slice", Proc: "replica:b", Start: at(500), End: at(2500)},
		{Trace: "t1", Seq: 3, Parent: 2, Name: "rep.checkpoint", Proc: "replica:b", Start: at(2500), End: at(2500),
			Instant: true, Attrs: map[string]string{"bytes": "4096"}},
		{Trace: "t3", Seq: 4, Name: "rep.run-slice", Proc: "replica:b", Start: at(3000)}, // unfinished
		{Trace: "", Seq: 3, Name: "gw.probe", Proc: "gateway:g", Start: at(3100), End: at(3100), Instant: true,
			Attrs: map[string]string{"state": "up"}},
		{Trace: "t2", Seq: 4, Name: "gw.relay", Proc: "gateway:g", Start: at(800), End: at(1500)},
	}
}

// checkGolden compares got with testdata/name byte for byte.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s differs from its golden:\n got %s\nwant %s", name, got, want)
	}
}

// TestHostspanGoldenTraceEvents pins the wall-clock Chrome trace file byte
// for byte: process and trace lanes in first-seen order, the process-event
// lane, microsecond offsets from the earliest span, attributes folded
// into args, and the unfinished marker.
func TestHostspanGoldenTraceEvents(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTraceEvents(&buf, goldenSpans()); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "wall_trace.golden.json", buf.Bytes())
}

// TestHostspanGoldenTraceDoc pins TraceDoc.WriteJSON byte for byte.
func TestHostspanGoldenTraceDoc(t *testing.T) {
	var buf bytes.Buffer
	if err := NewTraceDoc("t1", goldenSpans()).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "tracedoc.golden.json", buf.Bytes())
}
