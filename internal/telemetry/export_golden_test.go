package telemetry

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// goldenSpans records a fixed span set into a 16-span ring: roots, a
// child, a kernel-lane span (VPN 0), instants, an unfinished span, two
// guest processes (one named, one not), and enough filler to wrap the ring
// twice so eviction order is part of what the goldens pin.
func goldenSpans() *SpanBuffer {
	b := NewSpanBuffer(16)
	evicted := b.Begin("evicted", 1, 0x08050, 1)
	for i := uint64(0); i < 12; i++ {
		b.Instant("fill", 3, 0, 2+i)
	}
	b.End(evicted, 40)
	itlb := b.Begin("itlb-load", 1, 0x08048, 100)
	step := b.BeginChild("tf-single-step", 1, 0x08048, 110, itlb)
	b.End(step, 140)
	b.End(itlb, 180)
	dtlb := b.Begin("dtlb-load", 2, 0x08049, 200)
	b.End(dtlb, 230)
	b.Instant("injection-detected", 2, 0x08049, 240)
	b.Begin("slice", 1, 0, 250) // never finished
	b.BeginChild("dtlb-load", 1, 0x0bfff, 260, dtlb)
	b.Instant("exit", 1, 0, 300)
	return b
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

// TestGoldenCycleTraceEvents pins the simulated-cycle Chrome trace file
// byte for byte: lane metadata order, process names (given and default),
// page and kernel threads, slice/instant phases, args.
func TestGoldenCycleTraceEvents(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenSpans().WriteTraceEvents(&buf, map[int]string{1: "victim"}); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "cycle_trace.golden.json", buf.Bytes())
}

// TestGoldenSpansJSONL pins WriteSpansJSONL byte for byte on the same set.
func TestGoldenSpansJSONL(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenSpans().WriteSpansJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "spans.golden.jsonl", buf.Bytes())
}
