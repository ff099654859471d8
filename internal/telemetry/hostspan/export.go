package hostspan

import (
	"encoding/json"
	"io"
	"sort"
	"time"

	"splitmem/internal/telemetry"
)

// TraceDoc is the JSON wire form of one trace's spans as served by the
// /v1/traces/{id} endpoints: the replica endpoint returns its own spans,
// the gateway endpoint returns the merged set from every process the
// trace touched.
type TraceDoc struct {
	Trace string   `json:"trace"`
	Procs []string `json:"procs,omitempty"` // distinct recording processes, first-seen order
	Spans []Span   `json:"spans"`
}

// NewTraceDoc assembles a TraceDoc from (possibly multi-process) spans,
// sorted by start time so the document reads causally.
func NewTraceDoc(trace string, spans []Span) *TraceDoc {
	SortByStart(spans)
	doc := &TraceDoc{Trace: trace, Spans: spans}
	seen := map[string]bool{}
	for _, s := range spans {
		if !seen[s.Proc] {
			seen[s.Proc] = true
			doc.Procs = append(doc.Procs, s.Proc)
		}
	}
	if doc.Spans == nil {
		doc.Spans = []Span{}
	}
	return doc
}

// WriteJSON renders the trace document.
func (d *TraceDoc) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(d)
}

// SortByStart orders spans by start time (ties broken by process then
// sequence) — the causal order, given that all recording processes share
// one host clock (true for the in-process harness and single-host
// clusters; multi-host deployments inherit their clock skew).
func SortByStart(spans []Span) {
	sort.SliceStable(spans, func(i, j int) bool {
		if !spans[i].Start.Equal(spans[j].Start) {
			return spans[i].Start.Before(spans[j].Start)
		}
		if spans[i].Proc != spans[j].Proc {
			return spans[i].Proc < spans[j].Proc
		}
		return spans[i].Seq < spans[j].Seq
	})
}

// WriteTraceEvents renders spans — typically one trace's merged spans
// from the gateway and every replica it visited — as a single Chrome
// trace_event timeline loadable in Perfetto or chrome://tracing, through
// the trace-file writer shared with the simulated-cycle spans
// (telemetry.WriteTraceFile). Each recording process becomes a trace
// "process" and each trace ID a "thread" within it, so a live-migrated job
// renders as one causal track hopping across process lanes. Timestamps are
// wall-clock microseconds relative to the earliest span.
func WriteTraceEvents(w io.Writer, spans []Span) error {
	spans = append([]Span(nil), spans...)
	SortByStart(spans)

	var epoch time.Time
	if len(spans) > 0 {
		epoch = spans[0].Start
	}
	// Spans are start-sorted, so no offset from epoch is negative.
	us := func(t time.Time) uint64 {
		if t.IsZero() {
			return 0
		}
		return uint64(t.Sub(epoch).Microseconds())
	}

	// Stable process and trace lanes: pid per recording process, tid per
	// trace ID, both in first-seen (already start-sorted) order.
	events := make([]telemetry.TraceEvent, 0, len(spans)+8)
	pids := map[string]int{}
	tids := map[string]int{}
	type lane struct{ pid, tid int }
	named := map[lane]bool{}
	for _, s := range spans {
		pid, ok := pids[s.Proc]
		if !ok {
			pid = len(pids) + 1
			pids[s.Proc] = pid
			events = append(events, telemetry.LaneName("process_name", pid, 0, s.Proc))
		}
		tid, ok := tids[s.Trace]
		if !ok {
			tid = len(tids) + 1
			tids[s.Trace] = tid
		}
		if ln := (lane{pid, tid}); !named[ln] {
			named[ln] = true
			tname := "trace " + s.Trace
			if s.Trace == "" {
				tname = "process events"
			}
			events = append(events, telemetry.LaneName("thread_name", pid, tid, tname))
		}
	}

	for _, s := range spans {
		args := map[string]any{"seq": s.Seq, "proc": s.Proc}
		if s.Trace != "" {
			args["trace"] = s.Trace
		}
		if s.Parent != 0 {
			args["parent"] = s.Parent
		}
		for k, v := range s.Attrs {
			args[k] = v
		}
		if !s.Instant && s.End.IsZero() {
			args["unfinished"] = true
		}
		events = append(events, telemetry.SpanEvent(s.Name, "hostspan", pids[s.Proc], tids[s.Trace],
			us(s.Start), uint64(s.Dur().Microseconds()), s.Instant, args))
	}
	return telemetry.WriteTraceFile(w, "host wall clock (us since earliest span)", events)
}
