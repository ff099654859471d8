package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
)

// Exporters. Three wire formats:
//
//   - WritePrometheus: Prometheus text exposition (scrape-style snapshot);
//   - WriteMetricsJSONL / WriteSpansJSONL: JSON Lines for log pipelines;
//   - WriteTraceEvents: Chrome trace_event JSON, loadable in Perfetto or
//     chrome://tracing. Simulated cycles are exported as microseconds
//     (1 cycle = 1 µs) since trace_event timestamps are µs doubles.

// WritePrometheus renders every registered metric in the Prometheus text
// exposition format. Histograms are exported with cumulative buckets,
// _sum and _count series. Nil-safe.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	for _, e := range r.entries {
		if e.help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", e.name, e.help)
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", e.name, e.kind)
		switch e.kind {
		case kindCounter:
			fmt.Fprintf(bw, "%s %d\n", e.name, e.counter.Value())
		case kindGauge:
			fmt.Fprintf(bw, "%s %s\n", e.name, formatFloat(e.gauge.Value()))
		case kindGaugeFunc:
			fmt.Fprintf(bw, "%s %s\n", e.name, formatFloat(e.fn()))
		case kindHistogram:
			h := e.hist
			cum := uint64(0)
			bounds, counts := h.Buckets()
			for i, b := range bounds {
				cum += counts[i]
				fmt.Fprintf(bw, "%s_bucket{le=\"%d\"} %d\n", e.name, b, cum)
			}
			cum += counts[len(counts)-1]
			fmt.Fprintf(bw, "%s_bucket{le=\"+Inf\"} %d\n", e.name, cum)
			fmt.Fprintf(bw, "%s_sum %d\n", e.name, h.Sum())
			fmt.Fprintf(bw, "%s_count %d\n", e.name, h.Count())
		case kindCounterVec:
			for _, it := range e.vec.Items() {
				fmt.Fprintf(bw, "%s{%s=%q} %d\n", e.name, e.vec.label, it.Label, it.Count)
			}
		}
	}
	return bw.Flush()
}

// formatFloat renders a gauge value without exponent noise for integral
// values (the common case: sampled uint64 counters).
func formatFloat(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// metricJSON is the JSONL wire form of one metric sample.
type metricJSON struct {
	Name    string       `json:"name"`
	Kind    string       `json:"kind"`
	Label   string       `json:"label,omitempty"` // CounterVec label key
	Value   *float64     `json:"value,omitempty"`
	Values  []LabelCount `json:"values,omitempty"` // CounterVec items
	Count   uint64       `json:"count,omitempty"`
	Sum     uint64       `json:"sum,omitempty"`
	Min     uint64       `json:"min,omitempty"`
	Max     uint64       `json:"max,omitempty"`
	Buckets []bucketJSON `json:"buckets,omitempty"`
}

type bucketJSON struct {
	LE    string `json:"le"` // upper bound, "+Inf" for the tail
	Count uint64 `json:"count"`
}

// WriteMetricsJSONL renders one JSON object per metric, one per line.
func (r *Registry) WriteMetricsJSONL(w io.Writer) error {
	if r == nil {
		return nil
	}
	enc := json.NewEncoder(w)
	f := func(v float64) *float64 { return &v }
	for _, e := range r.entries {
		m := metricJSON{Name: e.name, Kind: e.kind.String()}
		switch e.kind {
		case kindCounter:
			m.Value = f(float64(e.counter.Value()))
		case kindGauge:
			m.Value = f(e.gauge.Value())
		case kindGaugeFunc:
			m.Value = f(e.fn())
		case kindHistogram:
			h := e.hist
			m.Count, m.Sum, m.Min, m.Max = h.Count(), h.Sum(), h.Min(), h.Max()
			bounds, counts := h.Buckets()
			for i, b := range bounds {
				m.Buckets = append(m.Buckets, bucketJSON{LE: strconv.FormatUint(b, 10), Count: counts[i]})
			}
			m.Buckets = append(m.Buckets, bucketJSON{LE: "+Inf", Count: counts[len(counts)-1]})
		case kindCounterVec:
			m.Label = e.vec.label
			m.Values = e.vec.Items()
		}
		if err := enc.Encode(m); err != nil {
			return err
		}
	}
	return nil
}

// spanJSON is the JSONL wire form of one span.
type spanJSON struct {
	Seq     uint64 `json:"seq"`
	Parent  uint64 `json:"parent,omitempty"`
	Name    string `json:"name"`
	PID     int    `json:"pid"`
	VPN     string `json:"vpn,omitempty"` // hex page base address
	Start   uint64 `json:"start"`
	Dur     uint64 `json:"dur"`
	Instant bool   `json:"instant,omitempty"`
}

// WriteSpansJSONL renders one JSON object per recorded span, one per
// line, oldest first. Nil-safe.
func (b *SpanBuffer) WriteSpansJSONL(w io.Writer) error {
	if b == nil {
		return nil
	}
	enc := json.NewEncoder(w)
	for _, s := range b.Spans() {
		sj := spanJSON{
			Seq:     s.Seq,
			Parent:  s.Parent,
			Name:    s.Name,
			PID:     s.PID,
			Start:   s.Start,
			Dur:     s.Dur(),
			Instant: s.Instant,
		}
		if s.VPN != 0 {
			sj.VPN = fmt.Sprintf("0x%08x", s.VPN<<12)
		}
		if err := enc.Encode(sj); err != nil {
			return err
		}
	}
	return nil
}

// traceEvent is one Chrome trace_event record. The "X" phase is a
// complete (begin+end) slice; "i" is an instant; "M" is metadata naming
// processes and threads.
type traceEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    uint64         `json:"ts"` // microseconds (1 simulated cycle = 1 µs)
	Dur   uint64         `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   uint32         `json:"tid"`
	Cat   string         `json:"cat,omitempty"`
	Scope string         `json:"s,omitempty"` // instant scope
	Args  map[string]any `json:"args,omitempty"`
}

type traceFile struct {
	TraceEvents     []traceEvent      `json:"traceEvents"`
	DisplayTimeUnit string            `json:"displayTimeUnit"`
	OtherData       map[string]string `json:"otherData,omitempty"`
}

// WriteTraceEvents renders the span buffer as Chrome trace_event JSON.
// Each guest process becomes a trace "process"; each virtual page becomes
// a "thread" within it, so Perfetto lays split-engine activity out as a
// per-page heatmap over simulated time. procNames optionally maps guest
// PIDs to display names. Nil-safe.
func (b *SpanBuffer) WriteTraceEvents(w io.Writer, procNames map[int]string) error {
	spans := b.Spans()
	tf := traceFile{
		DisplayTimeUnit: "ms",
		TraceEvents:     make([]traceEvent, 0, len(spans)+16),
		OtherData: map[string]string{
			"clock": "simulated cycles (1 cycle exported as 1us)",
		},
	}

	// Metadata: name every process and every per-page track we will emit.
	type track struct {
		pid int
		vpn uint32
	}
	seenProc := map[int]bool{}
	seenTrack := map[track]bool{}
	var meta []traceEvent
	for _, s := range spans {
		if !seenProc[s.PID] {
			seenProc[s.PID] = true
			name := procNames[s.PID]
			if name == "" {
				name = fmt.Sprintf("pid %d", s.PID)
			}
			meta = append(meta, traceEvent{
				Name: "process_name", Phase: "M", PID: s.PID,
				Args: map[string]any{"name": name},
			})
		}
		tr := track{pid: s.PID, vpn: s.VPN}
		if !seenTrack[tr] {
			seenTrack[tr] = true
			tname := "kernel"
			if s.VPN != 0 {
				tname = fmt.Sprintf("page 0x%08x", s.VPN<<12)
			}
			meta = append(meta, traceEvent{
				Name: "thread_name", Phase: "M", PID: s.PID, TID: s.VPN,
				Args: map[string]any{"name": tname},
			})
		}
	}
	sort.SliceStable(meta, func(i, j int) bool {
		if meta[i].PID != meta[j].PID {
			return meta[i].PID < meta[j].PID
		}
		return meta[i].TID < meta[j].TID
	})
	tf.TraceEvents = append(tf.TraceEvents, meta...)

	for _, s := range spans {
		ev := traceEvent{
			Name: s.Name,
			TS:   s.Start,
			PID:  s.PID,
			TID:  s.VPN,
			Cat:  "splitmem",
			Args: map[string]any{"seq": s.Seq},
		}
		if s.Parent != 0 {
			ev.Args["parent"] = s.Parent
		}
		if s.VPN != 0 {
			ev.Args["page"] = fmt.Sprintf("0x%08x", s.VPN<<12)
		}
		if s.Instant {
			ev.Phase = "i"
			ev.Scope = "t"
		} else {
			ev.Phase = "X"
			ev.Dur = s.Dur()
		}
		tf.TraceEvents = append(tf.TraceEvents, ev)
	}

	enc := json.NewEncoder(w)
	return enc.Encode(tf)
}
