package main

import (
	"sort"

	"splitmem/internal/telemetry/hostspan"
)

// interval is one stretch of a job's timeline in wall-clock nanoseconds.
type interval struct {
	name string
	s, e int64
}

// jobIntervals turns one job's service spans into timeline intervals. Spans
// map to themselves. The replica records its admission (rep.admit, or
// rep.resume behind a gateway) and its result (rep.result) as instants; the
// ledger turns them into serve.admit, reaching back to the request that
// carried the job in, and serve.result, reaching forward to the response
// that carried the result out. The generator's wait before sending is
// loadgen.wait.
func jobIntervals(r jobRecord, spans []hostspan.Span) []interval {
	var ivs, relays []interval
	for _, s := range spans {
		if s.Instant || s.End.IsZero() {
			continue
		}
		iv := interval{s.Name, s.Start.UnixNano(), s.End.UnixNano()}
		ivs = append(ivs, iv)
		if s.Name == "gw.relay" {
			relays = append(relays, iv)
		}
	}
	sent, done := r.sent.UnixNano(), r.done.UnixNano()
	for _, s := range spans {
		t := s.Start.UnixNano()
		switch s.Name {
		case "rep.admit", "rep.resume":
			from := sent
			for _, rl := range relays {
				if rl.s <= t && t <= rl.e {
					from = rl.s
				}
			}
			ivs = append(ivs, interval{"serve.admit", from, t})
		case "rep.result":
			to := done
			for _, rl := range relays {
				if rl.s <= t && t <= rl.e {
					to = rl.e
				}
			}
			ivs = append(ivs, interval{"serve.result", t, to})
		}
	}
	if due := r.due.UnixNano(); due < sent {
		ivs = append(ivs, interval{"loadgen.wait", due, sent})
	}
	return ivs
}

// selfTimes splits a job's client latency, from due to done, among its
// intervals: each nanosecond goes to the innermost interval covering it —
// the one that started last, or of those the one that ends first — and
// nanoseconds no interval covers go to "" (unattributed). The values sum to
// the latency exactly.
func selfTimes(r jobRecord, spans []hostspan.Span) map[string]int64 {
	root := interval{"", r.due.UnixNano(), r.done.UnixNano()}
	var ivs []interval
	pts := []int64{root.s, root.e}
	for _, iv := range jobIntervals(r, spans) {
		iv.s, iv.e = max(iv.s, root.s), min(iv.e, root.e)
		if iv.s < iv.e {
			ivs = append(ivs, iv)
			pts = append(pts, iv.s, iv.e)
		}
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i] < pts[j] })
	out := map[string]int64{}
	for k := 0; k+1 < len(pts); k++ {
		a, b := pts[k], pts[k+1]
		if a == b {
			continue
		}
		best := -1
		for j, iv := range ivs {
			if iv.s > a || iv.e < b {
				continue
			}
			if best < 0 || iv.s > ivs[best].s || (iv.s == ivs[best].s && iv.e < ivs[best].e) {
				best = j
			}
		}
		name := root.name
		if best >= 0 {
			name = ivs[best].name
		}
		out[name] += b - a
	}
	return out
}
