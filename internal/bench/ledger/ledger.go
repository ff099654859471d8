package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"splitmem"
	"splitmem/internal/telemetry/hostspan"
)

// metricDef names one metric and its unit. The bounded lists below and
// BENCHMARK.json must agree (TestBenchmarkFileMatches).
type metricDef struct{ name, unit string }

// endToEndMetrics carry a regression bound in BENCHMARK.json and make up
// the result line of an untraced run.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"slo_met_ratio", "ratio"},
	{"sim_norm_perf", "ratio"},
	{"sim_cpi", "cycles/instr"},
}

// unboundedMetrics are the host-measured end-to-end metrics whose spread
// between runs on a shared host exceeds a 10% bound, at 20 s and at 30 s
// runs alike (doc.go). An untraced run prints them by name with their
// units in its summary and -json report, but not in the result line.
var unboundedMetrics = []metricDef{
	{"host_mips", "Minstr/s"},
	{"jobs_per_s", "1/s"},
	{"job_p50_ms", "ms"},
	{"job_tail_ms", "ms"},
	{"rss_peak_mib", "MiB"},
}

var perLayerMetrics = []metricDef{
	{"cpu.run_ns_per_instr", "ns/instr"},
	{"cpu.sb_entered_per_kinstr", "1/kinstr"},
	{"cpu.sb_side_exit_ratio", "ratio"},
	{"cpu.decode_hit_rate", "ratio"},
	{"tlb.itlb_hit_rate", "ratio"},
	{"tlb.dtlb_hit_rate", "ratio"},
	{"tlb.itlb_misses_per_kinstr", "1/kinstr"},
	{"tlb.dtlb_misses_per_kinstr", "1/kinstr"},
	{"tlb.lookup_ns", "ns"},
	{"core.itlb_loads_per_kinstr", "1/kinstr"},
	{"core.dtlb_loads_per_kinstr", "1/kinstr"},
	{"core.detections_per_attack", "count"},
	{"core.host_ns_per_tlb_load", "ns"},
	{"kernel.ctxsw_per_kinstr", "1/kinstr"},
	{"kernel.syscalls_per_kinstr", "1/kinstr"},
	{"kernel.pf_cycles_share", "ratio"},
	{"core.dbg_cycles_share", "ratio"},
	{"paging.walk_cycles_share", "ratio"},
	{"kernel.ctxsw_cycles_share", "ratio"},
	{"sim.unexplained_cycles_share", "ratio"},
	{"splitmem.boot_us", "us"},
	{"splitmem.cold_start_us", "us"},
	{"mem.private_frames_per_job", "count"},
	{"mem.cow_copies_per_job", "count"},
	{"snapshot.encode_ms", "ms"},
	{"snapshot.bytes", "bytes"},
	{"serve.admit_ms", "ms"},
	{"serve.enqueue_wait_p50_ms", "ms"},
	{"serve.enqueue_wait_p99_ms", "ms"},
	{"serve.run_self_ms", "ms"},
	{"serve.run_slice_ms", "ms"},
	{"serve.checkpoint_ms", "ms"},
	{"serve.checkpoints_per_job", "count"},
	{"serve.result_ms", "ms"},
	{"serve.unattributed_ms", "ms"},
	{"serve.warm_hit_ratio", "ratio"},
	{"serve.shed_429_per_job", "count"},
	{"cluster.route_ms", "ms"},
	{"cluster.relay_self_ms", "ms"},
	{"cluster.retries_per_job", "count"},
	{"loadgen.lag_p99_ms", "ms"},
	{"telemetry.trace_overhead_ratio", "ratio"},
}

// setupSamples is how many fresh processes time the set-up in an
// untraced run; setup_s is their median.
const setupSamples = 3

// traceSlices is how many slices of each instance a traced run alternates,
// so host drift lands on the traced and the untraced side alike.
const traceSlices = 4

// benchSpanCap bounds the benchmark's own span ring and the servers' rings
// in a traced run, several times what a 30-second traced phase records. A
// run that overflows a ring fails rather than undercounting.
const benchSpanCap = 1 << 15

// instance is one set-up workload, ready to measure.
type instance interface {
	// run drives jobs for d, then lets the jobs in flight finish.
	run(d time.Duration) *phase
	// exact returns the menu's simulated metrics (seed-independent).
	exact() (map[string]float64, error)
	// layers returns the host per-layer metrics of a traced phase and the
	// spans behind them.
	layers(ph *phase) (map[string]float64, []hostspan.Span, error)
	close()
}

// violation is a wrong job result: it fails the run instead of counting as
// a failed job.
type violation struct{ msg string }

func (v *violation) Error() string { return v.msg }

// jobRecord is one attempted job of a measured phase.
type jobRecord struct {
	prog            int
	trace           string
	due, sent, done time.Time
	stats           splitmem.Stats
	failure         string // why the job did not complete: refused, timed out, transport error
	violation       string // a result the oracle contradicts
	shed429         int    // 429 responses this job received before admission
}

// record files a finished job's stats and error.
func (r *jobRecord) record(st splitmem.Stats, err error) {
	r.stats = st
	var v *violation
	switch {
	case errors.As(err, &v):
		r.violation = v.msg
	case err != nil:
		r.failure = err.Error()
	}
}

func (r *jobRecord) ok() bool { return r.failure == "" && r.violation == "" }

// phase is one measured stretch of a workload.
type phase struct {
	start time.Time
	jobs  []jobRecord
}

// add appends another phase's jobs, as one traced run's slices are pooled.
func (ph *phase) add(o *phase) {
	if ph.start.IsZero() {
		ph.start = o.start
	}
	ph.jobs = append(ph.jobs, o.jobs...)
}

func (ph *phase) instructions() uint64 {
	var n uint64
	for _, r := range ph.jobs {
		if r.ok() {
			n += r.stats.Instructions
		}
	}
	return n
}

// elapsed runs from the phase start to the last job's result.
func (ph *phase) elapsed() time.Duration {
	end := ph.start
	for _, r := range ph.jobs {
		if r.done.After(end) {
			end = r.done
		}
	}
	return end.Sub(ph.start)
}

func (ph *phase) completed() int {
	n := 0
	for _, r := range ph.jobs {
		if r.ok() {
			n++
		}
	}
	return n
}

// rates returns completed jobs and their retired guest instructions per
// host second, from the phase start to the last result.
func (ph *phase) rates() (jobsPerSec, instrPerSec float64) {
	e := ph.elapsed().Seconds()
	return ratio(float64(ph.completed()), e), ratio(float64(ph.instructions()), e)
}

// violations lists the distinct wrong results of a phase.
func (ph *phase) violations() []string {
	seen := map[string]bool{}
	var out []string
	for _, r := range ph.jobs {
		if r.violation != "" && !seen[r.violation] {
			seen[r.violation] = true
			out = append(out, r.violation)
		}
	}
	return out
}

// percentile is the nearest-rank p-quantile of sorted values.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p * float64(len(sorted))))
	return sorted[max(rank, 1)-1]
}

// tailPercentile picks the highest of p99, p95 and p90 with at least ten
// samples beyond it (p90 when even that has fewer).
func tailPercentile(n int) float64 {
	for _, p := range []float64{0.99, 0.95, 0.90} {
		if n-int(math.Ceil(p*float64(n))) >= 10 {
			return p
		}
	}
	return 0.90
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 0.5)
}

// tailInfo says which percentile job_tail_ms is, over how many samples.
type tailInfo struct {
	Percentile float64 `json:"percentile"`
	Samples    int     `json:"samples"`
}

// latenciesMS lists the completed jobs' latencies, due to result, sorted.
func latenciesMS(ph *phase) []float64 {
	var lat []float64
	for _, r := range ph.jobs {
		if r.ok() {
			lat = append(lat, float64(r.done.Sub(r.due).Nanoseconds())/1e6)
		}
	}
	sort.Float64s(lat)
	return lat
}

// endToEnd computes the end-to-end metrics of a measured phase, except
// setup_s, as measured on the host.
func endToEnd(w workload, ph *phase, exact map[string]float64) (map[string]float64, tailInfo) {
	lat := latenciesMS(ph)
	met := 0
	for _, l := range lat {
		if l <= float64(w.slo)/float64(time.Millisecond) {
			met++
		}
	}
	tail := tailInfo{Percentile: tailPercentile(len(lat)), Samples: len(lat)}
	jps, ips := ph.rates()
	return map[string]float64{
		"host_mips":     ips / 1e6,
		"jobs_per_s":    jps,
		"job_p50_ms":    percentile(lat, 0.5),
		"job_tail_ms":   percentile(lat, tail.Percentile),
		"slo_met_ratio": ratio(float64(met), float64(len(ph.jobs))),
		"sim_norm_perf": exact["sim_norm_perf"],
		"sim_cpi":       exact["sim_cpi"],
		"rss_peak_mib":  peakRSSMiB(),
	}, tail
}

// peakRSSMiB is this process's peak resident set.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// result is what one run of the benchmark reports.
type result struct {
	Correct    bool
	Attempted  int
	Failed     int
	Metrics    map[string]float64
	Exact      map[string]float64 // the menu's simulated metrics (simMetrics)
	Violations []string
	Tail       tailInfo
	Spans      []hostspan.Span
}

// setUp builds an instance in a fresh subdirectory of dir.
func setUp(w workload, seed int64, traced bool, dir string) (instance, error) {
	sub, err := os.MkdirTemp(dir, "setup-")
	if err != nil {
		return nil, err
	}
	inst, err := w.build(seed, traced, sub)
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	return inst, nil
}

// measure runs one workload untraced: it times the set-up in the given
// number of fresh processes, then sets up once more itself and measures
// for d.
func measure(w workload, seed int64, d time.Duration, setups int, dir string) (*result, error) {
	var secs []float64
	for i := 0; i < setups; i++ {
		s, err := coldSetup(w, seed, dir)
		if err != nil {
			return nil, err
		}
		secs = append(secs, s)
	}
	inst, err := setUp(w, seed, false, dir)
	if err != nil {
		return nil, err
	}
	defer inst.close()
	exact, err := inst.exact()
	if err != nil {
		return nil, err
	}
	// Measure from a collected heap, so set-up garbage does not decide when
	// the first collections land.
	runtime.GC()
	ph := inst.run(d)
	res := &result{Exact: exact}
	res.Metrics, res.Tail = endToEnd(w, ph, exact)
	res.Metrics["setup_s"] = median(secs)
	res.tally(ph)
	return res, nil
}

// measureTraced sets up an untraced and a traced instance and alternates
// between them, traceSlices slices each and d/2 in all per instance, so
// host drift lands on both sides of telemetry.trace_overhead_ratio. It
// reports the per-layer metrics of the traced side.
func measureTraced(w workload, seed int64, d time.Duration, dir string) (*result, error) {
	plain, err := setUp(w, seed, false, dir)
	if err != nil {
		return nil, err
	}
	defer plain.close()
	inst, err := setUp(w, seed, true, dir)
	if err != nil {
		return nil, err
	}
	defer inst.close()
	runtime.GC()
	var base, ph phase
	slice := d / (2 * traceSlices)
	for i := 0; i < traceSlices; i++ {
		base.add(plain.run(slice))
		ph.add(inst.run(slice))
	}
	res := &result{}
	res.tally(&base)
	res.tally(&ph)
	exact, err := inst.exact()
	if err != nil {
		return nil, err
	}
	res.Exact = exact
	host, spans, err := inst.layers(&ph)
	if v := (*violation)(nil); errors.As(err, &v) {
		res.Violations = append(res.Violations, v.msg)
		res.Correct = false
	} else if err != nil {
		return nil, err
	}
	res.Metrics = map[string]float64{}
	for _, part := range []map[string]float64{exact, host} {
		for k, v := range part {
			res.Metrics[k] = v
		}
	}
	res.Metrics["tlb.lookup_ns"] = tlbLookupNS(seed)
	if res.Metrics["core.host_ns_per_tlb_load"], err = trapLoadNS(); err != nil {
		return nil, err
	}
	res.Metrics["loadgen.lag_p99_ms"] = lagP99MS(&ph)
	// Median latency rather than throughput: an open loop's throughput is
	// its arrival rate, traced or not.
	res.Metrics["telemetry.trace_overhead_ratio"] = ratio(percentile(latenciesMS(&base), 0.5), percentile(latenciesMS(&ph), 0.5))
	res.Spans = spans
	return res, nil
}

// tally adds a phase's job counts and violations to the result.
func (res *result) tally(ph *phase) {
	res.Attempted += len(ph.jobs)
	for _, r := range ph.jobs {
		if r.failure != "" {
			res.Failed++
		}
	}
	res.Violations = append(res.Violations, ph.violations()...)
	res.Correct = len(res.Violations) == 0
}

// lagP99MS is how late an open-loop generator sent, at p99.
func lagP99MS(ph *phase) float64 {
	var lag []float64
	for _, r := range ph.jobs {
		lag = append(lag, float64(r.sent.Sub(r.due).Nanoseconds())/1e6)
	}
	sort.Float64s(lag)
	return percentile(lag, 0.99)
}

// jobMemMetrics averages the frame-store counters over completed jobs.
func jobMemMetrics(ph *phase) map[string]float64 {
	var priv, cow float64
	n := float64(ph.completed())
	for _, r := range ph.jobs {
		if r.ok() {
			priv += float64(r.stats.MemPrivateFrames)
			cow += float64(r.stats.MemCowCopies)
		}
	}
	return map[string]float64{
		"mem.private_frames_per_job": ratio(priv, n),
		"mem.cow_copies_per_job":     ratio(cow, n),
	}
}

// runDir is where a run keeps journals and other scratch files: inside the
// working directory, removed at exit.
func runDir() (string, error) {
	base := filepath.Join(".bench_build", "ledger")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, "run-")
}
