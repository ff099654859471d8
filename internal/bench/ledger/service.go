package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"splitmem"
	"splitmem/internal/cluster"
	"splitmem/internal/serve"
	"splitmem/internal/telemetry/hostspan"
)

// openRate is serve-open's arrival rate: half the closed-loop capacity of
// the same replica driven over 2 connections, which was 340-390 jobs/s on a
// 2-core x86-64 host (Xeon, Go 1.24).
const openRate = 170.0

// maxUnattributedShare caps serve.unattributed_ms as a share of the traced
// jobs' client latency; a traced run above it fails, since its layer
// breakdown would no longer account for the latency.
const maxUnattributedShare = 0.1

// Client patience: a 429 or 503 is retried this many times, this far
// apart, before the job counts as failed, and so does a job still running
// after jobTimeoutMS.
const (
	submitRetries = 5
	retryDelay    = 10 * time.Millisecond
	jobTimeoutMS  = 60_000
)

// drivers is the number of concurrent connections (and driver goroutines)
// a service workload uses: 2, or fewer on a smaller host.
var drivers = min(2, runtime.NumCPU())

// serviceBench drives serve-open and cluster-checkpoint through their HTTP
// APIs: a serve replica, or a cluster gateway over three replicas.
type serviceBench struct {
	mn       menu
	ors      []oracle
	bodies   [][]byte
	seed     int64
	rec      *hostspan.Recorder // nil when untraced
	tr       *http.Transport
	client   *http.Client
	url      string          // base URL of jobs and traces: the replica or the gateway
	replicas []string        // replica base URLs, scraped for /metrics
	stream   bool            // streaming submissions (the gateway's clients)
	rate     float64         // open-loop jobs per second; 0 runs a closed loop
	micro    splitmem.Config // the first program's machine, for the start-up microbenchmarks
	shutdown func()
}

func buildServeOpen(seed int64, traced bool, dir string) (instance, error) {
	mn, err := serveMenu()
	if err != nil {
		return nil, err
	}
	cfg := serve.Config{
		Workers: 2, WarmPool: true, WarmPoolSize: 64,
		JournalPath: filepath.Join(dir, "journal"),
		StreamSlice: 2_000_000, CheckpointCycles: 8_000_000,
		NoTracing: !traced, TraceSpanCap: benchSpanCap,
	}
	b, err := newServiceBench(mn, seed, traced, cfg)
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}
	ts := httptest.NewServer(srv.Handler())
	b.url, b.replicas, b.rate = ts.URL, []string{ts.URL}, openRate
	b.shutdown = func() {
		ts.Close()
		srv.Close()
	}
	// Every program once, so the warm pool holds all templates.
	return b, b.warmUp(len(mn.progs))
}

func buildClusterCheckpoint(seed int64, traced bool, dir string) (instance, error) {
	mn, err := clusterMenu()
	if err != nil {
		return nil, err
	}
	// Two workers a replica: with one, two jobs the gateway hashes to the
	// same replica run one after the other while a core idles, and that
	// routing draw alone spread latency and throughput by 10-30% between
	// runs, against 7% with two (alternating runs on a 2-core host).
	rcfg := func(i int) serve.Config {
		return serve.Config{
			Workers:     2,
			JournalPath: filepath.Join(dir, fmt.Sprintf("replica%d.journal", i)),
			StreamSlice: 1_000_000, CheckpointCycles: 1_000_000,
			NoTracing: !traced, TraceSpanCap: benchSpanCap,
		}
	}
	b, err := newServiceBench(mn, seed, traced, rcfg(0))
	if err != nil {
		return nil, err
	}
	h, err := cluster.NewHarnessFunc(3, rcfg, cluster.Config{NoTracing: !traced, TraceSpanCap: benchSpanCap})
	if err != nil {
		return nil, err
	}
	b.url, b.stream, b.shutdown = h.URL(), true, h.Close
	for _, n := range h.Nodes {
		b.replicas = append(b.replicas, n.URL())
	}
	// One short job per replica connection warms the relay path.
	return b, b.warmUp(drivers)
}

// newServiceBench builds the job bodies and runs every program's oracle the
// way a replica with cfg runs it.
func newServiceBench(mn menu, seed int64, traced bool, cfg serve.Config) (*serviceBench, error) {
	b := &serviceBench{mn: mn, seed: seed}
	if traced {
		b.rec = hostspan.NewRecorder("bench", benchSpanCap)
	}
	for i, p := range mn.progs {
		body, err := json.Marshal(serve.JobRequest{
			Name: p.name, Source: p.src, CRT: p.crt, Stdin: p.stdin, TimeoutMS: jobTimeoutMS,
		})
		if err != nil {
			return nil, err
		}
		req, err := serve.DecodeJob(body)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
		var o oracle
		if o.split, err = replicaRun(req, cfg.StreamSlice, cfg.CheckpointCycles); err != nil {
			return nil, err
		}
		if err := checkOracle(p, o.split); err != nil {
			return nil, err
		}
		if !p.attack {
			req.Config.Protection = "none"
			if o.none, err = replicaRun(req, cfg.StreamSlice, 0); err != nil {
				return nil, err
			}
		}
		if i == 0 {
			req.Config.Protection = ""
			if b.micro, err = req.MachineConfig(); err != nil {
				return nil, err
			}
		}
		b.ors = append(b.ors, o)
		b.bodies = append(b.bodies, body)
	}
	b.tr = &http.Transport{MaxConnsPerHost: drivers, MaxIdleConnsPerHost: drivers}
	b.client = &http.Client{Transport: b.tr}
	return b, nil
}

// replicaRun runs a decoded job the way a replica worker does: the job's
// own machine config and program, its stdin, slices and checkpoints.
func replicaRun(req *serve.JobRequest, slice, ckpt uint64) (outcome, error) {
	cfg, err := req.MachineConfig()
	if err != nil {
		return outcome{}, err
	}
	prog, err := req.Program()
	if err != nil {
		return outcome{}, err
	}
	m, err := splitmem.New(cfg)
	if err != nil {
		return outcome{}, err
	}
	defer m.Close()
	p, err := m.LoadProgram(prog, req.Name)
	if err != nil {
		return outcome{}, fmt.Errorf("%s: %w", req.Name, err)
	}
	if in := req.InputBytes(); len(in) > 0 {
		p.StdinWrite(in)
	}
	if !req.KeepStdin {
		p.StdinClose()
	}
	return runOutcome(m, p, slice, ckpt)
}

// warmUp runs the first n programs once each, sequentially, and requires
// every one to pass.
func (b *serviceBench) warmUp(n int) error {
	for i := 0; i < n; i++ {
		r := jobRecord{prog: i % len(b.mn.progs), due: time.Now()}
		b.do(&r)
		if !r.ok() {
			b.close()
			return fmt.Errorf("warm-up job %s: %s%s", b.mn.progs[r.prog].name, r.failure, r.violation)
		}
	}
	return nil
}

// do sends one job and files its outcome in r.
func (b *serviceBench) do(r *jobRecord) {
	if b.rec != nil {
		r.trace = hostspan.NewTraceID()
	}
	p := b.mn.progs[r.prog]
	r.sent = time.Now()
	sp := b.rec.Begin(r.trace, "bench.job", "program", p.name)
	res, shed, err := b.submit(r.prog, r.trace)
	b.rec.End(sp)
	r.done = time.Now()
	r.shed429 = shed
	var st splitmem.Stats
	if err == nil {
		switch {
		case res.TimedOut || res.Canceled:
			err = fmt.Errorf("%s: %s", p.name, res.Reason)
		case res.Stats == nil:
			err = &violation{p.name + ": result carries no stats"}
		default:
			st = *res.Stats
			if cerr := checkOutcome(p, b.ors[r.prog].split, res.Reason, st, res.Detections, res.ShellSpawned); cerr != nil {
				err = &violation{cerr.Error()}
			}
		}
	}
	r.record(st, err)
}

// submit posts program i's job, retrying refusals, and returns its result
// and how many 429s it met.
func (b *serviceBench) submit(i int, trace string) (*serve.JobResult, int, error) {
	shed := 0
	for attempt := 0; ; attempt++ {
		res, status, err := b.post(i, trace)
		if err != nil {
			return nil, shed, err
		}
		if status == http.StatusTooManyRequests {
			shed++
		}
		if (status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable) && attempt < submitRetries {
			time.Sleep(retryDelay)
			continue
		}
		if status != http.StatusOK {
			return nil, shed, fmt.Errorf("%s: HTTP %d", b.mn.progs[i].name, status)
		}
		return res, shed, nil
	}
}

// post sends one submission. A non-200 status comes back with a nil result
// and no error; a lost or duplicated result is a *violation.
func (b *serviceBench) post(i int, trace string) (*serve.JobResult, int, error) {
	url := b.url + "/v1/jobs"
	if b.stream {
		url += "?stream=1"
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(b.bodies[i]))
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if trace != "" {
		req.Header.Set(hostspan.TraceHeader, trace)
	}
	resp, err := b.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, resp.StatusCode, nil
	}
	if !b.stream {
		var res serve.JobResult
		if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
			return nil, 0, fmt.Errorf("decoding result: %w", err)
		}
		return &res, resp.StatusCode, nil
	}
	var res *serve.JobResult
	acked, results := false, 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 8<<20)
	for sc.Scan() {
		var frame struct {
			Type   string           `json:"type"`
			Result *serve.JobResult `json:"result"`
		}
		if err := json.Unmarshal(sc.Bytes(), &frame); err != nil {
			continue
		}
		switch frame.Type {
		case "accepted":
			acked = true
		case "result":
			results++
			res = frame.Result
		}
	}
	name := b.mn.progs[i].name
	switch {
	case results > 1:
		return nil, 0, &violation{fmt.Sprintf("%s: %d results for one job", name, results)}
	case results == 1 && res != nil:
		return res, resp.StatusCode, nil
	case acked:
		return nil, 0, &violation{name + ": acknowledged job lost (stream ended without a result)"}
	}
	return nil, 0, fmt.Errorf("%s: stream ended before acknowledgment: %v", name, sc.Err())
}

func (b *serviceBench) run(d time.Duration) *phase {
	if b.rate > 0 {
		return b.runOpen(d)
	}
	return b.runClosed(d)
}

// runOpen sends jobs on a seeded Poisson schedule. A job that comes due
// while every connection is busy waits in the generator and is timed from
// its due time.
func (b *serviceBench) runOpen(d time.Duration) *phase {
	sched := arrivals(b.seed, b.rate, d)
	seq := newSequence(b.mn, b.seed)
	ph := &phase{start: time.Now(), jobs: make([]jobRecord, len(sched))}
	due := make(chan int)
	var wg sync.WaitGroup
	for range drivers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range due {
				b.do(&ph.jobs[idx])
			}
		}()
	}
	for idx, off := range sched {
		r := &ph.jobs[idx]
		r.prog = seq.next()
		r.due = ph.start.Add(off)
		time.Sleep(time.Until(r.due))
		due <- idx
	}
	close(due)
	wg.Wait()
	return ph
}

// runClosed keeps one job in flight per connection until d has passed.
func (b *serviceBench) runClosed(d time.Duration) *phase {
	seq := newSequence(b.mn, b.seed)
	ph := &phase{start: time.Now()}
	deadline := ph.start.Add(d)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for range drivers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				mu.Lock()
				r := jobRecord{prog: seq.next()}
				mu.Unlock()
				r.due = time.Now()
				b.do(&r)
				mu.Lock()
				ph.jobs = append(ph.jobs, r)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return ph
}

func (b *serviceBench) exact() (map[string]float64, error) { return simMetrics(b.mn, b.ors) }

// layers reads every completed job's spans back from the service and splits
// its client latency into layer self times.
func (b *serviceBench) layers(ph *phase) (map[string]float64, []hostspan.Span, error) {
	if b.rec.Dropped() > 0 {
		return nil, nil, fmt.Errorf("bench span ring dropped %d spans", b.rec.Dropped())
	}
	spans := b.rec.Spans()
	sums := map[string]int64{} // nanoseconds per layer metric, over all jobs
	var waits []float64
	var latNS, ckpts, routes int64
	n := 0
	for _, r := range ph.jobs {
		if !r.ok() {
			continue
		}
		doc, err := b.fetchTrace(r.trace)
		if err != nil {
			return nil, nil, err
		}
		if len(doc.Spans) == 0 {
			return nil, nil, fmt.Errorf("trace %s: the service recorded no spans", r.trace)
		}
		spans = append(spans, doc.Spans...)
		self := selfTimes(r, doc.Spans)
		for name, ns := range self {
			sums[layerOf(name)] += ns
		}
		latNS += r.done.Sub(r.due).Nanoseconds()
		waits = append(waits, float64(self["rep.enqueue-wait"])/1e6)
		var sizes []int
		for _, s := range doc.Spans {
			switch s.Name {
			case "rep.checkpoint":
				ckpts++
				sz, _ := strconv.Atoi(s.Attrs["bytes"])
				sizes = append(sizes, sz)
			case "gw.route":
				routes++
			}
		}
		if want := b.ors[r.prog].split.ckptBytes; !slices.Equal(sizes, want) {
			return nil, nil, &violation{fmt.Sprintf("%s: checkpoint sizes %v, oracle %v", b.mn.progs[r.prog].name, sizes, want)}
		}
		n++
	}
	if n == 0 {
		return nil, nil, fmt.Errorf("no completed job to attribute")
	}
	if share := ratio(float64(sums["serve.unattributed_ms"]), float64(latNS)); share > maxUnattributedShare {
		return nil, nil, &violation{fmt.Sprintf("unattributed time is %.3f of client latency (limit %.2f)", share, maxUnattributedShare)}
	}
	c, err := b.replicaCounters()
	if err != nil {
		return nil, nil, err
	}
	if c.dropped > 0 {
		return nil, nil, fmt.Errorf("replica span rings dropped %v spans", c.dropped)
	}
	perJob := func(v int64) float64 { return float64(v) / float64(n) }
	out := jobMemMetrics(ph)
	for _, name := range []string{
		"serve.admit_ms", "serve.run_self_ms", "serve.run_slice_ms", "serve.checkpoint_ms",
		"serve.result_ms", "serve.unattributed_ms", "cluster.route_ms", "cluster.relay_self_ms",
	} {
		out[name] = perJob(sums[name]) / 1e6
	}
	sort.Float64s(waits)
	out["serve.enqueue_wait_p50_ms"] = percentile(waits, 0.5)
	out["serve.enqueue_wait_p99_ms"] = percentile(waits, 0.99)
	out["serve.checkpoints_per_job"] = perJob(ckpts)
	out["serve.warm_hit_ratio"] = ratio(c.warmHits, c.warmHits+c.warmMisses)
	var shed int64
	for _, r := range ph.jobs {
		shed += int64(r.shed429)
	}
	out["serve.shed_429_per_job"] = ratio(float64(shed), float64(len(ph.jobs)))
	if b.stream {
		out["cluster.retries_per_job"] = perJob(routes - int64(n))
	}
	out["cpu.run_ns_per_instr"] = ratio(float64(sums["serve.run_slice_ms"]), float64(ph.instructions()))
	boot, cold, err := startupMicro(b.micro, b.mn.progs[0].src, b.mn.progs[0].name)
	if err != nil {
		return nil, nil, err
	}
	out["splitmem.boot_us"], out["splitmem.cold_start_us"] = boot, cold
	out["snapshot.encode_ms"], out["snapshot.bytes"] = snapshotMetrics(b.mn, b.ors)
	return out, spans, nil
}

// layerOf maps a timeline bucket to the per-layer metric that sums it.
// Span names the ledger does not know count as unattributed, so a span
// added inside the program first shows up there.
func layerOf(bucket string) string {
	switch bucket {
	case "serve.admit":
		return "serve.admit_ms"
	case "rep.enqueue-wait":
		return "serve.enqueue_wait_ms"
	case "rep.run", "rep.restore":
		return "serve.run_self_ms"
	case "rep.run-slice":
		return "serve.run_slice_ms"
	case "rep.checkpoint":
		return "serve.checkpoint_ms"
	case "serve.result":
		return "serve.result_ms"
	case "gw.job":
		return "cluster.route_ms"
	case "gw.relay", "gw.migrate":
		return "cluster.relay_self_ms"
	case "loadgen.wait":
		return "loadgen.wait_ms"
	}
	return "serve.unattributed_ms"
}

// fetchTrace reads one job's spans: the replica's own, or the gateway's
// merge of its own and every replica's.
func (b *serviceBench) fetchTrace(id string) (*hostspan.TraceDoc, error) {
	resp, err := b.client.Get(b.url + "/v1/traces/" + id)
	if err != nil {
		return nil, fmt.Errorf("fetching trace %s: %w", id, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("fetching trace %s: HTTP %d", id, resp.StatusCode)
	}
	var doc hostspan.TraceDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, fmt.Errorf("decoding trace %s: %w", id, err)
	}
	return &doc, nil
}

// counters are the replica /metrics values the per-layer metrics read.
type counters struct{ warmHits, warmMisses, dropped float64 }

// replicaCounters sums the warm-pool hit and miss counters and the span
// ring drops over every replica.
func (b *serviceBench) replicaCounters() (counters, error) {
	var c counters
	for _, u := range b.replicas {
		resp, err := b.client.Get(u + "/metrics")
		if err != nil {
			return c, fmt.Errorf("scraping %s/metrics: %w", u, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return c, fmt.Errorf("scraping %s/metrics: %w", u, err)
		}
		for _, line := range strings.Split(string(body), "\n") {
			f := strings.Fields(line)
			if len(f) != 2 {
				continue
			}
			v, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				continue
			}
			switch f[0] {
			case "splitmem_serve_warm_hits_total":
				c.warmHits += v
			case "splitmem_serve_warm_misses_total":
				c.warmMisses += v
			case "splitmem_serve_hostspans_dropped_total":
				c.dropped += v
			}
		}
	}
	return c, nil
}

func (b *serviceBench) close() {
	if b.shutdown != nil {
		b.shutdown()
		b.shutdown = nil
	}
	b.tr.CloseIdleConnections()
}
