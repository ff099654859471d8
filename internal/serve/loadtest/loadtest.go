// Package loadtest is the load-generation harness for splitmem-serve: many
// concurrent clients hammering one server, with the bookkeeping needed to
// prove the service's admission contract — every acknowledged job reaches a
// terminal result (zero dropped-then-acknowledged jobs), every shed job is
// an explicit 429, and streams always end in exactly one result line.
//
// It drives the service through its public HTTP surface only, so the same
// harness runs against an httptest server (the -race integration tests), a
// live process (cmd/splitmem-serve -selftest), and the benchmark row.
package loadtest

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"splitmem/internal/faultmesh"
)

// busyLoop is the default job: a source program that spins long enough to
// make worker contention real, then exits cleanly.
const busyLoop = `
_start:
    mov ecx, 20000
spin:
    add eax, 1
    sub ecx, 1
    cmp ecx, 0
    jnz spin
    mov ebx, 0
    mov eax, 1          ; exit(0)
    int 0x80
`

// DefaultJobBody returns the standard loadgen submission.
func DefaultJobBody(client, job int) ([]byte, error) {
	return json.Marshal(map[string]any{
		"name":   fmt.Sprintf("loadgen-c%d-j%d", client, job),
		"source": busyLoop,
	})
}

// Config shapes a load run.
type Config struct {
	BaseURL string // e.g. "http://127.0.0.1:8086" (no trailing slash)

	Clients int  // concurrent clients (default 64)
	Jobs    int  // jobs per client (default 4)
	Stream  bool // exercise the NDJSON streaming path

	// Body builds the submission for (client, job). Default: DefaultJobBody.
	Body func(client, job int) ([]byte, error)

	HTTP       *http.Client  // default: a fresh client with no timeout
	MaxRetries int           // 429 retries per job before giving up (default 200)
	RetryDelay time.Duration // wait between 429 retries (default 20ms)

	// Retry503 also retries 503 responses. Against a single replica a 503
	// means draining (terminal); against a gateway it is a transient
	// no-replica window during a rolling restart, worth waiting out.
	Retry503 bool

	// Seed drives the per-client retry jitter streams (each client waits a
	// jittered RetryDelay in [d/2, d) so a shed storm's retries do not
	// re-arrive in lockstep). Equal seeds give equal schedules.
	Seed uint64

	// OnResult, when set, receives every terminal result as raw JSON —
	// the hook cluster tests use to oracle-compare migrated jobs.
	OnResult func(client, job int, result []byte)

	// OnEvent, when set, receives every streamed event line as raw JSON
	// (stream mode only) — the hook the chaos campaign uses to byte-compare
	// stitched event streams against the fault-free oracle.
	OnEvent func(client, job int, event []byte)
}

// Report is the outcome of a load run.
type Report struct {
	Clients int
	Jobs    int // jobs per client

	Acknowledged int // submissions the server accepted (2xx / accepted line)
	Completed    int // acknowledged jobs that reached a terminal result
	Rejected429  int // explicit queue-full shed responses (retried)
	Rejected503  int // unavailable responses retried (Retry503 mode)
	Migrated     int // completed jobs whose result was marked migrated
	GaveUp       int // jobs that exhausted their 429 retry budget
	Failures     []string

	Wall       time.Duration
	JobsPerSec float64 // completed jobs per wall-clock second
}

// Lost reports acknowledged jobs that never produced a terminal result —
// the number the service contract requires to be zero.
func (r *Report) Lost() int { return r.Acknowledged - r.Completed }

// Run executes the load test. The returned error covers harness failures
// only; contract violations land in Report.Failures so the caller can
// report them all.
func Run(cfg Config) (*Report, error) {
	if cfg.BaseURL == "" {
		return nil, fmt.Errorf("loadtest: BaseURL required")
	}
	if cfg.Clients <= 0 {
		cfg.Clients = 64
	}
	if cfg.Jobs <= 0 {
		cfg.Jobs = 4
	}
	if cfg.Body == nil {
		cfg.Body = DefaultJobBody
	}
	if cfg.HTTP == nil {
		cfg.HTTP = &http.Client{}
	}
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = 200
	}
	if cfg.RetryDelay <= 0 {
		cfg.RetryDelay = 20 * time.Millisecond
	}

	var (
		acked, completed, rejected, rejected503, migrated, gaveUp atomic.Int64
		mu                                                        sync.Mutex
		failures                                                  []string
	)
	fail := func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		if len(failures) < 32 { // keep reports readable under systemic failure
			failures = append(failures, fmt.Sprintf(format, args...))
		}
	}

	url := cfg.BaseURL + "/v1/jobs"
	if cfg.Stream {
		url += "?stream=1"
	}

	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < cfg.Clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			jit := faultmesh.NewJitter(cfg.Seed ^ (uint64(c)+1)*0x9E3779B97F4A7C15)
			for j := 0; j < cfg.Jobs; j++ {
				body, err := cfg.Body(c, j)
				if err != nil {
					fail("c%d j%d: build body: %v", c, j, err)
					continue
				}
				ok := false
				for attempt := 0; attempt <= cfg.MaxRetries; attempt++ {
					resp, err := cfg.HTTP.Post(url, "application/json", bytes.NewReader(body))
					if err != nil {
						fail("c%d j%d: POST: %v", c, j, err)
						break
					}
					if resp.StatusCode == http.StatusTooManyRequests ||
						(cfg.Retry503 && resp.StatusCode == http.StatusServiceUnavailable) {
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
						if resp.StatusCode == http.StatusTooManyRequests {
							rejected.Add(1)
						} else {
							rejected503.Add(1)
						}
						time.Sleep(jit.Scale(cfg.RetryDelay))
						continue
					}
					if resp.StatusCode != http.StatusOK {
						b, _ := io.ReadAll(resp.Body)
						resp.Body.Close()
						fail("c%d j%d: status %d: %s", c, j, resp.StatusCode, bytes.TrimSpace(b))
						break
					}
					sink := resultSink{acked: &acked, completed: &completed, migrated: &migrated}
					if cfg.OnResult != nil {
						c, j := c, j
						sink.onResult = func(raw []byte) { cfg.OnResult(c, j, raw) }
					}
					if cfg.OnEvent != nil {
						c, j := c, j
						sink.onEvent = func(raw []byte) { cfg.OnEvent(c, j, raw) }
					}
					if cfg.Stream {
						err = consumeStream(resp.Body, sink)
					} else {
						err = consumeSync(resp.Body, sink)
					}
					resp.Body.Close()
					if err != nil {
						fail("c%d j%d: %v", c, j, err)
					}
					ok = true
					break
				}
				if !ok {
					gaveUp.Add(1)
				}
			}
		}()
	}
	wg.Wait()

	rep := &Report{
		Clients:      cfg.Clients,
		Jobs:         cfg.Jobs,
		Acknowledged: int(acked.Load()),
		Completed:    int(completed.Load()),
		Rejected429:  int(rejected.Load()),
		Rejected503:  int(rejected503.Load()),
		Migrated:     int(migrated.Load()),
		GaveUp:       int(gaveUp.Load()),
		Failures:     failures,
		Wall:         time.Since(start),
	}
	if rep.Wall > 0 {
		rep.JobsPerSec = float64(rep.Completed) / rep.Wall.Seconds()
	}
	return rep, nil
}

// resultSink carries the run's counters plus the optional per-result and
// per-event hooks into the stream consumers.
type resultSink struct {
	acked, completed, migrated *atomic.Int64
	onResult                   func(raw []byte)
	onEvent                    func(raw []byte)
}

func (s resultSink) result(raw []byte) {
	s.completed.Add(1)
	var res struct {
		Migrated bool `json:"migrated"`
	}
	if json.Unmarshal(raw, &res) == nil && res.Migrated {
		s.migrated.Add(1)
	}
	if s.onResult != nil {
		s.onResult(raw)
	}
}

// consumeSync reads a synchronous JSON result. A 200 is the acknowledgment
// and the body is the terminal record, so both counters move together —
// unless the body is garbage, which is a contract violation.
func consumeSync(r io.Reader, sink resultSink) error {
	sink.acked.Add(1)
	body, err := io.ReadAll(r)
	if err != nil {
		return fmt.Errorf("reading sync result: %v", err)
	}
	var res struct {
		Reason string `json:"reason"`
	}
	if err := json.Unmarshal(body, &res); err != nil {
		return fmt.Errorf("bad sync result: %v", err)
	}
	if res.Reason == "" {
		return fmt.Errorf("sync result missing reason")
	}
	sink.result(body)
	return nil
}

// consumeStream reads an NDJSON stream and enforces its shape: an accepted
// line, any number of event lines, exactly one terminal result line, and
// nothing after it. A stream that ends without a result line is a
// dropped-then-acknowledged job — the failure the harness exists to catch.
func consumeStream(r io.Reader, sink resultSink) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 8<<20)
	var sawAccepted, sawResult bool
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var msg struct {
			Type   string          `json:"type"`
			Result json.RawMessage `json:"result"`
		}
		if err := json.Unmarshal(line, &msg); err != nil {
			return fmt.Errorf("unparseable stream line %q: %v", line, err)
		}
		switch msg.Type {
		case "accepted":
			if sawAccepted {
				return fmt.Errorf("duplicate accepted line")
			}
			sawAccepted = true
			sink.acked.Add(1)
		case "event":
			if !sawAccepted {
				return fmt.Errorf("event line before accepted")
			}
			if sink.onEvent != nil {
				sink.onEvent(append([]byte(nil), line...))
			}
		case "result":
			if !sawAccepted {
				return fmt.Errorf("result line before accepted")
			}
			if sawResult {
				return fmt.Errorf("duplicate result line")
			}
			sawResult = true
			sink.result(msg.Result)
		default:
			return fmt.Errorf("unknown stream line type %q", msg.Type)
		}
		if sawResult {
			// Anything after the result line breaks the framing contract.
			for sc.Scan() {
				if len(bytes.TrimSpace(sc.Bytes())) > 0 {
					return fmt.Errorf("data after result line")
				}
			}
			break
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("stream read: %v", err)
	}
	if sawAccepted && !sawResult {
		return fmt.Errorf("stream truncated: accepted but no result line")
	}
	if !sawAccepted {
		return fmt.Errorf("stream had no accepted line")
	}
	return nil
}

// String renders the report the way the selftest prints it.
func (r *Report) String() string {
	s := fmt.Sprintf("loadtest: %d clients x %d jobs: %d acknowledged, %d completed, %d lost, %d shed (429), %d unavailable (503), %d migrated, %d gave up in %v (%.1f jobs/s)",
		r.Clients, r.Jobs, r.Acknowledged, r.Completed, r.Lost(), r.Rejected429, r.Rejected503, r.Migrated, r.GaveUp,
		r.Wall.Round(time.Millisecond), r.JobsPerSec)
	for _, f := range r.Failures {
		s += "\n  FAIL: " + f
	}
	return s
}
