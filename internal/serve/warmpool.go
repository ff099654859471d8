package serve

// The warm pool: instead of building a fresh machine and loading the program
// into it per job, the first job for each distinct (program, config) pair
// builds a template — a machine parked right after LoadProgram, frozen into a
// splitmem.Image — and every later job forks from it, sharing all physical
// frames copy-on-write. It does not save the assembly: admission assembles
// every job's source, warm hit or not, to reject bad source before the job
// is queued. Stdin is applied to the fork exactly where the cold
// path applies it, so a forked job is bit-identical to a cold-booted one (the
// Image/Fork determinism contract); the warm-vs-cold serve test pins it down.
//
// The pool is an availability optimization only: any failure — template build,
// image boot — falls back silently to the cold path and is counted, never
// surfaced to the client.

import (
	"crypto/sha256"
	"encoding/json"
	"sync"

	"splitmem"
)

// warmEntry is one cached template. The once gate makes the expensive build
// run exactly once per key even when a burst of identical jobs lands on every
// worker at once; losers block until the build resolves and then fork.
type warmEntry struct {
	once sync.Once
	img  *splitmem.Image
	err  error
}

// warmPool is a bounded FIFO cache of template images.
type warmPool struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*warmEntry
	order   []string
}

func newWarmPool(cap int) *warmPool {
	if cap <= 0 {
		cap = 32
	}
	return &warmPool{cap: cap, entries: make(map[string]*warmEntry)}
}

// warmKey identifies a template: everything that shapes the machine at the
// fork point. Stdin and budgets are per-job and deliberately excluded.
func warmKey(req *JobRequest) string {
	b, err := json.Marshal(struct {
		Name   string
		Source string
		CRT    bool
		Binary []byte
		Config JobConfig
	}{req.Name, req.Source, req.CRT, req.Binary, req.Config})
	if err != nil {
		return "" // unreachable for decoded requests; "" disables caching
	}
	sum := sha256.Sum256(b)
	return string(sum[:])
}

// template returns the cached image for key, building it with build on first
// use. hit reports whether the template already existed. A failed build is
// cached too (the same job class would fail the same way) until evicted.
func (wp *warmPool) template(key string, build func() (*splitmem.Image, error)) (img *splitmem.Image, hit bool, err error) {
	if key == "" {
		img, err = build()
		return img, false, err
	}
	wp.mu.Lock()
	e, ok := wp.entries[key]
	if !ok {
		e = &warmEntry{}
		wp.entries[key] = e
		wp.order = append(wp.order, key)
		if len(wp.order) > wp.cap {
			evict := wp.order[0]
			wp.order = wp.order[1:]
			delete(wp.entries, evict)
		}
	}
	wp.mu.Unlock()
	e.once.Do(func() { e.img, e.err = build() })
	return e.img, ok, e.err
}

// cachedTemplates reports the number of cached templates (0 on a nil pool,
// so the healthz render needs no guard).
func (wp *warmPool) cachedTemplates() int {
	if wp == nil {
		return 0
	}
	wp.mu.Lock()
	defer wp.mu.Unlock()
	return len(wp.entries)
}

// warmFork builds or fetches the job's template and forks a machine from it.
// It returns (nil, nil) when anything fails — template build, boot, missing
// root process — and the caller cold-boots instead; failures here must never
// change a job's outcome, only its start latency.
func (s *Server) warmFork(j *job) (*splitmem.Machine, *splitmem.Process) {
	img, hit, err := s.warm.template(warmKey(j.req), func() (*splitmem.Image, error) {
		tm, terr := splitmem.New(j.cfg)
		if terr != nil {
			return nil, terr
		}
		defer tm.Close()
		if _, lerr := tm.LoadProgram(j.prog, j.req.Name); lerr != nil {
			return nil, lerr
		}
		return tm.Image()
	})
	if hit {
		s.warmHits.Add(1)
	} else {
		s.warmMisses.Add(1)
	}
	if err != nil {
		return nil, nil // cold path reproduces (and attributes) the error
	}
	m, err := img.Boot()
	if err != nil {
		return nil, nil
	}
	p, ok := m.Kernel().Process(1)
	if !ok {
		m.Close()
		return nil, nil
	}
	s.forks.Add(1)
	return m, p
}
