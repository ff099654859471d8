package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"splitmem/internal/attacks"
	"splitmem/internal/workloads"
)

// workload is one named traffic mix of the ledger.
type workload struct {
	name string
	why  string
	// slo is the latency limit behind slo_met_ratio.
	slo time.Duration
	// build sets up a fresh instance: menu, oracles, templates or servers,
	// and warm-up. traced turns on the spans the per-layer metrics read.
	build func(seed int64, traced bool, dir string) (instance, error)
}

// workloadList is the ledger's fixed set. The names are stable: every
// performance claim in the repository refers to them.
var workloadList = []workload{
	{
		name:  "compute-fork",
		why:   "fork nbench or gzip from a template Image and run it under split memory: engine dispatch and TLB lookups do the work, the trap path idles",
		slo:   time.Second,
		build: buildComputeFork,
	},
	{
		name:  "trap-storm",
		why:   "pipe ping-pong touching 8-48 pages between switches: every switch flushes both TLBs, so the split trap path dominates",
		slo:   2 * time.Second,
		build: buildTrapStorm,
	},
	{
		name:  "serve-open",
		why:   "open-loop sync jobs on one replica with warm pool and journal: admission, fsync, fork and result encoding dominate",
		slo:   250 * time.Millisecond,
		build: buildServeOpen,
	},
	{
		name:  "cluster-checkpoint",
		why:   "gzip and nbench jobs through a gateway and 3 replicas checkpointing every 1M cycles: checkpoint writes and relays dominate",
		slo:   5 * time.Second,
		build: buildClusterCheckpoint,
	},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloadList {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// program is one guest program a job may run.
type program struct {
	name   string
	src    string // S86 source as submitted (without the C runtime)
	crt    bool   // the guest C runtime is appended (the attack victims need it)
	stdin  []byte
	attack bool // a Wilander one-shot: must be detected and never spawn a shell
}

// menu is a workload's fixed program mix. Jobs run in blocks; a block holds
// each slot once, in a seeded order, and a slot with several programs draws
// one of them per block. The seed therefore picks the order (and which
// attack form fills an attack slot) but never the proportions, so a menu's
// simulated metrics are the same for every seed.
type menu struct {
	progs []program
	block [][]int // slots: indexes into progs
}

// weights returns each program's expected jobs per block.
func (mn menu) weights() []float64 {
	w := make([]float64, len(mn.progs))
	for _, slot := range mn.block {
		for _, i := range slot {
			w[i] += 1 / float64(len(slot))
		}
	}
	return w
}

// sequence yields a menu's job order for one seed.
type sequence struct {
	mn  menu
	rng *rand.Rand
	cur []int
	pos int
}

func newSequence(mn menu, seed int64) *sequence {
	return &sequence{mn: mn, rng: rand.New(rand.NewSource(seed))}
}

// next returns the program index of the next job.
func (s *sequence) next() int {
	if s.pos == len(s.cur) {
		s.cur = s.rng.Perm(len(s.mn.block))
		s.pos = 0
	}
	slot := s.mn.block[s.cur[s.pos]]
	s.pos++
	if len(slot) == 1 {
		return slot[0]
	}
	return slot[s.rng.Intn(len(slot))]
}

// arrivals returns the due offsets of an open loop at perSec jobs per second
// over d: a Poisson process conditioned on exactly perSec*d arrivals, which
// is that many uniform draws, sorted. Fixing the count keeps jobs_per_s from
// inheriting the count's own seed-to-seed spread.
func arrivals(seed int64, perSec float64, d time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed ^ 0x5deece66d))
	n := int(perSec * d.Seconds())
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(rng.Int63n(int64(d)))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// computeMenu: two nbench jobs to one gzip. Nbench runs in about half
// gzip's time, so with two classes of equal weight the median job would sit
// on the gap between them and flip with the seed; at 2:1 it sits inside
// the nbench class.
func computeMenu() (menu, error) {
	var mn menu
	for _, name := range []string{"nbench", "gzip"} {
		p, ok := workloads.Lookup(name)
		if !ok {
			return mn, fmt.Errorf("workload %s missing from the catalog", name)
		}
		mn.progs = append(mn.progs, program{name: name, src: p.Src})
	}
	mn.block = [][]int{{0}, {0}, {1}}
	return mn, nil
}

// trapStormPages spans both sides of the 32-entry ITLB and stays inside the
// 64-entry DTLB; an odd count of sizes puts the median job inside one size.
var trapStormPages = []int{8, 18, 28, 38, 48}

// trapStormIters is the ping-pong count of one job (two switches each),
// small enough for about 18 jobs a second on a 2-core host.
const trapStormIters = 25

func trapStormMenu() menu {
	var mn menu
	for i, pages := range trapStormPages {
		mn.progs = append(mn.progs, program{
			name: fmt.Sprintf("trap-storm-%dp", pages),
			src:  trapStormSource(pages, trapStormIters),
		})
		mn.block = append(mn.block, []int{i})
	}
	return mn
}

// spinIters are serve-open's eight benign spin variants.
var spinIters = []int{10_000, 20_000, 30_000, 40_000, 50_000, 60_000, 70_000, 80_000}

// serveMenu: per block of ten, eight spins, the syscall program, and one
// Wilander one-shot attack drawn from every technique and segment.
func serveMenu() (menu, error) {
	var mn menu
	for _, n := range spinIters {
		mn.block = append(mn.block, []int{len(mn.progs)})
		mn.progs = append(mn.progs, program{name: fmt.Sprintf("spin-%dk", n/1000), src: spinSource(n)})
	}
	sys, ok := workloads.Lookup("syscall")
	if !ok {
		return mn, fmt.Errorf("workload syscall missing from the catalog")
	}
	mn.block = append(mn.block, []int{len(mn.progs)})
	mn.progs = append(mn.progs, program{name: "syscall", src: sys.Src})
	var slot []int
	for _, tech := range attacks.Techniques() {
		for _, seg := range attacks.Segments() {
			src, stdin, err := attacks.OneShot(tech, seg)
			if err != nil {
				return mn, fmt.Errorf("one-shot %v/%v: %w", tech, seg, err)
			}
			slot = append(slot, len(mn.progs))
			mn.progs = append(mn.progs, program{
				name: fmt.Sprintf("wilander-%d-%d", tech, seg), src: src, crt: true, stdin: stdin, attack: true,
			})
		}
	}
	mn.block = append(mn.block, slot)
	return mn, nil
}

// clusterMenu: per block, one nbench job (small checkpoints), two gzip
// jobs over 768 KiB and one over 1 MiB (checkpoints growing to 2-3 MiB).
// The 768 KiB class fills the middle half of the latency distribution, so
// the median job sits inside it rather than on a gap between two classes.
func clusterMenu() (menu, error) {
	var mn menu
	nb, ok := workloads.Lookup("nbench")
	if !ok {
		return mn, fmt.Errorf("workload nbench missing from the catalog")
	}
	mn.progs = append(mn.progs, program{name: "nbench", src: nb.Src})
	for _, n := range []int{768 << 10, 1 << 20} {
		src, err := gzipSource(n)
		if err != nil {
			return mn, err
		}
		mn.progs = append(mn.progs, program{name: fmt.Sprintf("gzip-%dk", n>>10), src: src})
	}
	mn.block = [][]int{{0}, {1}, {1}, {2}}
	return mn, nil
}
