package main

import (
	"fmt"
	"math/rand"
	"time"

	"splitmem"
	"splitmem/internal/tlb"
)

// tlbLookupNS times the TLB model on its own: a seeded stream over a
// 48-page working set, each access a Lookup and, on a miss, an Insert, at
// the ITLB's 32 entries and the DTLB's 64. It returns ns per access.
func tlbLookupNS(seed int64) float64 {
	const pages, accesses, passes = 48, 1 << 16, 8
	rng := rand.New(rand.NewSource(seed))
	stream := make([]uint32, accesses)
	for i := range stream {
		stream[i] = 0x08048 + uint32(rng.Intn(pages))
	}
	var total time.Duration
	for _, size := range []int{32, 64} {
		t := tlb.New(size)
		t0 := time.Now()
		for range passes {
			for _, vpn := range stream {
				if _, ok := t.Lookup(vpn); !ok {
					t.Insert(vpn, tlb.Entry{Frame: vpn, User: true})
				}
			}
		}
		total += time.Since(t0)
	}
	return float64(total.Nanoseconds()) / (2 * passes * accesses)
}

// startupMicro times the two ways a job's machine comes up, median of
// startupReps each: a cold start (Assemble + New + LoadProgram) and a boot
// from a template Image of the same program.
func startupMicro(cfg splitmem.Config, src, name string) (bootUS, coldUS float64, err error) {
	const startupReps = 31
	var cold, boot []float64
	var img *splitmem.Image
	for i := 0; i < startupReps; i++ {
		t0 := time.Now()
		prog, err := splitmem.Assemble(src)
		if err != nil {
			return 0, 0, fmt.Errorf("%s: %w", name, err)
		}
		m, err := splitmem.New(cfg)
		if err != nil {
			return 0, 0, err
		}
		if _, err := m.LoadProgram(prog, name); err != nil {
			return 0, 0, fmt.Errorf("%s: %w", name, err)
		}
		cold = append(cold, float64(time.Since(t0).Nanoseconds())/1e3)
		if i == startupReps-1 {
			if img, err = m.Image(); err != nil {
				return 0, 0, err
			}
		}
		m.Close()
	}
	for i := 0; i < startupReps; i++ {
		t0 := time.Now()
		m, err := img.Boot()
		if err != nil {
			return 0, 0, err
		}
		boot = append(boot, float64(time.Since(t0).Nanoseconds())/1e3)
		m.Close()
	}
	return median(boot), median(cold), nil
}

// trapLoadNS is the host cost of one split TLB load, measured on the
// trap-storm job at 28 pages: its host time under split memory minus its
// unprotected twin's, medians of five cold runs each, per TLB load.
func trapLoadNS() (float64, error) {
	const reps = 5
	p := program{name: "trap-storm-28p", src: trapStormSource(28, trapStormIters)}
	prog, err := splitmem.Assemble(p.src)
	if err != nil {
		return 0, err
	}
	var split, none []float64
	var loads uint64
	for i := 0; i < reps; i++ {
		s, err := coldRun(splitConfig, prog, p)
		if err != nil {
			return 0, err
		}
		n, err := coldRun(splitmem.Config{Protection: splitmem.ProtNone}, prog, p)
		if err != nil {
			return 0, err
		}
		split = append(split, float64(s.hostNS))
		none = append(none, float64(n.hostNS))
		loads = s.stats.Split.CodeTLBLoads + s.stats.Split.DataTLBLoads
	}
	return ratio(median(split)-median(none), float64(loads)), nil
}
