package splitmem_test

// One testing.B benchmark per table and figure of the paper's evaluation
// (§6). Run them all with:
//
//	go test -bench=. -benchmem
//
// Each benchmark reports domain metrics (normalized performance, attacks
// foiled) alongside the usual ns/op, so `go test -bench` regenerates the
// paper's numbers. The cmd/splitmem-attacklab and cmd/splitmem-bench tools
// print the same experiments as formatted tables.

import (
	"testing"

	"splitmem"
	"splitmem/internal/attacks"
	"splitmem/internal/bench"
	"splitmem/internal/cpu"
	"splitmem/internal/guest"
	"splitmem/internal/workloads"
)

func splitCfg() splitmem.Config {
	return splitmem.Config{Protection: splitmem.ProtSplit, Response: splitmem.Break}
}

// BenchmarkTable1Wilander: the benchmark-attack grid, reporting attacks
// foiled per run.
func BenchmarkTable1Wilander(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cells, err := attacks.RunExtendedWilander(splitCfg())
		if err != nil {
			b.Fatal(err)
		}
		foiled, applicable := 0, 0
		for _, c := range cells {
			if c.NA {
				continue
			}
			applicable++
			if c.Result.Foiled() {
				foiled++
			}
		}
		b.ReportMetric(float64(foiled), "foiled")
		b.ReportMetric(float64(applicable), "attacks")
		if foiled != applicable {
			b.Fatalf("%d/%d attacks foiled", foiled, applicable)
		}
	}
}

// BenchmarkTable2RealWorld: the five real-world exploits, unprotected vs.
// split memory.
func BenchmarkTable2RealWorld(b *testing.B) {
	for i := 0; i < b.N; i++ {
		foiled := 0
		for _, sc := range attacks.Scenarios() {
			base, err := attacks.RunScenario(sc.Key, splitmem.Config{Protection: splitmem.ProtNone})
			if err != nil {
				b.Fatal(err)
			}
			if !base.Succeeded() {
				b.Fatalf("%s: exploit failed unprotected", sc.Key)
			}
			prot, err := attacks.RunScenario(sc.Key, splitCfg())
			if err != nil {
				b.Fatal(err)
			}
			if prot.Foiled() {
				foiled++
			}
		}
		b.ReportMetric(float64(foiled), "foiled")
		if foiled != len(attacks.Scenarios()) {
			b.Fatalf("only %d/%d foiled", foiled, len(attacks.Scenarios()))
		}
	}
}

// BenchmarkFig5ResponseModes: break, observe, forensics against wu-ftpd.
func BenchmarkFig5ResponseModes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, mode := range []splitmem.ResponseMode{splitmem.Break, splitmem.Observe, splitmem.Forensics} {
			r, err := attacks.RunFig5(mode)
			if err != nil {
				b.Fatal(err)
			}
			wantShell := mode == splitmem.Observe
			if r.ShellSpawned != wantShell {
				b.Fatalf("%v: shell=%v", mode, r.ShellSpawned)
			}
		}
	}
}

func reportNormalized(b *testing.B, name string, run func(splitmem.Config) (workloads.Metrics, error)) {
	b.Helper()
	base, err := run(splitmem.Config{Protection: splitmem.ProtNone})
	if err != nil {
		b.Fatal(err)
	}
	prot, err := run(splitCfg())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(workloads.Normalized(base, prot), name)
}

// BenchmarkFig6Normalized: apache-32K, gzip, nbench, unixbench normalized
// performance under stand-alone split memory.
func BenchmarkFig6Normalized(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportNormalized(b, "apache32K", func(c splitmem.Config) (workloads.Metrics, error) {
			return workloads.RunHTTPD(c, 32*1024, 40)
		})
		reportNormalized(b, "gzip", workloads.RunGzip)
		reportNormalized(b, "nbench", workloads.RunNbench)
		score, _, err := workloads.UnixbenchScore(splitmem.Config{Protection: splitmem.ProtNone}, splitCfg())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(score, "unixbench")
	}
}

// BenchmarkFig7Stress: the two worst-case tests.
func BenchmarkFig7Stress(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportNormalized(b, "pipectxsw", func(c splitmem.Config) (workloads.Metrics, error) {
			return workloads.RunPipeCtxsw(c, 300)
		})
		reportNormalized(b, "apache1K", func(c splitmem.Config) (workloads.Metrics, error) {
			return workloads.RunHTTPD(c, 1024, 40)
		})
	}
}

// BenchmarkFig8Apache: the page-size sweep endpoints (full sweep in
// cmd/splitmem-bench -fig8).
func BenchmarkFig8Apache(b *testing.B) {
	sizes := map[string]int{"1K": 1 << 10, "32K": 32 << 10, "256K": 256 << 10}
	for i := 0; i < b.N; i++ {
		for name, size := range sizes {
			sz := size
			reportNormalized(b, "apache"+name, func(c splitmem.Config) (workloads.Metrics, error) {
				return workloads.RunHTTPD(c, sz, 16)
			})
		}
	}
}

// BenchmarkFig9Fraction: fractional splitting at the paper's headline
// point (10%) plus the endpoints.
func BenchmarkFig9Fraction(b *testing.B) {
	modern := cpu.ModernQuadCore()
	base := splitmem.Config{Protection: splitmem.ProtNone, CostModel: modern}
	for i := 0; i < b.N; i++ {
		baseM, err := workloads.RunPipeCtxswWS(base, 100)
		if err != nil {
			b.Fatal(err)
		}
		for _, f := range []float64{0.1, 0.5, 1.0} {
			// Average over the same three page-selection seeds Fig. 9 uses.
			var sum float64
			for _, seed := range []int64{1, 2, 3} {
				cfg := splitmem.Config{
					Protection:    splitmem.ProtSplitNX,
					SplitFraction: f,
					CostModel:     modern,
					Seed:          seed,
				}
				m, err := workloads.RunPipeCtxswWS(cfg, 100)
				if err != nil {
					b.Fatal(err)
				}
				sum += workloads.Normalized(baseM, m)
			}
			b.ReportMetric(sum/3, "split"+pct(f))
		}
	}
}

func pct(f float64) string {
	switch f {
	case 0.1:
		return "10pct"
	case 0.5:
		return "50pct"
	default:
		return "100pct"
	}
}

// BenchmarkTable3 exists for completeness: it verifies the configuration
// table renders (the table itself is static).
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if bench.Table3().Render() == "" {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkAblationTLBLoad compares the two instruction-TLB loading
// strategies the paper discusses: the x86 single-step trick (§4.2.4)
// against direct software TLB loads on a SPARC-like machine (§4.7). The
// paper predicts "noticeably lower" overhead for the latter; the benchmark
// reports both normalized performances on the pipe-ctxsw worst case.
func BenchmarkAblationTLBLoad(b *testing.B) {
	for i := 0; i < b.N; i++ {
		base, err := workloads.RunPipeCtxsw(splitmem.Config{Protection: splitmem.ProtNone}, 300)
		if err != nil {
			b.Fatal(err)
		}
		hard, err := workloads.RunPipeCtxsw(splitmem.Config{Protection: splitmem.ProtSplit}, 300)
		if err != nil {
			b.Fatal(err)
		}
		soft, err := workloads.RunPipeCtxsw(splitmem.Config{Protection: splitmem.ProtSplit, SoftTLB: true}, 300)
		if err != nil {
			b.Fatal(err)
		}
		hn := workloads.Normalized(base, hard)
		sn := workloads.Normalized(base, soft)
		b.ReportMetric(hn, "x86trick")
		b.ReportMetric(sn, "softTLB")
		if sn <= hn {
			b.Fatalf("soft-TLB (%.3f) should outperform the x86 trick (%.3f)", sn, hn)
		}
	}
}

// BenchmarkAblationMemoryOverhead quantifies §5.1's memory discussion: the
// prototype doubles a process's physical footprint; the envisioned
// demand-paged twin allocation (LazyTwins) removes most of that for
// data-heavy processes, with no performance penalty the paper would notice.
func BenchmarkAblationMemoryOverhead(b *testing.B) {
	prog := `
_start:
    mov esi, big
    mov ecx, 131072
fill:
    storeb [esi], ecx
    inc esi
    dec ecx
    cmp ecx, 0
    jnz fill
    mov ebx, 0
    mov eax, 1
    int 0x80
.data
big: .space 131072
`
	run := func(cfg splitmem.Config) (frames, cycles uint64) {
		m, err := splitmem.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := m.LoadAsm(prog, "mem"); err != nil {
			b.Fatal(err)
		}
		m.Run(0)
		return m.CPU().Phys.Allocations(), m.Cycles()
	}
	for i := 0; i < b.N; i++ {
		fNone, _ := run(splitmem.Config{Protection: splitmem.ProtNone})
		fEager, cEager := run(splitmem.Config{Protection: splitmem.ProtSplit})
		fLazy, cLazy := run(splitmem.Config{Protection: splitmem.ProtSplit, LazyTwins: true})
		b.ReportMetric(float64(fNone), "frames-none")
		b.ReportMetric(float64(fEager), "frames-eager")
		b.ReportMetric(float64(fLazy), "frames-lazy")
		b.ReportMetric(float64(cLazy)/float64(cEager), "lazy-cycle-ratio")
		if fLazy >= fEager {
			b.Fatal("lazy twins should save frames")
		}
	}
}

// BenchmarkCompute measures host-side simulator throughput on the
// compute-bound nbench workload under the split engine, one sub-benchmark
// per engine: the plain interpreter and the superblock threaded-code
// engine. The simulated architecture is identical in both (the two-arm
// differential oracle proves it); only the host cost of fetch/decode/
// dispatch changes. The speedup floor is enforced by
// TestSuperblockSpeedupGuard; this benchmark reports the numbers.
func BenchmarkCompute(b *testing.B) {
	prog, ok := workloads.Lookup("nbench")
	if !ok {
		b.Fatal("nbench not cataloged")
	}
	for _, mode := range []struct {
		name          string
		noSuperblocks bool
	}{
		{"interp", true},
		{"superblock", false},
	} {
		b.Run(mode.name, func(b *testing.B) {
			var instrs uint64
			for i := 0; i < b.N; i++ {
				m, err := splitmem.New(splitmem.Config{
					Protection:    splitmem.ProtSplit,
					NoSuperblocks: mode.noSuperblocks,
				})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := m.LoadAsm(prog.Src, "compute"); err != nil {
					b.Fatal(err)
				}
				if res := m.Run(40_000_000_000); res.Reason != splitmem.ReasonAllDone {
					b.Fatalf("stopped: %v", res.Reason)
				}
				instrs += m.Stats().Instructions
			}
			b.ReportMetric(float64(instrs)/b.Elapsed().Seconds()/1e6, "MIPS")
		})
	}
}

// BenchmarkSimulator reports raw simulator speed (instructions per second)
// as a sanity metric for the substrate itself.
func BenchmarkSimulator(b *testing.B) {
	src := `
_start:
    mov ecx, 100000
loop:
    add eax, 3
    mul eax, 5
    dec ecx
    cmp ecx, 0
    jnz loop
    mov ebx, 0
    mov eax, 1
    int 0x80
`
	for i := 0; i < b.N; i++ {
		m, err := splitmem.New(splitmem.Config{Protection: splitmem.ProtNone})
		if err != nil {
			b.Fatal(err)
		}
		p, err := m.LoadAsm(src, "spin")
		if err != nil {
			b.Fatal(err)
		}
		m.Run(0)
		if exited, _ := p.Exited(); !exited {
			b.Fatal("did not finish")
		}
	}
}

// BenchmarkTelemetryOnOff compares simulator throughput with the telemetry
// hub disabled (the default) and enabled, under the split engine. The
// disabled sub-benchmark is the guarded configuration: its per-op cost must
// track BenchmarkSimulator since every instrument call site short-circuits
// on a nil check.
func BenchmarkTelemetryOnOff(b *testing.B) {
	src := `
_start:
    mov ecx, 100000
loop:
    add eax, 3
    mul eax, 5
    dec ecx
    cmp ecx, 0
    jnz loop
    mov ebx, 0
    mov eax, 1
    int 0x80
`
	for _, mode := range []struct {
		name string
		on   bool
	}{{"off", false}, {"on", true}} {
		b.Run(mode.name, func(b *testing.B) {
			var instrs uint64
			for i := 0; i < b.N; i++ {
				m, err := splitmem.New(splitmem.Config{
					Protection: splitmem.ProtSplit,
					Telemetry:  mode.on,
				})
				if err != nil {
					b.Fatal(err)
				}
				p, err := m.LoadAsm(src, "spin")
				if err != nil {
					b.Fatal(err)
				}
				m.Run(0)
				if exited, _ := p.Exited(); !exited {
					b.Fatal("did not finish")
				}
				instrs += m.Stats().Instructions
			}
			b.ReportMetric(float64(instrs)/b.Elapsed().Seconds(), "instrs/s")
		})
	}
}

// BenchmarkColdStart is a detonation job's cold start: assemble a
// CRT-linked Wilander victim, build the job's machine (split memory,
// telemetry on, 16 MiB) and load the program into it.
func BenchmarkColdStart(b *testing.B) {
	src, _, err := attacks.OneShot(attacks.TechRet, attacks.SegStack)
	if err != nil {
		b.Fatal(err)
	}
	src = guest.WithCRT(src)
	cfg := splitmem.Config{Protection: splitmem.ProtSplit, Telemetry: true, PhysBytes: 16 << 20}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prog, err := splitmem.Assemble(src)
		if err != nil {
			b.Fatal(err)
		}
		m, err := splitmem.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := m.LoadProgram(prog, "victim"); err != nil {
			b.Fatal(err)
		}
		m.Close()
	}
}
