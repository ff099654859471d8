package splitmem_test

// Image/Fork API unit tests: fork equivalence at the snapshot level, CoW
// isolation between concurrently running siblings (run these under -race),
// base refcount draining on Close, the serialized-image round trip, and the
// typed-error contract (ErrBadImage on every malformed input). The
// architectural-equivalence proof lives in oracle_test.go
// (TestOracleFork*) and chaos_test.go (TestChaosForkMatrix).

import (
	"bytes"
	"encoding/binary"
	"errors"
	"sync"
	"testing"

	"splitmem"
	"splitmem/internal/workloads"
)

// isoSrc dirties its stack page, blocks on stdin, then hammers the same
// stack slot with the byte it read and exits with the value it reads back.
// Forked siblings run it concurrently over the same shared physical frame:
// any copy-on-write leak makes a sibling exit with the other's byte.
const isoSrc = `
_start:
    sub esp, 64
    mov esi, 0x5A
    store [esp+8], esi
    mov ebx, 0
    mov ecx, esp
    mov edx, 1
    mov eax, 3
    int 0x80
    load esi, [esp]
    and esi, 255
    mov ecx, 300000
hammer:
    store [esp+8], esi
    load edi, [esp+8]
    dec ecx
    cmp ecx, 0
    jnz hammer
    mov ebx, edi
    mov eax, 1
    int 0x80
`

// parkedMachine boots isoSrc and runs it to the stdin block, returning a
// machine parked at a fork point with a dirty, shareable stack frame.
func parkedMachine(t *testing.T) *splitmem.Machine {
	t.Helper()
	m, err := splitmem.New(splitmem.Config{Protection: splitmem.ProtSplit})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.LoadAsm(isoSrc, "iso"); err != nil {
		t.Fatal(err)
	}
	if res := m.Run(40_000_000_000); res.Reason != splitmem.ReasonWaitingInput {
		t.Fatalf("parked with reason %v, want waiting-input", res.Reason)
	}
	return m
}

// TestForkSiblingIsolation forks eight siblings off one parked parent and
// runs them concurrently, each hammering the same guest stack page with a
// different byte. Every sibling must exit with its own byte (no sibling ever
// observes another's writes), every sibling must have paid at least one
// copy-on-write unshare doing it, and the parent must still be able to run
// to its own, different, answer afterwards.
func TestForkSiblingIsolation(t *testing.T) {
	m := parkedMachine(t)
	defer m.Close()

	const n = 8
	sibs := make([]*splitmem.Machine, n)
	for i := range sibs {
		c, err := m.Fork()
		if err != nil {
			t.Fatal(err)
		}
		sibs[i] = c
	}
	var wg sync.WaitGroup
	for i, c := range sibs {
		wg.Add(1)
		go func(i int, c *splitmem.Machine) {
			defer wg.Done()
			defer c.Close()
			p, ok := c.Kernel().Process(1)
			if !ok {
				t.Errorf("sibling %d: root process lost", i)
				return
			}
			want := 0x40 + i
			p.StdinWrite([]byte{byte(want)})
			p.StdinClose()
			if res := c.Run(40_000_000_000); res.Reason != splitmem.ReasonAllDone {
				t.Errorf("sibling %d: stopped with %v", i, res.Reason)
				return
			}
			exited, status := p.Exited()
			if !exited || status != want {
				t.Errorf("sibling %d: exited=%v status=%#x, want %#x — a sibling's writes leaked through a shared frame",
					i, exited, status, want)
			}
			if cow := c.Stats().MemCowCopies; cow == 0 {
				t.Errorf("sibling %d: no copy-on-write unshares — the isolation test never touched a shared frame", i)
			}
		}(i, c)
	}
	wg.Wait()

	// The parent, forked from eight times and hammered around, still owns
	// its own fate.
	p, ok := m.Kernel().Process(1)
	if !ok {
		t.Fatal("parent root process lost")
	}
	p.StdinWrite([]byte{0x77})
	p.StdinClose()
	if res := m.Run(40_000_000_000); res.Reason != splitmem.ReasonAllDone {
		t.Fatalf("parent stopped with %v", res.Reason)
	}
	if exited, status := p.Exited(); !exited || status != 0x77 {
		t.Fatalf("parent exited=%v status=%#x, want 0x77", exited, status)
	}
}

// TestForkRefcountsDrainOnClose pins the Base lifecycle: every attached
// machine holds one reference, Close releases it, and a fully retired
// generation of forks leaves the refcount at zero. Close is idempotent.
func TestForkRefcountsDrainOnClose(t *testing.T) {
	m := parkedMachine(t)
	img, err := m.Image()
	if err != nil {
		t.Fatal(err)
	}
	base := m.SharedBase()
	if base == nil {
		t.Fatal("no shared base after Image()")
	}
	if got := base.Refs(); got != 1 {
		t.Fatalf("refs after Image() = %d, want 1 (the parent)", got)
	}
	c1, err := img.Boot()
	if err != nil {
		t.Fatal(err)
	}
	c2, err := img.Boot()
	if err != nil {
		t.Fatal(err)
	}
	if c1.SharedBase() != base || c2.SharedBase() != base {
		t.Fatal("booted machines attached to a different base than the parent sealed")
	}
	if got := base.Refs(); got != 3 {
		t.Fatalf("refs with two forks live = %d, want 3", got)
	}
	c1.Close()
	c2.Close()
	if got := base.Refs(); got != 1 {
		t.Fatalf("refs after closing forks = %d, want 1", got)
	}
	m.Close()
	if got := base.Refs(); got != 0 {
		t.Fatalf("refs after closing parent = %d, want 0", got)
	}
	m.Close() // idempotent
	if got := base.Refs(); got != 0 {
		t.Fatalf("refs after double close = %d, want 0", got)
	}
}

// TestImageBootMatchesSnapshot: a machine booted from an Image carries
// exactly the architectural state a Snapshot of the source machine captured
// — its own snapshot is byte-identical.
func TestImageBootMatchesSnapshot(t *testing.T) {
	m := parkedMachine(t)
	defer m.Close()
	want, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	img, err := m.Image()
	if err != nil {
		t.Fatal(err)
	}
	c, err := img.Boot()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	got, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("booted machine's snapshot differs from the source's (%d vs %d bytes)", len(got), len(want))
	}
}

// TestImageCanonicalBytes: the serialized image is a pure function of
// architectural state. A cold machine (whose overlay holds materialized
// frames that are all zero) and the machine booted from its written image
// write byte-identical images, and Snapshot writes exactly the bytes of
// Image followed by WriteTo on both.
func TestImageCanonicalBytes(t *testing.T) {
	prog, ok := workloads.Lookup("gzip")
	if !ok {
		t.Fatal("gzip workload missing from catalog")
	}
	cold, err := splitmem.New(splitmem.Config{Protection: splitmem.ProtSplit})
	if err != nil {
		t.Fatal(err)
	}
	defer cold.Close()
	p, err := cold.LoadAsm(prog.Src, prog.Name)
	if err != nil {
		t.Fatal(err)
	}
	p.StdinWrite([]byte(prog.Input))
	p.StdinClose()
	if res := cold.Run(3_000_000); res.Reason != splitmem.ReasonBudget {
		t.Fatalf("gzip parked with reason %v, want budget", res.Reason)
	}
	materialized := cold.Stats().MemPrivateFrames

	// written returns m's Snapshot after checking that taking it left the
	// frames unsealed and that it equals Image+WriteTo.
	written := func(name string, m *splitmem.Machine) []byte {
		t.Helper()
		base := m.SharedBase()
		snap, err := m.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if m.SharedBase() != base {
			t.Fatalf("%s: Snapshot sealed the machine's frames", name)
		}
		img, err := m.Image()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := img.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(snap, buf.Bytes()) {
			t.Fatalf("%s: Snapshot (%d bytes) differs from Image+WriteTo (%d bytes)", name, len(snap), buf.Len())
		}
		return snap
	}
	want := written("cold", cold)

	// Header: magic (8), version (4), meta length (4), meta, frame count
	// (4), nonzero-frame count (4).
	metaLen := binary.LittleEndian.Uint32(want[12:16])
	nonzero := binary.LittleEndian.Uint32(want[16+metaLen+4:])
	if uint32(materialized) <= nonzero {
		t.Fatalf("cold machine materialized %d frames, image holds %d: no all-zero frame to skip, test is vacuous",
			materialized, nonzero)
	}

	img, err := splitmem.ReadImage(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	booted, err := img.Boot()
	if err != nil {
		t.Fatal(err)
	}
	defer booted.Close()
	if got := written("booted", booted); !bytes.Equal(want, got) {
		t.Fatalf("booted machine writes %d bytes, its cold source %d", len(got), len(want))
	}
}

// TestImageRoundTrip: WriteTo/ReadImage preserve the image exactly — a
// machine booted from the deserialized copy snapshots byte-identical to one
// booted from the original, and ReadFrom fills a zero Image the same way.
func TestImageRoundTrip(t *testing.T) {
	m := parkedMachine(t)
	defer m.Close()
	img, err := m.Image()
	if err != nil {
		t.Fatal(err)
	}
	want, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if _, err := img.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	wire := buf.Bytes()

	img2, err := splitmem.ReadImage(bytes.NewReader(wire))
	if err != nil {
		t.Fatal(err)
	}
	c, err := img2.Boot()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	got, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("round-tripped boot differs from source snapshot (%d vs %d bytes)", len(got), len(want))
	}

	var img3 splitmem.Image
	if _, err := img3.ReadFrom(bytes.NewReader(wire)); err != nil {
		t.Fatal(err)
	}
	c3, err := img3.Boot()
	if err != nil {
		t.Fatal(err)
	}
	c3.Close()
}

// TestImageRejectsCorruption: every corruption — truncation anywhere, a bit
// flip anywhere — is rejected by ReadImage with ErrBadImage before any
// machine state is built, and the transfer gate alone catches a flip.
func TestImageRejectsCorruption(t *testing.T) {
	m := parkedMachine(t)
	defer m.Close()
	img, err := m.Image()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := img.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	wire := buf.Bytes()

	for _, cut := range []int{0, 1, len(wire) / 2, len(wire) - 1} {
		if _, err := splitmem.ReadImage(bytes.NewReader(wire[:cut])); !errors.Is(err, splitmem.ErrBadImage) {
			t.Errorf("truncation to %d bytes: err %v, want ErrBadImage", cut, err)
		}
	}
	// Flip one bit at a spread of positions; the CRC trailer must catch all
	// of them (flips inside the trailer itself fail the checksum comparison).
	step := len(wire)/97 + 1
	for pos := 0; pos < len(wire); pos += step {
		mut := bytes.Clone(wire)
		mut[pos] ^= 0x10
		if _, err := splitmem.ReadImage(bytes.NewReader(mut)); !errors.Is(err, splitmem.ErrBadImage) {
			t.Errorf("bit flip at %d: err %v, want ErrBadImage", pos, err)
		}
	}
	// The transfer gate alone must catch a flip anywhere, the header (magic,
	// version, meta length) and the trailer included: it passes intact
	// images of another format version on, so a flipped magic or version
	// must not read as one.
	for _, pos := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15,
		len(wire) - 4, len(wire) - 3, len(wire) - 2, len(wire) - 1} {
		for bit := 0; bit < 8; bit++ {
			mut := bytes.Clone(wire)
			mut[pos] ^= 1 << bit
			if err := splitmem.VerifyImage(mut); !errors.Is(err, splitmem.ErrSnapshotCorrupt) {
				t.Errorf("bit %d of byte %d: gate verdict %v, want ErrSnapshotCorrupt", bit, pos, err)
			}
		}
	}
}

// TestImageBootRejectsBadMeta: a structurally valid image (CRC recomputed
// after tampering) whose metadata section is garbage must fail at Boot with
// ErrBadImage, not panic or build a half-machine.
func TestImageBootRejectsBadMeta(t *testing.T) {
	m := parkedMachine(t)
	defer m.Close()
	img, err := m.Image()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := img.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	wire := buf.Bytes()

	// The meta section starts right after magic+version+length; shredding a
	// byte inside it and re-signing the CRC yields an image ReadImage accepts
	// but whose structure Boot must vet. Some flips land in semantically
	// tolerated fields (a register value is just a different register value),
	// so the contract is: Boot never panics, every failure is typed
	// ErrBadImage, and structural damage is actually caught at least once.
	rejected := 0
	for off := 40; off < 300; off += 20 {
		mut := bytes.Clone(wire)
		mut[off] ^= 0xFF
		patchChecksum(mut)
		img2, err := splitmem.ReadImage(bytes.NewReader(mut))
		if err != nil {
			if !errors.Is(err, splitmem.ErrBadImage) {
				t.Errorf("shred at %d: ReadImage err %v, want ErrBadImage", off, err)
			}
			rejected++
			continue
		}
		if bm, err := img2.Boot(); err != nil {
			if !errors.Is(err, splitmem.ErrBadImage) {
				t.Errorf("shred at %d: Boot err %v, want ErrBadImage", off, err)
			}
			rejected++
		} else {
			bm.Close()
		}
	}
	if rejected == 0 {
		t.Error("no shredded image was ever rejected — meta validation is vacuous")
	}

	var nilImg *splitmem.Image
	if _, err := nilImg.Boot(); !errors.Is(err, splitmem.ErrBadImage) {
		t.Errorf("nil image boot: err %v, want ErrBadImage", err)
	}
	var zero splitmem.Image
	if _, err := zero.Boot(); !errors.Is(err, splitmem.ErrBadImage) {
		t.Errorf("zero image boot: err %v, want ErrBadImage", err)
	}
}

// TestForkOfFork: sealing is idempotent — a fork of a freshly forked machine
// reuses the same base (no frame copying cascade), and the grandchild still
// runs to the right answer.
func TestForkOfFork(t *testing.T) {
	m := parkedMachine(t)
	defer m.Close()
	c1, err := m.Fork()
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c2, err := c1.Fork()
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if c1.SharedBase() != c2.SharedBase() {
		t.Fatal("fork of an undisturbed fork re-sealed a new base")
	}
	p, ok := c2.Kernel().Process(1)
	if !ok {
		t.Fatal("grandchild root process lost")
	}
	p.StdinWrite([]byte{0x33})
	p.StdinClose()
	if res := c2.Run(40_000_000_000); res.Reason != splitmem.ReasonAllDone {
		t.Fatalf("grandchild stopped with %v", res.Reason)
	}
	if exited, status := p.Exited(); !exited || status != 0x33 {
		t.Fatalf("grandchild exited=%v status=%#x, want 0x33", exited, status)
	}
}

// TestForkSharedMemoryAccounting sanity-checks the dedup math the warm-pool
// bench reports: a fresh fork shares every frame, and finishing the guest
// privatizes only the frames it actually wrote.
func TestForkSharedMemoryAccounting(t *testing.T) {
	m := parkedMachine(t)
	defer m.Close()
	c, err := m.Fork()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s := c.Stats()
	if s.MemPrivateFrames != 0 || s.MemSharedFrames == 0 {
		t.Fatalf("fresh fork: shared=%d private=%d, want all-shared", s.MemSharedFrames, s.MemPrivateFrames)
	}
	total := s.MemSharedFrames
	p, _ := c.Kernel().Process(1)
	p.StdinWrite([]byte{1})
	p.StdinClose()
	c.Run(40_000_000_000)
	s = c.Stats()
	if s.MemSharedFrames+s.MemPrivateFrames != total {
		t.Fatalf("frame accounting leaked: shared=%d private=%d, total was %d",
			s.MemSharedFrames, s.MemPrivateFrames, total)
	}
	if s.MemPrivateFrames == 0 || s.MemPrivateFrames >= total/2 {
		t.Fatalf("finished fork privatized %d of %d frames — expected a small nonzero working set",
			s.MemPrivateFrames, total)
	}
	if s.MemCowCopies == 0 {
		t.Fatal("finished fork recorded no copy-on-write unshares")
	}
}
