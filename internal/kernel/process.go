package kernel

import (
	"fmt"

	"splitmem/internal/cpu"
	"splitmem/internal/isa"
	"splitmem/internal/loader"
	"splitmem/internal/mem"
	"splitmem/internal/paging"
)

// Permission aliases (loader.Perm* re-exported for brevity).
const (
	permR = loader.PermR
	permW = loader.PermW
	permX = loader.PermX
)

// procState tracks scheduler-visible process state.
type procState int

const (
	stateRunnable procState = iota + 1
	stateWaitStdin
	stateWaitPipe
	stateWaitChild
	stateShell
	stateExited
	stateKilled
)

// Region describes a virtual address range with uniform permissions used for
// demand paging and mprotect bookkeeping.
type Region struct {
	Start uint32 // inclusive, page aligned
	End   uint32 // exclusive, page aligned
	Perm  byte
	Name  string
}

// Contains reports whether addr falls inside the region.
func (r *Region) Contains(addr uint32) bool { return addr >= r.Start && addr < r.End }

// Process is one simulated guest process.
type Process struct {
	PID  int
	Name string
	Ctx  cpu.Context
	PT   *paging.Table

	state     procState
	exitCode  int
	killSig   Signal
	faultAddr uint32 // address that killed the process

	regions []Region
	brk     uint32 // current program break
	heap    *Region
	mmapTop uint32

	fds    []fdesc
	stdin  *stdinBuf // host-injected stdin; shared across fork like an fd
	outbuf []byte    // stdout collected for the host (per process)
	sebek  bool      // log stdin reads as keystrokes

	parent   int
	children map[int]bool
	waitAny  bool // blocked in waitpid(-1)
	waitPID  int

	shellSpawned bool

	// ProtData holds protector-private per-process state (the split-memory
	// engine keeps its page-pair table here).
	ProtData any

	// RecoveryHandler is the guest callback registered via
	// register_recovery(2) for the recovery response mode (§4.5's
	// envisioned extension).
	RecoveryHandler uint32
	initialSP       uint32

	// PendingSplit carries the faulting address from the page-fault handler
	// to the debug-interrupt handler during an instruction-TLB load, exactly
	// like the process-table field the paper adds (§5.2).
	PendingSplit      uint32
	PendingSplitValid bool
}

// Alive reports whether the process has not yet exited or been killed.
func (p *Process) Alive() bool { return p.state != stateExited && p.state != stateKilled }

// Exited reports whether the process exited voluntarily, and its status.
func (p *Process) Exited() (bool, int) { return p.state == stateExited, p.exitCode }

// Killed reports whether the process was killed, and by which signal.
func (p *Process) Killed() (bool, Signal) {
	if p.state != stateKilled {
		return false, SIGNONE
	}
	return true, p.killSig
}

// FaultAddr returns the address implicated in the process's death.
func (p *Process) FaultAddr() uint32 { return p.faultAddr }

// ShellSpawned reports whether the process ever invoked execve — the attack
// success marker.
func (p *Process) ShellSpawned() bool { return p.shellSpawned }

// stdinBuf is the kernel-side buffer behind fd 0. Forked children share it
// with their parent, exactly as a duplicated descriptor shares the socket.
type stdinBuf struct {
	data []byte
	eof  bool
}

// StdinWrite injects bytes into the process's standard input (the host side
// of the simulated socket).
func (p *Process) StdinWrite(b []byte) { p.stdin.data = append(p.stdin.data, b...) }

// StdinClose signals end-of-file on standard input.
func (p *Process) StdinClose() { p.stdin.eof = true }

// StdoutDrain returns and clears everything the process wrote to stdout.
func (p *Process) StdoutDrain() []byte {
	out := p.outbuf
	p.outbuf = nil
	return out
}

// StdoutPeek returns stdout content without clearing it.
func (p *Process) StdoutPeek() []byte { return p.outbuf }

// Regions returns the process's memory regions.
func (p *Process) Regions() []Region {
	out := make([]Region, len(p.regions))
	copy(out, p.regions)
	return out
}

func (p *Process) regionAt(addr uint32) *Region {
	for i := range p.regions {
		if p.regions[i].Contains(addr) {
			return &p.regions[i]
		}
	}
	return nil
}

// fdesc is one file-descriptor table slot.
type fdesc struct {
	kind fdKind
	pipe int  // pipe id
	read bool // readable end
}

type fdKind int

const (
	fdClosed fdKind = iota
	fdStdin
	fdStdout
	fdPipe
)

// ProcOptions adjusts process creation.
type ProcOptions struct {
	Name       string
	StackPages int // stack reservation in pages (default 256 = 1 MiB)
}

// Spawn loads a SELF program image into a fresh process, applying the active
// protection policy to every mapped page — the kernel's equivalent of the
// paper's modified ELF loader (§5.1).
func (k *Kernel) Spawn(prog *loader.Program, opts ProcOptions) (*Process, error) {
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	name := opts.Name
	if name == "" {
		name = fmt.Sprintf("proc%d", k.nextPID)
	}
	p := &Process{
		PID:      k.nextPID,
		Name:     name,
		PT:       new(paging.Table),
		state:    stateRunnable,
		children: map[int]bool{},
		mmapTop:  MmapBase,
		fds: []fdesc{
			{kind: fdStdin, read: true},
			{kind: fdStdout},
		},
		stdin: &stdinBuf{},
	}
	k.nextPID++

	var maxEnd uint32
	for i := range prog.Sections {
		s := &prog.Sections[i]
		if err := k.mapSection(p, s); err != nil {
			k.releaseProcessMemory(p)
			return nil, err
		}
		if s.End() > maxEnd {
			maxEnd = s.End()
		}
		p.regions = append(p.regions, Region{
			Start: s.Addr &^ mem.PageMask,
			End:   (s.End() + mem.PageMask) &^ uint32(mem.PageMask),
			Perm:  s.Perm,
			Name:  s.Name,
		})
	}

	// Heap region (demand paged), directly above the image.
	heapBase := (maxEnd + HeapGap + mem.PageMask) &^ uint32(mem.PageMask)
	p.brk = heapBase
	p.regions = append(p.regions, Region{Start: heapBase, End: heapBase, Perm: permR | permW, Name: "heap"})
	p.heap = &p.regions[len(p.regions)-1]

	// Stack region (demand paged, grows down), with optional slight
	// randomization as added in Linux 2.6 (§6.1.2, the Samba scenario).
	stackPages := opts.StackPages
	if stackPages <= 0 {
		stackPages = 256
	}
	top := uint32(StackTop)
	if k.cfg.RandomizeStack {
		k.rngDraws++
		top -= uint32(k.rand().Intn(256)) << 4 // up to 4 KiB slide, 16-byte aligned
	}
	base := top&^uint32(mem.PageMask) - uint32(stackPages)*mem.PageSize
	p.regions = append(p.regions, Region{Start: base, End: (top + mem.PageMask) &^ uint32(mem.PageMask), Perm: permR | permW, Name: "stack"})
	// Re-resolve heap pointer: regions slice may have reallocated.
	for i := range p.regions {
		if p.regions[i].Name == "heap" {
			p.heap = &p.regions[i]
		}
	}

	p.Ctx = cpu.Context{EIP: prog.Entry}
	p.Ctx.R[isa.ESP] = top - 16
	p.initialSP = top - 16

	k.addProcess(p)
	k.runq = append(k.runq, p.PID)
	k.Emit(Event{Kind: EvProcessStart, PID: p.PID, Proc: p.Name, Text: name})
	return p, nil
}

// mapSection eagerly allocates, fills, and maps every page of a section.
// Each page takes the section bytes that land on it in one copy; a page
// they leave all zero stays unmaterialized, since Alloc hands out zeroed
// frames.
func (k *Kernel) mapSection(p *Process, s *loader.Section) error {
	first, last := s.PageSpan()
	for vpn := first; vpn < last; vpn++ {
		if p.PT.Get(vpn).Present() {
			return fmt.Errorf("kernel: section %q overlaps an already-mapped page %#x", s.Name, vpn<<mem.PageShift)
		}
		frame, err := k.m.Phys.Alloc()
		if err != nil {
			return err
		}
		pageStart := vpn << mem.PageShift
		lo := max(pageStart, s.Addr)
		var data []byte
		if idx := int(lo - s.Addr); idx < len(s.Data) {
			n := min(len(s.Data)-idx, int(pageStart+mem.PageSize-lo))
			data = s.Data[idx : idx+n]
		}
		k.m.Phys.WriteFrame(frame, lo-pageStart, data)
		k.prot.MapPage(k, p, vpn, frame, s.Perm)
	}
	return nil
}

// demandMap materializes one page of a region on first touch.
func (k *Kernel) demandMap(p *Process, addr uint32, r *Region) error {
	frame, err := k.m.Phys.Alloc()
	if err != nil {
		return err
	}
	k.m.AddCycles(k.m.Cost.DemandFill)
	k.prot.MapPage(k, p, paging.VPN(addr), frame, r.Perm)
	return nil
}

// releaseProcessMemory frees every frame the process maps. Split pages are
// released through the protector so both twins return to the free pool
// (§5.4).
func (k *Kernel) releaseProcessMemory(p *Process) {
	p.PT.Range(func(vpn uint32, e paging.Entry) bool {
		if !e.Present() {
			return true
		}
		if k.prot.ReleasePage(k, p, vpn, e) {
			return true
		}
		k.m.Phys.Free(e.Frame())
		return true
	})
	p.PT = new(paging.Table)
}

// Fork clones the current process Unix-style: COW for plain writable pages,
// shared frames for read-only pages, protector-managed duplication for split
// pages (§5.4: "the copy-on-write mechanism ... must be slightly modified").
func (k *Kernel) fork(parent *Process) (*Process, error) {
	ctx := parent.Ctx
	if k.cur == parent {
		// The live register file is on the CPU, not in the saved context.
		ctx = k.m.Ctx
	}
	child := &Process{
		PID:      k.nextPID,
		Name:     parent.Name + "+",
		Ctx:      ctx,
		PT:       new(paging.Table),
		state:    stateRunnable,
		children: map[int]bool{},
		parent:   parent.PID,
		brk:      parent.brk,
		mmapTop:  parent.mmapTop,
		regions:  append([]Region(nil), parent.regions...),
		fds:      append([]fdesc(nil), parent.fds...),
		stdin:    parent.stdin, // fd 0 is shared, as after a real fork
	}
	child.RecoveryHandler = parent.RecoveryHandler
	child.initialSP = parent.initialSP
	// The fork syscall can itself be the single-stepped instruction of an
	// in-flight instruction-TLB load; the child inherits TF through Ctx, so
	// it must inherit the pending-load bookkeeping that explains it.
	child.PendingSplit = parent.PendingSplit
	child.PendingSplitValid = parent.PendingSplitValid
	k.nextPID++
	for i := range child.regions {
		if child.regions[i].Name == "heap" {
			child.heap = &child.regions[i]
		}
	}
	for _, fd := range child.fds {
		if fd.kind == fdPipe {
			k.pipeRef(fd.pipe, fd.read, +1)
		}
	}

	var mapErr error
	parent.PT.Range(func(vpn uint32, e paging.Entry) bool {
		if !e.Present() {
			return true
		}
		if ce, ok := k.prot.ForkPage(k, parent, child, vpn, e); ok {
			if ce == 0 {
				mapErr = fmt.Errorf("kernel: fork: protector failed to clone page %#x", vpn<<mem.PageShift)
				return false
			}
			child.PT.Set(vpn, ce)
			return true
		}
		if e.Writable() || e.IsCOW() {
			// Make both parent and child COW-share the frame.
			shared := e.Without(paging.Writable).With(paging.COW)
			parent.PT.Set(vpn, shared)
			child.PT.Set(vpn, shared)
			k.m.Phys.IncRef(e.Frame())
			k.m.Invlpg(vpn << mem.PageShift)
		} else {
			child.PT.Set(vpn, e)
			k.m.Phys.IncRef(e.Frame())
		}
		return true
	})
	if mapErr != nil {
		k.releaseProcessMemory(child)
		return nil, mapErr
	}

	parent.children[child.PID] = true
	k.addProcess(child)
	k.runq = append(k.runq, child.PID)
	k.Emit(Event{Kind: EvProcessStart, PID: child.PID, Proc: child.Name, Text: "fork"})
	return child, nil
}

// breakCOW resolves a write fault on a copy-on-write page.
func (k *Kernel) breakCOW(p *Process, vpn uint32, e paging.Entry) error {
	k.m.AddCycles(k.m.Cost.COWCopy)
	if k.m.Phys.RefCount(e.Frame()) == 1 {
		p.PT.Set(vpn, e.Without(paging.COW).With(paging.Writable))
	} else {
		frame, err := k.m.Phys.Alloc()
		if err != nil {
			return err
		}
		k.m.Phys.CopyFrame(frame, e.Frame())
		k.m.Phys.Free(e.Frame())
		p.PT.Set(vpn, e.Without(paging.COW).With(paging.Writable).WithFrame(frame))
	}
	k.m.Invlpg(vpn << mem.PageShift)
	k.faultsGen++
	return nil
}

// ensureMapped makes the page containing addr present (demand-mapping it if
// it belongs to a region), returning its PTE.
func (k *Kernel) ensureMapped(p *Process, addr uint32, forWrite bool) (paging.Entry, error) {
	vpn := paging.VPN(addr)
	e := p.PT.Get(vpn)
	if !e.Present() {
		r := p.regionAt(addr)
		if r == nil {
			return 0, fmt.Errorf("EFAULT at %#x", addr)
		}
		if err := k.demandMap(p, addr, r); err != nil {
			return 0, err
		}
		e = p.PT.Get(vpn)
	}
	if forWrite && e.IsCOW() {
		if err := k.breakCOW(p, vpn, e); err != nil {
			return 0, err
		}
		e = p.PT.Get(vpn)
	}
	return e, nil
}

// dataFrame resolves the frame backing data accesses for vpn, honoring the
// protector's split view.
func (k *Kernel) dataFrame(p *Process, vpn uint32, e paging.Entry) uint32 {
	if f, ok := k.prot.DataFrame(p, vpn); ok {
		return f
	}
	return e.Frame()
}

// CopyFromUser reads n bytes of guest memory starting at addr, using the
// data view of split pages (the kernel never sees the code twin when acting
// on behalf of a data access).
func (k *Kernel) CopyFromUser(p *Process, addr uint32, n int) ([]byte, error) {
	out := make([]byte, 0, n)
	for n > 0 {
		e, err := k.ensureMapped(p, addr, false)
		if err != nil {
			return nil, err
		}
		frame := k.dataFrame(p, paging.VPN(addr), e)
		fr := k.m.Phys.Frame(frame)
		off := addr & mem.PageMask
		chunk := int(mem.PageSize - off)
		if chunk > n {
			chunk = n
		}
		out = append(out, fr[off:int(off)+chunk]...)
		addr += uint32(chunk)
		n -= chunk
	}
	return out, nil
}

// CopyToUser writes bytes into guest memory at addr — e.g. a read(2)
// delivering network data. On split pages the bytes land on the data frame
// only: this is precisely how injected code ends up unreachable by fetch.
func (k *Kernel) CopyToUser(p *Process, addr uint32, b []byte) error {
	for len(b) > 0 {
		e, err := k.ensureMapped(p, addr, true)
		if err != nil {
			return err
		}
		frame := k.dataFrame(p, paging.VPN(addr), e)
		fr := k.m.Phys.Frame(frame)
		off := addr & mem.PageMask
		chunk := int(mem.PageSize - off)
		if chunk > len(b) {
			chunk = len(b)
		}
		copy(fr[off:], b[:chunk])
		addr += uint32(chunk)
		b = b[chunk:]
	}
	return nil
}

// CopyStringFromUser reads a NUL-terminated guest string (capped at max).
func (k *Kernel) CopyStringFromUser(p *Process, addr uint32, max int) (string, error) {
	var out []byte
	for len(out) < max {
		b, err := k.CopyFromUser(p, addr, 1)
		if err != nil {
			return "", err
		}
		if b[0] == 0 {
			return string(out), nil
		}
		out = append(out, b[0])
		addr++
	}
	return string(out), nil
}

// setBrk implements the brk syscall: grows (or shrinks) the heap region.
func (k *Kernel) setBrk(p *Process, addr uint32) uint32 {
	if addr == 0 || addr < p.heap.Start || addr >= StackLimit-(64<<20) {
		return p.brk
	}
	newEnd := (addr + mem.PageMask) &^ uint32(mem.PageMask)
	if newEnd < p.heap.End {
		// Shrink: unmap pages above the new break.
		for vpn := newEnd >> mem.PageShift; vpn < p.heap.End>>mem.PageShift; vpn++ {
			e := p.PT.Get(vpn)
			if !e.Present() {
				continue
			}
			if !k.prot.ReleasePage(k, p, vpn, e) {
				k.m.Phys.Free(e.Frame())
			}
			p.PT.Set(vpn, 0)
			k.m.Invlpg(vpn << mem.PageShift)
		}
	}
	p.heap.End = newEnd
	p.brk = addr
	return p.brk
}

// mmapAnon implements anonymous mmap: reserves a demand-paged region.
func (k *Kernel) mmapAnon(p *Process, length uint32, perm byte) uint32 {
	if length == 0 {
		return ^uint32(0) // MAP_FAILED
	}
	length = (length + mem.PageMask) &^ uint32(mem.PageMask)
	base := p.mmapTop
	p.mmapTop += length + mem.PageSize // guard gap
	p.regions = append(p.regions, Region{Start: base, End: base + length, Perm: perm, Name: "mmap"})
	// Region pointers (heap) may have been invalidated by append.
	for i := range p.regions {
		if p.regions[i].Name == "heap" {
			p.heap = &p.regions[i]
		}
	}
	return base
}

// mprotect updates permissions over [addr, addr+len), reapplying protection
// policy to already-present pages. Returns 0 or a negative errno.
func (k *Kernel) mprotect(p *Process, addr, length uint32, perm byte) int32 {
	if addr&mem.PageMask != 0 {
		return -22 // EINVAL
	}
	end := (addr + length + mem.PageMask) &^ uint32(mem.PageMask)
	r := p.regionAt(addr)
	if r == nil || end > r.End {
		return -12 // ENOMEM
	}
	if r.Start < addr || end < r.End {
		// Split the region so each part carries its own permissions.
		pre := *r
		post := *r
		pre.End = addr
		post.Start = end
		mid := Region{Start: addr, End: end, Perm: perm, Name: r.Name}
		var regions []Region
		for i := range p.regions {
			if &p.regions[i] == r {
				if pre.Start < pre.End {
					regions = append(regions, pre)
				}
				regions = append(regions, mid)
				if post.Start < post.End {
					regions = append(regions, post)
				}
				continue
			}
			regions = append(regions, p.regions[i])
		}
		p.regions = regions
		for i := range p.regions {
			if p.regions[i].Name == "heap" {
				p.heap = &p.regions[i]
			}
		}
	} else {
		r.Perm = perm
	}
	// Reapply policy to present pages: rebuild their mapping with the same
	// backing frame but new permissions.
	for vpn := addr >> mem.PageShift; vpn < end>>mem.PageShift; vpn++ {
		e := p.PT.Get(vpn)
		if !e.Present() {
			continue
		}
		if e.IsCOW() {
			if err := k.breakCOW(p, vpn, e); err != nil {
				return -12
			}
			e = p.PT.Get(vpn)
		}
		if !k.prot.ProtectPage(k, p, vpn, e, perm) {
			k.prot.MapPage(k, p, vpn, e.Frame(), perm)
		}
		k.m.Invlpg(vpn << mem.PageShift)
	}
	return 0
}
