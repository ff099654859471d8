package kernel

import (
	"cmp"
	"slices"
	"sort"

	"splitmem/internal/cpu"
	"splitmem/internal/paging"
	"splitmem/internal/snapshot"
)

// ProtStateCodec is implemented by protection engines whose state must
// survive a checkpoint: engine-wide counters plus whatever per-process state
// they keep in Process.ProtData. Engines without state (Unprotected) simply
// don't implement it; the kernel then serializes empty blobs.
type ProtStateCodec interface {
	EncodeEngineState(w *snapshot.Writer)
	DecodeEngineState(r *snapshot.Reader) error
	EncodeProcState(p *Process, w *snapshot.Writer)
	DecodeProcState(p *Process, r *snapshot.Reader) error
}

// maxRNGReplay bounds the stack-randomization draw counter a decoded image
// may demand, so a corrupt count cannot stall restore replaying the stream.
const maxRNGReplay = 1 << 20

// EncodeState serializes the kernel: process table (sorted by PID so the
// image is a pure function of state, not of map iteration), run queue,
// pipes, the event ring with its lifetime cursors, counters, and the
// protection engine's state via ProtStateCodec. The stdin buffers are
// serialized through an identity table because forked children share their
// parent's buffer the way dup'd descriptors share a socket — restoring them
// as separate buffers would break post-restore reads.
func (k *Kernel) EncodeState(w *snapshot.Writer) {
	w.U64(k.rngDraws)
	w.Int(k.nextPID)
	w.U64(k.syscalls)
	w.U64(k.faultsGen)
	w.U64(k.spurious)
	w.Int(k.dropped)
	w.Int(k.seqBase)

	w.U32(uint32(len(k.events)))
	for i := range k.events {
		encodeEvent(w, &k.events[i])
	}

	w.Int(k.nextPipe)
	ids := make([]int, 0, len(k.pipes))
	for id := range k.pipes {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	w.U32(uint32(len(ids)))
	for _, id := range ids {
		pi := k.pipes[id]
		w.Int(id)
		w.Bytes32(pi.buf)
		w.Int(pi.readers)
		w.Int(pi.writers)
		encodeInts(w, pi.waitR)
		encodeInts(w, pi.waitW)
	}

	procs := k.Processes()
	stdinID := map[*stdinBuf]int{}
	var stdins []*stdinBuf
	for _, p := range procs {
		if _, ok := stdinID[p.stdin]; !ok {
			stdinID[p.stdin] = len(stdins)
			stdins = append(stdins, p.stdin)
		}
	}
	w.U32(uint32(len(stdins)))
	for _, sb := range stdins {
		w.Bytes32(sb.data)
		w.Bool(sb.eof)
	}

	codec, _ := k.prot.(ProtStateCodec)
	w.U32(uint32(len(procs)))
	for _, p := range procs {
		encodeProcess(w, p, stdinID, codec)
	}

	encodeInts(w, k.runq)
	cur := 0
	if k.cur != nil {
		cur = k.cur.PID
	}
	w.Int(cur)

	sub := snapshot.NewWriter()
	if codec != nil {
		codec.EncodeEngineState(sub)
	}
	w.Bytes32(sub.Bytes())
}

// DecodeState restores state serialized by EncodeState into a freshly
// constructed kernel (same Config). The stack-randomization RNG is replayed
// to its recorded position so post-restore Spawn calls draw the same slides
// the uninterrupted run would have.
func (k *Kernel) DecodeState(r *snapshot.Reader) error {
	draws := r.U64()
	if draws > maxRNGReplay {
		return snapshot.Corruptf("kernel: rng draw count %d out of range", draws)
	}
	k.nextPID = r.Int()
	if r.Err() == nil && k.nextPID < 1 {
		return snapshot.Corruptf("kernel: next pid %d out of range", k.nextPID)
	}
	k.syscalls = r.U64()
	k.faultsGen = r.U64()
	k.spurious = r.U64()
	k.dropped = r.Int()
	k.seqBase = r.Int()

	ne := r.U32()
	if r.Err() == nil && int(ne) > k.cfg.MaxEvents {
		return snapshot.Corruptf("kernel: %d events exceeds ring capacity %d", ne, k.cfg.MaxEvents)
	}
	k.events = nil
	for i := uint32(0); i < ne && r.Err() == nil; i++ {
		k.events = append(k.events, decodeEvent(r))
	}

	k.nextPipe = r.Int()
	np := r.U32()
	k.pipes = map[int]*pipe{}
	for i := uint32(0); i < np && r.Err() == nil; i++ {
		id := r.Int()
		pi := &pipe{}
		pi.buf = r.Bytes32()
		pi.readers = r.Int()
		pi.writers = r.Int()
		pi.waitR = decodeInts(r)
		pi.waitW = decodeInts(r)
		if _, dup := k.pipes[id]; dup {
			return snapshot.Corruptf("kernel: duplicate pipe id %d", id)
		}
		k.pipes[id] = pi
	}

	ns := r.U32()
	var stdins []*stdinBuf
	for i := uint32(0); i < ns && r.Err() == nil; i++ {
		sb := &stdinBuf{}
		sb.data = r.Bytes32()
		sb.eof = r.Bool()
		stdins = append(stdins, sb)
	}

	codec, _ := k.prot.(ProtStateCodec)
	pn := r.U32()
	k.procs = map[int]*Process{}
	k.byPID = nil
	for i := uint32(0); i < pn && r.Err() == nil; i++ {
		p, err := decodeProcess(r, stdins, codec)
		if err != nil {
			return err
		}
		if _, dup := k.procs[p.PID]; dup {
			return snapshot.Corruptf("kernel: duplicate pid %d", p.PID)
		}
		// Spawn and fork number processes from nextPID up, and the PID
		// order of byPID relies on that.
		if p.PID < 1 || p.PID >= k.nextPID {
			return snapshot.Corruptf("kernel: pid %d outside [1, %d)", p.PID, k.nextPID)
		}
		k.procs[p.PID] = p
		k.byPID = append(k.byPID, p)
	}
	slices.SortFunc(k.byPID, func(a, b *Process) int { return cmp.Compare(a.PID, b.PID) })

	k.runq = decodeInts(r)
	curPID := r.Int()
	if curPID == 0 {
		k.cur = nil
	} else if p, ok := k.procs[curPID]; ok {
		k.cur = p
	} else if r.Err() == nil {
		return snapshot.Corruptf("kernel: current pid %d not in process table", curPID)
	}

	blob := r.Bytes32()
	if codec != nil {
		sub := snapshot.NewReader(blob)
		if err := codec.DecodeEngineState(sub); err != nil {
			return err
		}
		if err := sub.Err(); err != nil {
			return err
		}
	} else if len(blob) != 0 {
		return snapshot.Corruptf("kernel: engine state present but protector %q keeps none", k.prot.Name())
	}
	if err := r.Err(); err != nil {
		return err
	}

	for i := uint64(0); i < draws; i++ {
		k.rand().Intn(256)
	}
	k.rngDraws = draws
	return nil
}

func encodeEvent(w *snapshot.Writer, ev *Event) {
	w.Int(int(ev.Kind))
	w.Int(ev.PID)
	w.String(ev.Proc)
	w.U64(ev.Cycles)
	w.U32(ev.Addr)
	w.Int(int(ev.Signal))
	w.String(ev.Text)
	// Data distinguishes nil from empty: the two marshal differently in the
	// NDJSON event stream, and restore must reproduce those bytes exactly.
	w.Bool(ev.Data != nil)
	w.Bytes32(ev.Data)
	w.String(ev.Trace)
}

func decodeEvent(r *snapshot.Reader) Event {
	var ev Event
	ev.Kind = EventKind(r.Int())
	ev.PID = r.Int()
	ev.Proc = r.String()
	ev.Cycles = r.U64()
	ev.Addr = r.U32()
	ev.Signal = Signal(r.Int())
	ev.Text = r.String()
	hasData := r.Bool()
	ev.Data = r.Bytes32()
	if !hasData {
		ev.Data = nil
	}
	ev.Trace = r.String()
	return ev
}

func encodeProcess(w *snapshot.Writer, p *Process, stdinID map[*stdinBuf]int, codec ProtStateCodec) {
	w.Int(p.PID)
	w.String(p.Name)
	encodeContext(w, &p.Ctx)
	p.PT.EncodeState(w)
	w.Int(int(p.state))
	w.Int(p.exitCode)
	w.Int(int(p.killSig))
	w.U32(p.faultAddr)
	heapIdx := -1
	w.U32(uint32(len(p.regions)))
	for i := range p.regions {
		reg := &p.regions[i]
		w.U32(reg.Start)
		w.U32(reg.End)
		w.U8(reg.Perm)
		w.String(reg.Name)
		if p.heap == reg {
			heapIdx = i
		}
	}
	w.Int(heapIdx)
	w.U32(p.brk)
	w.U32(p.mmapTop)
	w.U32(uint32(len(p.fds)))
	for _, fd := range p.fds {
		w.Int(int(fd.kind))
		w.Int(fd.pipe)
		w.Bool(fd.read)
	}
	w.Int(stdinID[p.stdin])
	w.Bool(p.outbuf != nil)
	w.Bytes32(p.outbuf)
	w.Bool(p.sebek)
	w.Int(p.parent)
	kids := make([]int, 0, len(p.children))
	for pid := range p.children {
		kids = append(kids, pid)
	}
	sort.Ints(kids)
	encodeInts(w, kids)
	w.Bool(p.waitAny)
	w.Int(p.waitPID)
	w.Bool(p.shellSpawned)
	w.U32(p.RecoveryHandler)
	w.U32(p.initialSP)
	w.U32(p.PendingSplit)
	w.Bool(p.PendingSplitValid)
	sub := snapshot.NewWriter()
	if codec != nil {
		codec.EncodeProcState(p, sub)
	}
	w.Bytes32(sub.Bytes())
}

func decodeProcess(r *snapshot.Reader, stdins []*stdinBuf, codec ProtStateCodec) (*Process, error) {
	p := &Process{}
	p.PID = r.Int()
	p.Name = r.String()
	decodeContext(r, &p.Ctx)
	p.PT = newDecodedTable(r)
	p.state = procState(r.Int())
	if r.Err() == nil && (p.state < stateRunnable || p.state > stateKilled) {
		return nil, snapshot.Corruptf("kernel: pid %d state %d out of range", p.PID, p.state)
	}
	p.exitCode = r.Int()
	p.killSig = Signal(r.Int())
	p.faultAddr = r.U32()
	nr := r.U32()
	if int64(nr) > int64(r.Remaining()/13) {
		return nil, snapshot.ErrTruncated
	}
	p.regions = make([]Region, nr)
	for i := range p.regions {
		reg := &p.regions[i]
		reg.Start = r.U32()
		reg.End = r.U32()
		reg.Perm = r.U8()
		reg.Name = r.String()
	}
	heapIdx := r.Int()
	if r.Err() == nil && (heapIdx < -1 || heapIdx >= len(p.regions)) {
		return nil, snapshot.Corruptf("kernel: pid %d heap index %d out of range", p.PID, heapIdx)
	}
	if heapIdx >= 0 {
		p.heap = &p.regions[heapIdx]
	}
	p.brk = r.U32()
	p.mmapTop = r.U32()
	nf := r.U32()
	if int64(nf) > int64(r.Remaining()/17) {
		return nil, snapshot.ErrTruncated
	}
	p.fds = make([]fdesc, nf)
	for i := range p.fds {
		p.fds[i].kind = fdKind(r.Int())
		if r.Err() == nil && (p.fds[i].kind < fdClosed || p.fds[i].kind > fdPipe) {
			return nil, snapshot.Corruptf("kernel: pid %d fd %d kind out of range", p.PID, i)
		}
		p.fds[i].pipe = r.Int()
		p.fds[i].read = r.Bool()
	}
	sid := r.Int()
	if r.Err() == nil && (sid < 0 || sid >= len(stdins)) {
		return nil, snapshot.Corruptf("kernel: pid %d stdin id %d out of range", p.PID, sid)
	}
	if r.Err() == nil {
		p.stdin = stdins[sid]
	}
	hasOut := r.Bool()
	p.outbuf = r.Bytes32()
	if !hasOut {
		p.outbuf = nil
	}
	p.sebek = r.Bool()
	p.parent = r.Int()
	p.children = map[int]bool{}
	for _, pid := range decodeInts(r) {
		p.children[pid] = true
	}
	p.waitAny = r.Bool()
	p.waitPID = r.Int()
	p.shellSpawned = r.Bool()
	p.RecoveryHandler = r.U32()
	p.initialSP = r.U32()
	p.PendingSplit = r.U32()
	p.PendingSplitValid = r.Bool()
	blob := r.Bytes32()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if codec != nil {
		sub := snapshot.NewReader(blob)
		if err := codec.DecodeProcState(p, sub); err != nil {
			return nil, err
		}
		if err := sub.Err(); err != nil {
			return nil, err
		}
	} else if len(blob) != 0 {
		return nil, snapshot.Corruptf("kernel: pid %d has protector state but protector keeps none", p.PID)
	}
	return p, nil
}

// newDecodedTable decodes a pagetable in place, folding failures into the
// reader's sticky error so process decoding stays straight-line.
func newDecodedTable(r *snapshot.Reader) *paging.Table {
	t := new(paging.Table)
	if err := t.DecodeState(r); err != nil {
		r.Fail(err)
	}
	return t
}

func encodeContext(w *snapshot.Writer, c *cpu.Context) {
	for _, reg := range c.R {
		w.U32(reg)
	}
	w.U32(c.EIP)
	w.Bool(c.Flags.ZF)
	w.Bool(c.Flags.SF)
	w.Bool(c.Flags.OF)
	w.Bool(c.Flags.CF)
	w.Bool(c.Flags.TF)
}

func decodeContext(r *snapshot.Reader, c *cpu.Context) {
	for i := range c.R {
		c.R[i] = r.U32()
	}
	c.EIP = r.U32()
	c.Flags.ZF = r.Bool()
	c.Flags.SF = r.Bool()
	c.Flags.OF = r.Bool()
	c.Flags.CF = r.Bool()
	c.Flags.TF = r.Bool()
}

func encodeInts(w *snapshot.Writer, v []int) {
	w.U32(uint32(len(v)))
	for _, x := range v {
		w.Int(x)
	}
}

func decodeInts(r *snapshot.Reader) []int {
	n := r.U32()
	if int64(n) > int64(r.Remaining()/8) {
		r.Fail(snapshot.ErrTruncated)
		return nil
	}
	out := make([]int, 0, n)
	for i := uint32(0); i < n; i++ {
		out = append(out, r.Int())
	}
	return out
}
