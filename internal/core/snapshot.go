package core

import (
	"sort"

	"splitmem/internal/kernel"
	"splitmem/internal/snapshot"
)

// The engine's state codecs (kernel.ProtStateCodec): engine-wide counters
// plus the per-process split-pair tables stored in Process.ProtData. The
// in-flight telemetry episode fields (pendingSpan, pendingFaultExit) are
// deliberately not captured — spans are host-side observability, and the
// span ring itself does not survive a snapshot; dropping them only means one
// open itlb-load episode goes unmeasured after a restore.

var _ kernel.ProtStateCodec = (*Engine)(nil)

// EncodeEngineState serializes the engine-wide counters.
func (e *Engine) EncodeEngineState(w *snapshot.Writer) {
	w.U64(e.stats.SplitPages)
	w.U64(e.stats.TotalSplits)
	w.U64(e.stats.DataTLBLoads)
	w.U64(e.stats.CodeTLBLoads)
	w.U64(e.stats.Detections)
	w.U64(e.stats.PagesUnsplit)
	w.U64(e.stats.ObserveLockIn)
	w.U64(e.stats.LazyPairs)
	w.U64(e.stats.Audits)
	w.U64(e.stats.Violations)
	w.U64(e.stats.HealedTLB)
	w.U64(e.stats.AttributedHeals)
}

// DecodeEngineState restores counters serialized by EncodeEngineState.
func (e *Engine) DecodeEngineState(r *snapshot.Reader) error {
	e.stats.SplitPages = r.U64()
	e.stats.TotalSplits = r.U64()
	e.stats.DataTLBLoads = r.U64()
	e.stats.CodeTLBLoads = r.U64()
	e.stats.Detections = r.U64()
	e.stats.PagesUnsplit = r.U64()
	e.stats.ObserveLockIn = r.U64()
	e.stats.LazyPairs = r.U64()
	e.stats.Audits = r.U64()
	e.stats.Violations = r.U64()
	e.stats.HealedTLB = r.U64()
	e.stats.AttributedHeals = r.U64()
	return r.Err()
}

// EncodeProcState serializes one process's split-pair table in sorted vpn
// order (the table is a Go map; the image must not depend on map iteration).
func (e *Engine) EncodeProcState(p *kernel.Process, w *snapshot.Writer) {
	st, ok := p.ProtData.(*procState)
	if !ok || st == nil {
		w.U32(0)
		return
	}
	vpns := make([]uint32, 0, len(st.pairs))
	for vpn := range st.pairs {
		vpns = append(vpns, vpn)
	}
	sort.Slice(vpns, func(a, b int) bool { return vpns[a] < vpns[b] })
	w.Grow(4 + 13*len(vpns))
	w.U32(uint32(len(vpns)))
	for _, vpn := range vpns {
		pr := st.pairs[vpn]
		w.U32(vpn)
		w.U32(pr.code)
		w.U32(pr.data)
		w.U8(pr.perm)
	}
}

// DecodeProcState restores a split-pair table serialized by EncodeProcState.
func (e *Engine) DecodeProcState(p *kernel.Process, r *snapshot.Reader) error {
	n := r.U32()
	st := &procState{pairs: make(map[uint32]*pagePair, n)}
	for i := uint32(0); i < n; i++ {
		vpn := r.U32()
		pr := &pagePair{code: r.U32(), data: r.U32(), perm: r.U8()}
		if _, dup := st.pairs[vpn]; dup {
			return snapshot.Corruptf("core: duplicate split pair for vpn %#x", vpn)
		}
		st.pairs[vpn] = pr
	}
	p.ProtData = st
	return r.Err()
}
