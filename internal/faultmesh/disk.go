package faultmesh

// The disk class, for the serve journal: ENOSPC (in bursts — full disks
// stay full), short writes, fsync failures, and read corruption during
// replay. The Plane implements serve.DiskFaultInjector; the journal
// consults it on every write, sync, and replayed record.

import "errors"

// Errors the disk class injects. They read like their errno counterparts
// so log lines stay legible.
var (
	// ErrInjectedENOSPC stands in for ENOSPC: the write (or its tail, for
	// short writes) never reached the disk.
	ErrInjectedENOSPC = errors.New("faultmesh: injected ENOSPC (no space left on device)")
	// ErrInjectedSyncFail stands in for an fsync EIO: the data may or may
	// not be durable — the journal must assume not.
	ErrInjectedSyncFail = errors.New("faultmesh: injected fsync failure (input/output error)")
)

// BeforeWrite implements serve.DiskFaultInjector: consulted once per
// journal write of n bytes. It returns how many bytes may reach the file
// and, when fewer than n, the error the write must report.
func (p *Plane) BeforeWrite(n int) (int, error) {
	if p == nil || p.quiet.Load() {
		return n, nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	ds := &p.stats.Disk
	if p.burstLeft > 0 {
		p.burstLeft--
		ds.ENOSPCs++
		return 0, ErrInjectedENOSPC
	}
	if p.disk.roll(p.cfg.ENOSPC) {
		p.burstLeft = p.cfg.ENOSPCBurst - 1
		ds.ENOSPCs++
		return 0, ErrInjectedENOSPC
	}
	if p.disk.roll(p.cfg.ShortWrite) {
		ds.ShortWrites++
		return n / 2, ErrInjectedENOSPC
	}
	return n, nil
}

// BeforeSync implements serve.DiskFaultInjector: a non-nil return means
// the fsync failed and durability of everything since the last good sync
// is unknown.
func (p *Plane) BeforeSync() error {
	if p != nil && p.fire(&p.disk, p.cfg.SyncFail, &p.stats.Disk.SyncFails) {
		return ErrInjectedSyncFail
	}
	return nil
}

// OnRead implements serve.DiskFaultInjector: it may flip one bit of a
// replayed record's payload in place (bit rot between the CRC being
// written and the record being read back), returning true if it did.
func (p *Plane) OnRead(b []byte) bool {
	if p == nil || !p.active(p.cfg.ReadCorrupt) || len(b) == 0 {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.disk.roll(p.cfg.ReadCorrupt) {
		return false
	}
	flipBit(b, p.disk.next())
	p.stats.Disk.ReadCorruptions++
	return true
}
