package serve

// The crash-recovery journal: a bounded append-only file that makes the
// admission acknowledgment durable. Every record is CRC-framed and fsync'd
// before the client sees its "accepted" line, so a server crash can lose at
// most work, never an acknowledged job: on the next startup the journal is
// replayed, unfinished jobs are resubmitted, and each resumes from its most
// recent checkpoint image.
//
// On-disk format: a sequence of records, each
//
//	[u32 payload length][u32 CRC-32/IEEE of payload][payload]
//
// with all integers little-endian. The payload's first byte is the record
// kind (job submission, checkpoint, done); the rest is encoded with the
// snapshot codec. A torn *tail* — a partial frame or a CRC mismatch at the
// very end of the file, the signature of a crash mid-write — ends the
// replay: everything before it is adopted, the file is truncated back to
// the last whole record, and the torn record is counted (surfaced on
// /healthz and /metrics). A CRC-failing record with data *after* it is a
// different animal — mid-file corruption of a record that was once durable
// — and fails the open loudly with ErrJournalCorrupt rather than silently
// dropping the valid suffix. The journal is compacted in place once it
// outgrows its byte budget: finished jobs vanish, unfinished ones are
// rewritten as one submission plus their latest checkpoint.
//
// Persistent write failures (a full disk, a dying device — injectable via
// DiskFaultInjector) degrade the journal to a documented in-memory mode:
// admission keeps working from the live table, /healthz flips to degraded,
// and a periodic compact-rewrite restores durability the moment writes
// succeed again. See persist.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"

	"splitmem/internal/faultmesh"
	"splitmem/internal/snapshot"
)

// DiskFaultInjector injects storage-level faults into the journal's write,
// sync, and replay paths. *faultmesh.Plane implements it; it is an
// interface so tests can substitute a scripted disk. All methods are
// consulted under the journal lock.
type DiskFaultInjector interface {
	// BeforeWrite is consulted once per file write of n bytes. It returns
	// how many bytes may reach the file; when fewer than n, err is the
	// error the write must report (a short write or ENOSPC).
	BeforeWrite(n int) (allow int, err error)
	// BeforeSync is consulted once per fsync; non-nil means the fsync
	// failed and the data's durability is unknown.
	BeforeSync() error
	// OnRead may corrupt a replayed record's payload in place (bit rot);
	// it returns true if it did.
	OnRead(p []byte) bool
}

// ErrJournalCorrupt is returned by openJournal when replay meets a
// CRC-failing record with more data after it. A bad frame at the exact end
// of the file is a torn tail — the signature of a crash mid-write — and is
// safely truncated; a bad frame in the middle means bits changed under a
// record that was once durable, and silently dropping the valid suffix
// would un-acknowledge jobs. That must fail loudly and leave the file
// untouched for forensics.
var ErrJournalCorrupt = errors.New("journal: corrupt record mid-file")

// errTornWrite marks a chaos-injected torn write: a simulated crash
// mid-append, not a persistent disk failure. It is excluded from the
// degradation counter — a full disk keeps failing, a crash window doesn't.
var errTornWrite = errors.New("journal: torn write injected")

// errJournalDegraded is returned while the journal is in in-memory mode
// and the next recovery attempt is not yet due.
var errJournalDegraded = errors.New("journal: degraded to in-memory mode (writes failing)")

const (
	// journalDegradeThreshold is how many consecutive append failures flip
	// the journal into degraded in-memory mode.
	journalDegradeThreshold = 3
	// defaultJournalRecoveryInterval is how often a degraded journal
	// retries a full rewrite from the live table.
	defaultJournalRecoveryInterval = 100 * time.Millisecond
)

const (
	recJob        = 1 // a job admitted: id + raw submission body
	recCheckpoint = 2 // a checkpoint: id + cycles consumed + machine image
	recDone       = 3 // a terminal result: id + result JSON

	// maxJournalRecord bounds a single record so a corrupt length field
	// cannot make replay attempt an absurd allocation.
	maxJournalRecord = 256 << 20
)

// journalJob is the replayable state of one journaled job.
type journalJob struct {
	ID         uint64
	Body       []byte // raw submission JSON (replayed through DecodeJob)
	Checkpoint []byte // latest machine image, nil before the first checkpoint
	Cycles     uint64 // simulated cycles consumed at that checkpoint
}

// journal is the on-disk job log. All methods are nil-receiver safe so the
// runner can call them unconditionally on a server with no journal
// configured.
type journal struct {
	mu        sync.Mutex
	f         *os.File
	path      string
	size      int64 // end offset of the last known-good record
	dirtyTail bool  // a failed append may have left partial bytes past size
	maxBytes  int64
	torn      int    // torn/corrupt records detected (replay + in-process tears)
	maxSeen   uint64 // highest job id in any replayed record, live or done
	tears     *faultmesh.Plane
	faults    DiskFaultInjector
	live      map[uint64]*journalJob // admitted, not yet done

	// Degradation state: after journalDegradeThreshold consecutive append
	// failures the journal stops touching the disk and serves from the
	// live table alone (admission never wedges on a full disk); every
	// recoveryEvery it retries a full compact-rewrite, and the first one
	// that succeeds restores durability.
	degraded      bool
	degradedAt    time.Time     // start of the current degradation window
	degradedPrior time.Duration // sum of completed degradation windows
	consecFails   int
	lastRecovery  time.Time
	recoveries    uint64
	recoveryEvery time.Duration
	recovering    bool // background recovery loop running
	closed        bool
}

// openJournal opens (or creates) the journal at path, replays it, truncates
// any torn tail, and positions for appending. tears, when non-nil, injects
// torn writes for the recovery chaos cells; faults, when non-nil, injects
// disk-level faults (ENOSPC, short writes, fsync failures, read
// corruption) into every subsequent write and the replay itself.
func openJournal(path string, maxBytes int64, tears *faultmesh.Plane, faults DiskFaultInjector) (*journal, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	j := &journal{f: f, path: path, maxBytes: maxBytes, tears: tears, faults: faults, live: make(map[uint64]*journalJob)}
	if err := j.replay(); err != nil {
		f.Close()
		return nil, err
	}
	return j, nil
}

// replay scans the file record by record, rebuilding the live-job table
// and truncating at the first torn frame. A torn frame is only trusted as
// a crash artifact when it is the file's tail; a CRC-failing record with
// data after it is mid-file corruption and aborts the open with
// ErrJournalCorrupt — truncating there would silently un-acknowledge every
// job recorded after the bad frame.
func (j *journal) replay() error {
	fi, err := j.f.Stat()
	if err != nil {
		return err
	}
	fileSize := fi.Size()
	var off int64
	var hdr [8]byte
	for {
		n, err := io.ReadFull(j.f, hdr[:])
		if err != nil {
			if n > 0 {
				j.torn++ // partial header: crash mid-frame
			}
			break
		}
		length := binary.LittleEndian.Uint32(hdr[0:4])
		crc := binary.LittleEndian.Uint32(hdr[4:8])
		if length == 0 || length > maxJournalRecord {
			j.torn++
			break
		}
		payload := make([]byte, length)
		if _, err := io.ReadFull(j.f, payload); err != nil {
			j.torn++ // partial payload: crash mid-write
			break
		}
		if j.faults != nil {
			j.faults.OnRead(payload) // injected bit rot: the CRC must catch it
		}
		if snapshot.Checksum(payload) != crc {
			if end := off + 8 + int64(length); end < fileSize {
				return fmt.Errorf("journal: record at offset %d fails CRC with %d bytes following: %w",
					off, fileSize-end, ErrJournalCorrupt)
			}
			j.torn++ // bad frame at the tail: crash mid-write
			break
		}
		j.apply(payload)
		off += 8 + int64(length)
	}
	if err := j.f.Truncate(off); err != nil {
		return fmt.Errorf("journal: truncating torn tail: %w", err)
	}
	if _, err := j.f.Seek(off, io.SeekStart); err != nil {
		return err
	}
	j.size = off
	return nil
}

// apply folds one valid record into the live-job table. Records for unknown
// jobs (a checkpoint whose submission fell past a torn tail) are dropped:
// without the submission body the job cannot be replayed anyway.
func (j *journal) apply(payload []byte) {
	r := snapshot.NewReader(payload)
	kind := r.U8()
	id := r.U64()
	if id > j.maxSeen {
		j.maxSeen = id
	}
	switch kind {
	case recJob:
		body := r.Bytes32()
		if r.Err() != nil {
			j.torn++
			return
		}
		j.live[id] = &journalJob{ID: id, Body: body}
	case recCheckpoint:
		cycles := r.U64()
		img := r.Bytes32()
		if r.Err() != nil {
			j.torn++
			return
		}
		if jj, ok := j.live[id]; ok {
			jj.Checkpoint, jj.Cycles = img, cycles
		}
	case recDone:
		r.Bytes32() // result JSON: recorded for the audit trail, not replayed
		if r.Err() != nil {
			j.torn++
			return
		}
		delete(j.live, id)
	default:
		j.torn++ // unknown kind: same trust boundary as a bad CRC
	}
}

// write sends b to a file through the disk-fault layer: the injector
// decides how many bytes actually land (0 for ENOSPC, a prefix for a
// short write) and what error the caller sees.
func (j *journal) write(f *os.File, b []byte) error {
	allow, ferr := len(b), error(nil)
	if j.faults != nil {
		allow, ferr = j.faults.BeforeWrite(len(b))
		if allow > len(b) {
			allow = len(b)
		}
		if allow < 0 {
			allow = 0
		}
	}
	if allow > 0 {
		if _, werr := f.Write(b[:allow]); werr != nil {
			return werr
		}
	}
	return ferr
}

// sync fsyncs through the fault layer. An injected failure returns before
// the real fsync: the data may or may not be durable, and the journal must
// assume not.
func (j *journal) sync(f *os.File) error {
	if j.faults != nil {
		if err := j.faults.BeforeSync(); err != nil {
			return err
		}
	}
	return f.Sync()
}

// append frames, writes, and fsyncs one record, compacting first when the
// file has outgrown its budget. When the chaos injector fires, the write is
// deliberately torn — a partial frame with no fsync, exactly what a crash
// mid-write leaves behind — and an error is returned so the caller knows the
// record is not durable.
//
// A failed append marks the tail dirty instead of advancing size: the next
// append truncates back to the last good record before writing, so an
// in-process failure can never leave a bad frame *mid-file* (which replay
// would have to treat as corruption). Only a crash between the failure and
// the repair leaves the torn bytes behind — as a tail, where replay
// truncates them safely.
func (j *journal) append(payload []byte) error {
	if j.dirtyTail {
		if err := j.f.Truncate(j.size); err != nil {
			return err
		}
		if _, err := j.f.Seek(j.size, io.SeekStart); err != nil {
			return err
		}
		j.dirtyTail = false
	}
	if j.size > j.maxBytes {
		if err := j.compact(); err != nil {
			return err
		}
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], snapshot.Checksum(payload))
	if j.tears.TearJournal() {
		torn := append(hdr[:], payload[:len(payload)/2]...)
		j.f.Write(torn)
		j.dirtyTail = true
		j.torn++
		return errTornWrite
	}
	if err := j.write(j.f, hdr[:]); err != nil {
		j.dirtyTail = true
		return err
	}
	if err := j.write(j.f, payload); err != nil {
		j.dirtyTail = true
		return err
	}
	if err := j.sync(j.f); err != nil {
		j.dirtyTail = true // durability unknown: rewrite the frame next time
		return err
	}
	j.size += 8 + int64(len(payload))
	return nil
}

// compact rewrites the journal to its minimal form — one submission record
// (plus latest checkpoint) per unfinished job — through a temp file and an
// atomic rename, so a crash mid-compaction leaves either the old journal or
// the new one, never a hybrid.
func (j *journal) compact() error {
	tmp, err := os.OpenFile(j.path+".tmp", os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	// A failed compaction leaves the old journal untouched; just drop the
	// half-written temp file.
	abort := func(err error) error {
		tmp.Close()
		os.Remove(j.path + ".tmp")
		return err
	}
	ids := make([]uint64, 0, len(j.live))
	for id := range j.live {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	var size int64
	writeRec := func(payload []byte) error {
		var hdr [8]byte
		binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
		binary.LittleEndian.PutUint32(hdr[4:8], snapshot.Checksum(payload))
		if err := j.write(tmp, hdr[:]); err != nil {
			return err
		}
		if err := j.write(tmp, payload); err != nil {
			return err
		}
		size += 8 + int64(len(payload))
		return nil
	}
	for _, id := range ids {
		jj := j.live[id]
		if err := writeRec(encodeJobRecord(jj.ID, jj.Body)); err != nil {
			return abort(err)
		}
		if jj.Checkpoint != nil {
			if err := writeRec(encodeCheckpointRecord(jj.ID, jj.Cycles, jj.Checkpoint)); err != nil {
				return abort(err)
			}
		}
	}
	if err := j.sync(tmp); err != nil {
		return abort(err)
	}
	if err := os.Rename(j.path+".tmp", j.path); err != nil {
		return abort(err)
	}
	// The renamed fd IS the new journal; the old fd points at an unlinked
	// inode and just needs closing.
	j.f.Close()
	j.f = tmp
	j.size = size
	j.dirtyTail = false
	return nil
}

func encodeJobRecord(id uint64, body []byte) []byte {
	w := snapshot.NewWriter()
	w.U8(recJob)
	w.U64(id)
	w.Bytes32(body)
	return w.Bytes()
}

func encodeCheckpointRecord(id, cycles uint64, img []byte) []byte {
	w := snapshot.NewWriter()
	w.U8(recCheckpoint)
	w.U64(id)
	w.U64(cycles)
	w.Bytes32(img)
	return w.Bytes()
}

func encodeDoneRecord(id uint64, result []byte) []byte {
	w := snapshot.NewWriter()
	w.U8(recDone)
	w.U64(id)
	w.Bytes32(result)
	return w.Bytes()
}

// persist tries to make one already-applied record durable, running the
// degradation state machine. In healthy mode it appends; after
// journalDegradeThreshold consecutive failures (injected torn writes
// excluded — those are crash simulations, not persistent disk faults) it
// flips to degraded in-memory mode. While degraded, at most once per
// recoveryEvery it attempts a full compact-rewrite from the live table —
// which, because every log* method updates the live table before calling
// persist, recovers every record accepted during the outage the moment the
// disk heals. Callers hold j.mu.
func (j *journal) persist(payload []byte) error {
	if j.degraded {
		every := j.recoveryEvery
		if every <= 0 {
			every = defaultJournalRecoveryInterval
		}
		if time.Since(j.lastRecovery) < every {
			return errJournalDegraded
		}
		j.lastRecovery = time.Now()
		if err := j.compact(); err != nil {
			return fmt.Errorf("%w: recovery rewrite failed: %v", errJournalDegraded, err)
		}
		j.markRecoveredLocked()
		return nil
	}
	err := j.append(payload)
	if err == nil {
		j.consecFails = 0
		return nil
	}
	if !errors.Is(err, errTornWrite) {
		j.consecFails++
		if j.consecFails >= journalDegradeThreshold {
			j.degraded = true
			j.degradedAt = time.Now()
			j.lastRecovery = j.degradedAt
			j.startRecoveryLoopLocked()
		}
	}
	return err
}

// markRecoveredLocked closes the degradation window after a successful
// compact-rewrite. Caller holds j.mu.
func (j *journal) markRecoveredLocked() {
	j.degradedPrior += time.Since(j.degradedAt)
	j.degraded = false
	j.consecFails = 0
	j.recoveries++
}

// startRecoveryLoopLocked launches the background recovery retry for the
// current degradation episode. Write-path recovery alone is not enough: a
// degraded journal on a replica that never admits another job would stay
// degraded forever. The loop exits as soon as durability is restored (by
// either path) or the journal closes. Caller holds j.mu.
func (j *journal) startRecoveryLoopLocked() {
	if j.recovering || j.closed {
		return
	}
	j.recovering = true
	every := j.recoveryEvery
	if every <= 0 {
		every = defaultJournalRecoveryInterval
	}
	go func() {
		t := time.NewTicker(every)
		defer t.Stop()
		for range t.C {
			j.mu.Lock()
			if j.closed || !j.degraded {
				j.recovering = false
				j.mu.Unlock()
				return
			}
			if time.Since(j.lastRecovery) >= every {
				j.lastRecovery = time.Now()
				if err := j.compact(); err == nil {
					j.markRecoveredLocked()
				}
			}
			j.mu.Unlock()
		}
	}()
}

// logJob records an admission. Must be durable before the client sees its
// acknowledgment — this is the write that makes "accepted" mean something.
// The live table is updated before the disk is touched: in degraded mode
// the table is the journal, and the recovery rewrite replays it to disk.
func (j *journal) logJob(id uint64, body []byte) error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.live[id] = &journalJob{ID: id, Body: body}
	if id > j.maxSeen {
		j.maxSeen = id
	}
	return j.persist(encodeJobRecord(id, body))
}

// logCheckpoint records a checkpoint image. A failed (or torn) append is
// reported but not fatal: the in-memory supervisor still holds the image,
// only durability across a full server crash regresses to the previous
// checkpoint.
func (j *journal) logCheckpoint(id, cycles uint64, img []byte) error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if jj, ok := j.live[id]; ok {
		jj.Checkpoint, jj.Cycles = img, cycles
	}
	return j.persist(encodeCheckpointRecord(id, cycles, img))
}

// logDone records a terminal result and retires the job from replay.
func (j *journal) logDone(id uint64, result []byte) error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	delete(j.live, id)
	return j.persist(encodeDoneRecord(id, result))
}

// isDegraded reports whether the journal is in in-memory mode.
func (j *journal) isDegraded() bool {
	if j == nil {
		return false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.degraded
}

// degradedSeconds reports the cumulative wall time spent degraded,
// including the current window if one is open.
func (j *journal) degradedSeconds() float64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	d := j.degradedPrior
	if j.degraded {
		d += time.Since(j.degradedAt)
	}
	return d.Seconds()
}

// recoveryCount reports how many times a degraded journal has restored
// durability.
func (j *journal) recoveryCount() uint64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.recoveries
}

// unfinished returns the replayable jobs (admitted, never marked done) in
// admission order.
func (j *journal) unfinished() []*journalJob {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]*journalJob, 0, len(j.live))
	for _, jj := range j.live {
		out = append(out, jj)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// maxID returns the highest job id the journal has seen (live or done), so
// a restarted server's id counter never collides with journaled history.
func (j *journal) maxID() uint64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.maxSeen
}

// tornRecords reports torn/corrupt records seen so far.
func (j *journal) tornRecords() int {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.torn
}

func (j *journal) close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.closed = true // stops the background recovery loop at its next tick
	return j.f.Close()
}
