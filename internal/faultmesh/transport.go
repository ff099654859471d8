package faultmesh

// The transport class: a fault-injecting http.RoundTripper for the
// gateway's replica-facing client.

import (
	"errors"
	"io"
	"net/http"
	"strings"
	"time"
)

// Errors the transport returns in place of transport-level failures. They
// surface to the gateway exactly as a real reset or partition would: as a
// *url.Error from http.Client.Do.
var (
	// ErrInjectedReset stands in for ECONNRESET: the connection died
	// before (or while) the request was delivered.
	ErrInjectedReset = errors.New("faultmesh: injected connection reset")
	// ErrInjectedPartition stands in for a network partition: the packet
	// left, nothing ever came back.
	ErrInjectedPartition = errors.New("faultmesh: injected partition (no route to host)")
)

// Transport wraps an inner RoundTripper (nil = http.DefaultTransport)
// with the plane's transport fault schedule. A nil plane returns the inner
// RoundTripper unwrapped.
func (p *Plane) Transport(inner http.RoundTripper) http.RoundTripper {
	if inner == nil {
		inner = http.DefaultTransport
	}
	if p == nil {
		return inner
	}
	return &transport{p: p, inner: inner}
}

// Client is a convenience: an http.Client whose every request crosses the
// plane's transport.
func (p *Plane) Client() *http.Client {
	return &http.Client{Transport: p.Transport(nil)}
}

// link holds one destination host's stream state. Guarded by Plane.mu.
type link struct {
	s        stream
	partLeft int // requests remaining in the open partition window
	partAsym bool
}

func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// plan is one request's fault schedule, drawn atomically under the plane
// lock so the decision sequence is a pure function of (seed, link,
// request ordinal).
type plan struct {
	partition     bool
	partitionAsym bool
	latency       time.Duration
	reset         bool
	resetMid      bool
	resetMidAfter int
	slow          bool
	truncate      bool
	truncateAfter int
	corruptHeader bool
	corrupt       bool
	corruptOff    int
	corruptBit    byte
}

func (p *Plane) plan(req *http.Request) plan {
	p.mu.Lock()
	defer p.mu.Unlock()
	host := req.URL.Host
	l := p.links[host]
	if l == nil {
		l = &link{s: newStream(p.cfg.Seed, fnv64(host)^saltLink)}
		p.links[host] = l
	}
	c := &p.cfg

	var pl plan
	// An open partition window dominates everything: it swallows requests
	// without consuming further stream draws.
	if l.partLeft > 0 {
		l.partLeft--
		pl.partition, pl.partitionAsym = true, l.partAsym
		return pl
	}
	if l.s.roll(c.Partition) {
		l.partAsym = l.s.roll(c.Asymmetric)
		l.partLeft = c.PartitionLen - 1 // this request consumes the first slot
		p.stats.Mesh.PartitionWindows++
		pl.partition, pl.partitionAsym = true, l.partAsym
		return pl
	}
	if l.s.roll(c.Latency) {
		span := uint64(c.LatencyMax-c.LatencyMin) + 1
		pl.latency = c.LatencyMin + time.Duration(l.s.next()%span)
	}
	pl.reset = l.s.roll(c.Reset)
	if l.s.roll(c.ResetMid) {
		pl.resetMid = true
		pl.resetMidAfter = 1 + int(l.s.next()%1024)
	}
	pl.slow = l.s.roll(c.SlowLoris)
	if l.s.roll(c.Truncate) {
		pl.truncate = true
		pl.truncateAfter = 1 + int(l.s.next()%1024)
	}
	pl.corruptHeader = l.s.roll(c.CorruptHeader)
	if l.s.roll(c.Corrupt) && corruptiblePath(c.CorruptPaths, req.URL.Path) {
		pl.corrupt = true
		pos := l.s.next()
		pl.corruptOff = int(pos % 4096)
		pl.corruptBit = byte(pos>>32) % 8
	}
	return pl
}

func corruptiblePath(paths []string, path string) bool {
	if len(paths) == 0 {
		return true
	}
	for _, sub := range paths {
		if sub != "" && strings.Contains(path, sub) {
			return true
		}
	}
	return false
}

type transport struct {
	p     *Plane
	inner http.RoundTripper
}

func (t *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	p, ms := t.p, &t.p.stats.Mesh
	if p.quiet.Load() {
		return t.inner.RoundTrip(req)
	}
	pl := p.plan(req)

	if pl.partition {
		p.add(&ms.PartitionDrops)
		if !pl.partitionAsym {
			return nil, ErrInjectedPartition
		}
		// Asymmetric: the request reaches the replica and takes effect
		// there; the response vanishes on the way back.
		resp, err := t.inner.RoundTrip(req)
		if err == nil && resp != nil {
			resp.Body.Close()
		}
		return nil, ErrInjectedPartition
	}
	if pl.latency > 0 {
		p.add(&ms.Latencies)
		tm := time.NewTimer(pl.latency)
		select {
		case <-tm.C:
		case <-req.Context().Done():
			tm.Stop()
			return nil, req.Context().Err()
		}
	}
	if pl.reset {
		p.add(&ms.Resets)
		return nil, ErrInjectedReset
	}

	resp, err := t.inner.RoundTrip(req)
	if err != nil || resp == nil {
		return resp, err
	}
	if pl.corruptHeader {
		p.add(&ms.HeaderCorruptions)
		corruptHeaders(resp.Header)
	}
	// Wrap innermost-first so corruption happens before truncation can
	// hide it and slow-loris delays apply to whatever survives.
	body := resp.Body
	if pl.corrupt {
		p.add(&ms.BodyCorruptions)
		body = &corruptBody{rc: body, off: pl.corruptOff, bit: pl.corruptBit}
	}
	if pl.truncate {
		p.add(&ms.Truncations)
		body = &truncateBody{rc: body, left: pl.truncateAfter}
	}
	if pl.resetMid {
		p.add(&ms.MidResets)
		body = &resetBody{rc: body, left: pl.resetMidAfter}
	}
	if pl.slow {
		p.add(&ms.SlowLoris)
		body = &slowBody{rc: body, delay: p.cfg.SlowLorisDelay, left: p.cfg.SlowLorisBytes}
	}
	resp.Body = body
	return resp, nil
}

// corruptHeaders mangles advisory response metadata: Retry-After becomes
// unparseable (receivers must fall back to their own backoff) and the
// Content-Type gets a flipped first byte. Neither touches the payload, so
// stream framing stays intact — header corruption tests the parsers, body
// corruption tests the checksums.
func corruptHeaders(h http.Header) {
	if h.Get("Retry-After") != "" {
		h.Set("Retry-After", "garbled")
	}
	if ct := h.Get("Content-Type"); ct != "" {
		b := []byte(ct)
		b[0] ^= 0x20
		h.Set("Content-Type", string(b))
	}
}

// truncateBody ends the response cleanly after left bytes: the peer
// looks like it closed the stream mid-message.
type truncateBody struct {
	rc   io.ReadCloser
	left int
}

func (b *truncateBody) Read(p []byte) (int, error) {
	if b.left <= 0 {
		return 0, io.EOF
	}
	if len(p) > b.left {
		p = p[:b.left]
	}
	n, err := b.rc.Read(p)
	b.left -= n
	return n, err
}

func (b *truncateBody) Close() error { return b.rc.Close() }

// resetBody dies after left bytes with a reset error — the mid-response
// connection loss a crashing middlebox produces.
type resetBody struct {
	rc   io.ReadCloser
	left int
}

func (b *resetBody) Read(p []byte) (int, error) {
	if b.left <= 0 {
		return 0, ErrInjectedReset
	}
	if len(p) > b.left {
		p = p[:b.left]
	}
	n, err := b.rc.Read(p)
	b.left -= n
	return n, err
}

func (b *resetBody) Close() error { return b.rc.Close() }

// slowBody trickles the first left bytes one at a time with a delay each —
// slow-loris from the server side. Total added stall is bounded by
// left*delay, so deadlines and watchdogs, not luck, decide survival.
type slowBody struct {
	rc    io.ReadCloser
	delay time.Duration
	left  int
}

func (b *slowBody) Read(p []byte) (int, error) {
	if b.left <= 0 || len(p) == 0 {
		return b.rc.Read(p)
	}
	b.left--
	time.Sleep(b.delay)
	return b.rc.Read(p[:1])
}

func (b *slowBody) Close() error { return b.rc.Close() }

// corruptBody flips one bit at a fixed stream offset (if the body is long
// enough to reach it).
type corruptBody struct {
	rc   io.ReadCloser
	off  int
	bit  byte
	seen int
}

func (b *corruptBody) Read(p []byte) (int, error) {
	n, err := b.rc.Read(p)
	if n > 0 && b.off >= b.seen && b.off < b.seen+n {
		p[b.off-b.seen] ^= 1 << b.bit
	}
	b.seen += n
	return n, err
}

func (b *corruptBody) Close() error { return b.rc.Close() }
