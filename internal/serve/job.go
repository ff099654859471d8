// Package serve implements splitmem-serve: an HTTP detonation service that
// accepts simulation jobs (a SELF binary or S86 source plus a machine
// configuration), runs them on a bounded fleet.Pool worker pool, and
// returns — or streams, as NDJSON — the kernel events and detections the
// run produced. It is the operational form of the paper's observe and
// forensics modes: a honeypot pipeline POSTs suspected payloads and reads
// structured detections back.
//
// The service contract (endpoints, job schema, backpressure, draining) is
// documented in docs/SERVICE.md.
package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"splitmem"
	"splitmem/internal/guest"
	"splitmem/internal/loader"
)

// JobConfig is the wire form of the machine configuration, mirroring
// splitmem.Config field by field with JSON-friendly types. Zero values
// select the same defaults the library does.
type JobConfig struct {
	Protection string `json:"protection,omitempty"` // none | nx | split | split+nx (default split)
	Response   string `json:"response,omitempty"`   // break | observe | forensics | recovery (default break)

	SplitFraction     float64 `json:"split_fraction,omitempty"`
	MixedOnly         bool    `json:"mixed_only,omitempty"`
	ForensicShellcode []byte  `json:"forensic_shellcode,omitempty"` // base64
	SoftTLB           bool    `json:"soft_tlb,omitempty"`
	LazyTwins         bool    `json:"lazy_twins,omitempty"`

	ITLBSize  int `json:"itlb_size,omitempty"`
	DTLBSize  int `json:"dtlb_size,omitempty"`
	PhysBytes int `json:"phys_bytes,omitempty"`

	TraceDepth     int    `json:"trace_depth,omitempty"`
	Timeslice      uint64 `json:"timeslice,omitempty"`
	Seed           int64  `json:"seed,omitempty"`
	RandomizeStack bool   `json:"randomize_stack,omitempty"`
}

// ParseProtection maps the wire name to the library constant.
func ParseProtection(s string) (splitmem.Protection, error) {
	switch s {
	case "", "split":
		return splitmem.ProtSplit, nil
	case "none":
		return splitmem.ProtNone, nil
	case "nx":
		return splitmem.ProtNX, nil
	case "split+nx", "splitnx":
		return splitmem.ProtSplitNX, nil
	}
	return 0, fmt.Errorf("unknown protection %q", s)
}

// ParseResponse maps the wire name to the library constant.
func ParseResponse(s string) (splitmem.ResponseMode, error) {
	switch s {
	case "", "break":
		return splitmem.Break, nil
	case "observe":
		return splitmem.Observe, nil
	case "forensics":
		return splitmem.Forensics, nil
	case "recovery":
		return splitmem.Recovery, nil
	}
	return 0, fmt.Errorf("unknown response mode %q", s)
}

// JobRequest is one submitted job: exactly one program form (S86 source or
// a base64 SELF binary), the input to feed it, the machine configuration,
// and per-job limits (clamped to the server's caps).
type JobRequest struct {
	Name string `json:"name,omitempty"`

	Source string `json:"source,omitempty"` // S86 assembly
	CRT    bool   `json:"crt,omitempty"`    // append the guest C runtime to Source
	Binary []byte `json:"binary,omitempty"` // base64 SELF image

	Stdin     []byte    `json:"stdin,omitempty"`      // base64 bytes for the guest's fd 0
	StdinText string    `json:"stdin_text,omitempty"` // convenience alternative for text input
	KeepStdin bool      `json:"keep_stdin,omitempty"` // do NOT signal EOF after the initial input
	Config    JobConfig `json:"config"`
	MaxCycles uint64    `json:"max_cycles,omitempty"` // simulated-cycle budget (0 = server default)
	TimeoutMS int64     `json:"timeout_ms,omitempty"` // wall-clock limit (0 = server default)
}

// ResumeRequest is a migration submission: the original job body plus the
// latest checkpoint image and the client-visible event cursor, shipped by
// the cluster gateway when it moves an in-flight job off a draining or
// crashed replica. Checkpoint may be empty — a job migrated before its
// first checkpoint (or off a dead replica) resumes from scratch, and the
// deterministic simulation re-produces the identical event stream, with
// Cursor suppressing the prefix the client has already seen.
type ResumeRequest struct {
	// Job is the original submission body, byte for byte — it replays
	// through DecodeJob exactly like a journal record.
	Job json.RawMessage `json:"job"`

	Checkpoint []byte `json:"checkpoint,omitempty"` // base64 machine image (may be empty)
	Cycles     uint64 `json:"cycles,omitempty"`     // simulated cycles consumed at that checkpoint
	Cursor     int    `json:"cursor,omitempty"`     // event lines already delivered to the client

	// Key is the idempotency token for this migration hop. A replica
	// accepts each key exactly once: a duplicate claim (a gateway retry
	// racing a slow first attempt) gets 409, so a migrated job can never
	// run twice on the same replica.
	Key string `json:"key,omitempty"`
}

// DecodeResume parses a resume submission. The embedded job body is NOT
// validated here — the caller runs it through DecodeJob like any other
// submission so migration inherits the same 400 mapping.
func DecodeResume(body []byte) (*ResumeRequest, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var rr ResumeRequest
	if err := dec.Decode(&rr); err != nil {
		return nil, &SubmitError{Kind: "bad-request", Err: err}
	}
	if dec.More() {
		return nil, &SubmitError{Kind: "bad-request", Err: errors.New("trailing data after resume object")}
	}
	if len(rr.Job) == 0 {
		return nil, &SubmitError{Kind: "bad-request", Err: errors.New("resume needs the original job body")}
	}
	if len(rr.Checkpoint) == 0 && rr.Cycles != 0 {
		return nil, &SubmitError{Kind: "bad-request", Err: errors.New("cycles without a checkpoint image")}
	}
	if rr.Cursor < 0 {
		return nil, &SubmitError{Kind: "bad-request", Err: errors.New("negative cursor")}
	}
	return &rr, nil
}

// SubmitError is a job rejection attributable to the client. Kind is a
// stable machine-readable discriminator; Line is nonzero for assembly
// errors with a source position.
type SubmitError struct {
	Kind string // "bad-request" | "bad-config" | "bad-source" | "bad-image"
	Line int
	Err  error
}

// Error implements error.
func (e *SubmitError) Error() string { return e.Kind + ": " + e.Err.Error() }

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *SubmitError) Unwrap() error { return e.Err }

// DecodeJob parses and validates a job submission. Every rejection is a
// *SubmitError (a 400, in HTTP terms); the decoder never panics on hostile
// input — FuzzSubmitJSON pins that down.
func DecodeJob(body []byte) (*JobRequest, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var req JobRequest
	if err := dec.Decode(&req); err != nil {
		return nil, &SubmitError{Kind: "bad-request", Err: err}
	}
	// Trailing garbage after the JSON document is a malformed request too.
	if dec.More() {
		return nil, &SubmitError{Kind: "bad-request", Err: errors.New("trailing data after job object")}
	}
	if req.Source == "" && len(req.Binary) == 0 {
		return nil, &SubmitError{Kind: "bad-request", Err: errors.New("job needs source or binary")}
	}
	if req.Source != "" && len(req.Binary) > 0 {
		return nil, &SubmitError{Kind: "bad-request", Err: errors.New("source and binary are mutually exclusive")}
	}
	if len(req.Stdin) > 0 && req.StdinText != "" {
		return nil, &SubmitError{Kind: "bad-request", Err: errors.New("stdin and stdin_text are mutually exclusive")}
	}
	if req.TimeoutMS < 0 {
		return nil, &SubmitError{Kind: "bad-request", Err: errors.New("negative timeout_ms")}
	}
	return &req, nil
}

// MachineConfig converts the wire configuration to a splitmem.Config and
// validates it. Rejections are *SubmitError of kind bad-config.
func (req *JobRequest) MachineConfig() (splitmem.Config, error) {
	var cfg splitmem.Config
	prot, err := ParseProtection(req.Config.Protection)
	if err != nil {
		return cfg, &SubmitError{Kind: "bad-config", Err: err}
	}
	resp, err := ParseResponse(req.Config.Response)
	if err != nil {
		return cfg, &SubmitError{Kind: "bad-config", Err: err}
	}
	cfg = splitmem.Config{
		Protection:        prot,
		Response:          resp,
		SplitFraction:     req.Config.SplitFraction,
		MixedOnly:         req.Config.MixedOnly,
		ForensicShellcode: req.Config.ForensicShellcode,
		SoftTLB:           req.Config.SoftTLB,
		LazyTwins:         req.Config.LazyTwins,
		ITLBSize:          req.Config.ITLBSize,
		DTLBSize:          req.Config.DTLBSize,
		PhysBytes:         req.Config.PhysBytes,
		TraceDepth:        req.Config.TraceDepth,
		Timeslice:         req.Config.Timeslice,
		Seed:              req.Config.Seed,
		RandomizeStack:    req.Config.RandomizeStack,
		Telemetry:         true, // job metrics fold into the service /metrics
	}
	if resp == splitmem.Forensics && len(cfg.ForensicShellcode) == 0 {
		cfg.ForensicShellcode = splitmem.ExitShellcode()
	}
	if cfg.PhysBytes == 0 {
		// Detonation jobs are small; a 16 MiB machine keeps hostile images
		// cheap to reject and lets many workers coexist.
		cfg.PhysBytes = 16 << 20
	}
	if err := cfg.Validate(); err != nil {
		return cfg, &SubmitError{Kind: "bad-config", Err: err}
	}
	return cfg, nil
}

// Program assembles or unmarshals the job's program. Rejections are
// *SubmitError: bad-source (with the offending line when the assembler
// reports one) or bad-image.
func (req *JobRequest) Program() (*splitmem.Program, error) {
	if req.Source != "" {
		src := req.Source
		if req.CRT {
			src = guest.WithCRT(src)
		}
		prog, err := splitmem.Assemble(src)
		if err != nil {
			var ae *splitmem.AsmError
			if errors.As(err, &ae) {
				return nil, &SubmitError{Kind: "bad-source", Line: ae.Line, Err: err}
			}
			return nil, &SubmitError{Kind: "bad-source", Err: err}
		}
		return prog, nil
	}
	prog, err := loader.Unmarshal(req.Binary)
	if err != nil {
		return nil, &SubmitError{Kind: "bad-image", Err: err}
	}
	return prog, nil
}

// InputBytes returns the stdin content the job carries.
func (req *JobRequest) InputBytes() []byte {
	if req.StdinText != "" {
		return []byte(req.StdinText)
	}
	return req.Stdin
}

// JobResult is the terminal record of a job, the last NDJSON line of a
// streamed run and the whole response of a synchronous one.
type JobResult struct {
	ID     uint64 `json:"id"`
	Name   string `json:"name,omitempty"`
	Reason string `json:"reason"` // final StopReason (or "timeout" when the wall clock expired)
	Cycles uint64 `json:"cycles"`

	Exited     bool   `json:"exited"`
	ExitStatus int    `json:"exit_status,omitempty"`
	Killed     bool   `json:"killed,omitempty"`
	Signal     string `json:"signal,omitempty"`

	Detections   int    `json:"detections"`
	ShellSpawned bool   `json:"shell_spawned"`
	EventCount   int    `json:"event_count"`
	Stdout       string `json:"stdout,omitempty"`

	TimedOut bool   `json:"timed_out,omitempty"`
	Canceled bool   `json:"canceled,omitempty"`
	Error    string `json:"error,omitempty"`

	Attempts  int  `json:"attempts,omitempty"`  // supervisor attempts consumed (1 = no retries)
	Recovered bool `json:"recovered,omitempty"` // job was replayed from the crash journal
	Migrated  bool `json:"migrated,omitempty"`  // job arrived as a cluster migration resume

	Events []splitmem.Event `json:"events,omitempty"` // synchronous responses only
	Stats  *splitmem.Stats  `json:"stats,omitempty"`

	Wall time.Duration `json:"wall_ns"`
}
