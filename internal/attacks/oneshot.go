package attacks

import (
	"fmt"

	"splitmem"
	"splitmem/internal/guest"
)

// OneShot precomputes a single-exchange form of a Wilander benchmark cell:
// the vulnerable program's source plus the complete stdin (injected
// shellcode followed by the overflow payload) that hijacks it.
//
// The interactive driver in RunCell reads the victim's "BUF xxxxxxxx" leak
// and answers with a payload aimed at the leaked address. A detonation
// service job carries its whole input up front, so OneShot performs that
// probe here, on a throwaway unprotected machine: guest layout is
// deterministic (stack randomization off), so the address the probe leaks
// is the address every later run of the same source leaks, and the payload
// can be baked in. Submitting (source, stdin) to splitmem-serve with CRT
// enabled replays the attack exactly — a root shell on an unprotected
// machine, EvInjectionDetected under split memory.
func OneShot(tech Technique, seg Segment) (source string, stdin []byte, err error) {
	src := victimSource(tech, seg)
	prog, err := splitmem.Assemble(guest.WithCRT(src))
	if err != nil {
		return "", nil, fmt.Errorf("oneshot %v/%v: %w", tech, seg, err)
	}
	t, err := newTarget(splitmem.Config{Protection: splitmem.ProtNone}, prog,
		fmt.Sprintf("oneshot-probe-%d-%d", tech, seg))
	if err != nil {
		return "", nil, err
	}
	defer t.M.Close()
	out, ok := t.WaitOutput("BUF ")
	if !ok {
		return "", nil, fmt.Errorf("oneshot %v/%v: no address leak in %q", tech, seg, out)
	}
	codebuf, err := parseLeak(out, "BUF ")
	if err != nil {
		return "", nil, fmt.Errorf("oneshot %v/%v: %w", tech, seg, err)
	}
	stdin = append(shellcodeFor(tech, codebuf), buildPayload(tech, codebuf, prog.Symbols)...)
	return src, stdin, nil
}
