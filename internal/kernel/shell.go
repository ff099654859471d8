package kernel

import (
	"fmt"
	"strings"
)

// Shell emulation. When exploited guest code invokes execve("/bin/sh") the
// kernel marks the attack successful and services the process as a canned
// interactive shell: commands arrive on stdin (the attacker's socket),
// responses leave on stdout, and — when the Sebek-style logger is armed —
// every keystroke line is recorded, reproducing Fig. 5(b) and 5(d).

// ArmSebek enables Sebek-style keystroke logging for p. The observe response
// mode arms it automatically when an injection is detected, mirroring the
// paper's buffer-overflow-triggered Sebek activation (§6.1.3).
func (k *Kernel) ArmSebek(p *Process) {
	if !p.sebek {
		p.sebek = true
		k.Emit(Event{Kind: EvSebekLine, PID: p.PID, Proc: p.Name, Text: "[sebek] logging armed"})
	}
}

// SebekArmed reports whether keystroke logging is active for p.
func (p *Process) SebekArmed() bool { return p.sebek }

// serviceShells pumps pending stdin lines through every shell-mode process.
// Shell work happens at kernel level (the spawned /bin/sh is outside the
// protected program) and charges only modest syscall-ish costs.
// Shells are serviced in PID order: stdout and event ordering across
// concurrent shells must not depend on map iteration.
func (k *Kernel) serviceShells() {
	for _, p := range k.byPID {
		if p.state != stateShell {
			continue
		}
		for {
			line, ok := takeLine(&p.stdin.data)
			if !ok {
				break
			}
			k.m.AddCycles(k.m.Cost.Syscall)
			if p.sebek {
				k.Emit(Event{Kind: EvSebekLine, PID: p.PID, Proc: p.Name, Text: line})
			}
			if line == "exit" {
				p.outbuf = append(p.outbuf, []byte("exit\n")...)
				k.exitProcess(p, 0)
				break
			}
			p.outbuf = append(p.outbuf, []byte(shellRespond(line))...)
		}
		if p.state == stateShell && p.stdin.eof && len(p.stdin.data) == 0 {
			k.exitProcess(p, 0)
		}
	}
}

// takeLine pops one newline-terminated line from buf.
func takeLine(buf *[]byte) (string, bool) {
	b := *buf
	for i, c := range b {
		if c == '\n' {
			line := strings.TrimRight(string(b[:i]), "\r")
			*buf = b[i+1:]
			return line, true
		}
	}
	return "", false
}

// shellRespond produces the canned output of the attacker's root shell.
func shellRespond(cmd string) string {
	fields := strings.Fields(cmd)
	if len(fields) == 0 {
		return ""
	}
	switch fields[0] {
	case "id":
		return "uid=0(root) gid=0(root) groups=0(root)\n"
	case "whoami":
		return "root\n"
	case "uname":
		return "Linux redhat72 2.6.13 #1 i686 GNU/Linux\n"
	case "pwd":
		return "/\n"
	case "echo":
		return strings.Join(fields[1:], " ") + "\n"
	case "cat":
		if len(fields) > 1 && fields[1] == "/etc/shadow" {
			return "root:$1$deadbeef$abcdefghijklmnopqrstu.:12345:0:99999:7:::\n"
		}
		return fmt.Sprintf("cat: %s: No such file or directory\n", strings.Join(fields[1:], " "))
	case "ls":
		return "bin  boot  dev  etc  home  lib  proc  root  tmp  usr  var\n"
	}
	return fmt.Sprintf("sh: %s: command not found\n", fields[0])
}
