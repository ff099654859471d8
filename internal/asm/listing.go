package asm

import (
	"fmt"
	"strings"

	"splitmem/internal/loader"
)

// AssembleListing assembles src and additionally produces a classic
// assembler listing: every source line annotated with the address and the
// bytes it produced. Toolchain users (and the sasm -l flag) use it to debug
// guest programs and to compute the exact payload offsets exploits need.
func AssembleListing(src string) (*loader.Program, string, error) {
	a, prog, err := runPasses(src)
	if err != nil {
		return nil, "", err
	}

	// Collect, per source line, the (address, length, section) of each
	// emitted statement.
	type emitted struct {
		addr    uint32
		size    uint32
		section uint32
	}
	byLine := map[int][]emitted{}
	for i := range a.stmts {
		s := &a.stmts[i]
		if s.kind == stLabel || s.size == 0 && s.kind != stInstr {
			continue
		}
		if s.kind == stDirective {
			switch a.str(s.name) {
			case ".word", ".byte", ".ascii", ".asciz", ".space", ".align":
			default:
				continue
			}
		}
		byLine[int(s.line)] = append(byLine[int(s.line)], emitted{addr: s.addr, size: s.size, section: s.section})
	}

	var sb strings.Builder
	for i, line := range strings.Split(src, "\n") {
		ln := i + 1
		spans := byLine[ln]
		if len(spans) == 0 {
			fmt.Fprintf(&sb, "%-28s %s\n", "", line)
			continue
		}
		first := true
		for _, sp := range spans {
			sec := &a.sections[sp.section]
			buf := sec.buf
			off := sp.addr - sec.addr
			end := off + sp.size
			if int(end) > len(buf) {
				end = uint32(len(buf))
			}
			bytes := buf[off:end]
			// Wrap long byte runs (data directives) at 8 bytes per row.
			for o := 0; o < len(bytes); o += 8 {
				hi := o + 8
				if hi > len(bytes) {
					hi = len(bytes)
				}
				hex := make([]string, 0, 8)
				for _, b := range bytes[o:hi] {
					hex = append(hex, fmt.Sprintf("%02x", b))
				}
				prefix := fmt.Sprintf("%08x  %-17s", sp.addr+uint32(o), strings.Join(hex, " "))
				if first {
					fmt.Fprintf(&sb, "%s %s\n", prefix, line)
					first = false
				} else {
					fmt.Fprintf(&sb, "%s\n", prefix)
				}
			}
			if len(bytes) == 0 && first {
				fmt.Fprintf(&sb, "%08x  %-17s %s\n", sp.addr, "", line)
				first = false
			}
		}
	}
	return prog, sb.String(), nil
}
