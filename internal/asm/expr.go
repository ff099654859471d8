package asm

import (
	"fmt"
	"strconv"
	"strings"
)

// exprParser evaluates assembler expressions: integers (decimal, 0x hex,
// character literals), symbols, unary minus, parentheses, and the binary
// operators + - * with conventional precedence. All arithmetic is uint32
// with wraparound, matching the machine's word size.
type exprParser struct {
	s    string
	pos  int
	syms map[string]uint32
}

func evalExpr(s string, syms map[string]uint32) (uint32, error) {
	p := exprParser{s: s, syms: syms}
	v, err := p.parseExpr()
	if err != nil {
		return 0, err
	}
	p.skipSpace()
	if p.pos != len(p.s) {
		return 0, fmt.Errorf("trailing junk %q in expression %q", p.s[p.pos:], s)
	}
	return v, nil
}

func (p *exprParser) skipSpace() {
	for p.pos < len(p.s) && (p.s[p.pos] == ' ' || p.s[p.pos] == '\t') {
		p.pos++
	}
}

func (p *exprParser) parseExpr() (uint32, error) {
	v, err := p.parseTerm()
	if err != nil {
		return 0, err
	}
	for {
		p.skipSpace()
		if p.pos >= len(p.s) {
			return v, nil
		}
		switch p.s[p.pos] {
		case '+':
			p.pos++
			t, err := p.parseTerm()
			if err != nil {
				return 0, err
			}
			v += t
		case '-':
			p.pos++
			t, err := p.parseTerm()
			if err != nil {
				return 0, err
			}
			v -= t
		default:
			return v, nil
		}
	}
}

func (p *exprParser) parseTerm() (uint32, error) {
	v, err := p.parseFactor()
	if err != nil {
		return 0, err
	}
	for {
		p.skipSpace()
		if p.pos >= len(p.s) || p.s[p.pos] != '*' {
			return v, nil
		}
		p.pos++
		f, err := p.parseFactor()
		if err != nil {
			return 0, err
		}
		v *= f
	}
}

func (p *exprParser) parseFactor() (uint32, error) {
	p.skipSpace()
	if p.pos >= len(p.s) {
		return 0, fmt.Errorf("unexpected end of expression %q", p.s)
	}
	c := p.s[p.pos]
	switch {
	case c == '-':
		p.pos++
		v, err := p.parseFactor()
		return -v, err
	case c == '(':
		p.pos++
		v, err := p.parseExpr()
		if err != nil {
			return 0, err
		}
		p.skipSpace()
		if p.pos >= len(p.s) || p.s[p.pos] != ')' {
			return 0, fmt.Errorf("missing ) in expression %q", p.s)
		}
		p.pos++
		return v, nil
	case c == '\'':
		return p.parseChar()
	case c >= '0' && c <= '9':
		return p.parseNumber()
	case isIdentStart(c):
		return p.parseSymbol()
	}
	return 0, fmt.Errorf("unexpected character %q in expression %q", c, p.s)
}

func (p *exprParser) parseChar() (uint32, error) {
	// p.s[p.pos] == '\''
	rest := p.s[p.pos+1:]
	if len(rest) == 0 {
		return 0, fmt.Errorf("unterminated character literal")
	}
	var v byte
	var n int
	if rest[0] == '\\' {
		if len(rest) < 2 {
			return 0, fmt.Errorf("unterminated escape in character literal")
		}
		e, err := unescape(rest[1])
		if err != nil {
			return 0, err
		}
		v, n = e, 2
	} else {
		v, n = rest[0], 1
	}
	if len(rest) <= n || rest[n] != '\'' {
		return 0, fmt.Errorf("unterminated character literal in %q", p.s)
	}
	p.pos += n + 2
	return uint32(v), nil
}

func (p *exprParser) parseNumber() (uint32, error) {
	start := p.pos
	for p.pos < len(p.s) && (isIdentChar(p.s[p.pos])) {
		p.pos++
	}
	tok := p.s[start:p.pos]
	v, err := strconv.ParseUint(tok, 0, 64)
	if err != nil {
		return 0, fmt.Errorf("bad number %q", tok)
	}
	if v > 0xFFFFFFFF {
		return 0, fmt.Errorf("number %q exceeds 32 bits", tok)
	}
	return uint32(v), nil
}

func (p *exprParser) parseSymbol() (uint32, error) {
	start := p.pos
	for p.pos < len(p.s) && isIdentChar(p.s[p.pos]) {
		p.pos++
	}
	name := p.s[start:p.pos]
	v, ok := p.syms[name]
	if !ok {
		return 0, fmt.Errorf("undefined symbol %q", name)
	}
	return v, nil
}

func isIdentStart(c byte) bool {
	return c == '_' || c == '.' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentChar(c byte) bool {
	return isIdentStart(c) || (c >= '0' && c <= '9') || c == 'x' || c == 'X'
}

func unescape(c byte) (byte, error) {
	switch c {
	case 'n':
		return '\n', nil
	case 'r':
		return '\r', nil
	case 't':
		return '\t', nil
	case '0':
		return 0, nil
	case '\\':
		return '\\', nil
	case '\'':
		return '\'', nil
	case '"':
		return '"', nil
	}
	return 0, fmt.Errorf("unknown escape \\%c", c)
}

// appendString parses the double-quoted string literal with escapes that
// starts s and appends its bytes to out; anything after the closing quote
// is ignored.
func appendString(out []byte, s string) ([]byte, error) {
	s = strings.TrimLeft(s, " \t")
	if len(s) == 0 || s[0] != '"' {
		return nil, fmt.Errorf("expected string literal")
	}
	i := 1
	for i < len(s) {
		c := s[i]
		switch c {
		case '"':
			return out, nil
		case '\\':
			if i+1 >= len(s) {
				return nil, fmt.Errorf("unterminated escape")
			}
			e, err := unescape(s[i+1])
			if err != nil {
				return nil, err
			}
			out = append(out, e)
			i += 2
		default:
			out = append(out, c)
			i++
		}
	}
	return nil, fmt.Errorf("unterminated string literal")
}
