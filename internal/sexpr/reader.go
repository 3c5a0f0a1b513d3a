package sexpr

import (
	"fmt"
	"strconv"
	"strings"
)

// Reader parses S-expressions from text. It supports symbols, decimal
// fixnums, double-quoted strings with \" and \\ escapes, quote ('x),
// and ; line comments. Symbol names are case-sensitive and lower-case by
// convention.
type Reader struct {
	in   *Interner
	src  string
	pos  int
	line int
}

// NewReader returns a Reader over src that interns symbols in in.
func NewReader(in *Interner, src string) *Reader {
	return &Reader{in: in, src: src, line: 1}
}

// ReadAll reads every top-level form in the source.
func (r *Reader) ReadAll() ([]Value, error) {
	var out []Value
	for {
		v, ok, err := r.Read()
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		out = append(out, v)
	}
}

// Read reads one form. ok is false at end of input.
func (r *Reader) Read() (v Value, ok bool, err error) {
	r.skipSpace()
	if r.pos >= len(r.src) {
		return nil, false, nil
	}
	v, err = r.form()
	if err != nil {
		return nil, false, err
	}
	return v, true, nil
}

func (r *Reader) errf(format string, args ...any) error {
	return fmt.Errorf("line %d: %s", r.line, fmt.Sprintf(format, args...))
}

func (r *Reader) skipSpace() {
	for r.pos < len(r.src) {
		c := r.src[r.pos]
		switch {
		case c == '\n':
			r.line++
			r.pos++
		case c == ' ' || c == '\t' || c == '\r':
			r.pos++
		case c == ';':
			for r.pos < len(r.src) && r.src[r.pos] != '\n' {
				r.pos++
			}
		default:
			return
		}
	}
}

func (r *Reader) form() (Value, error) {
	r.skipSpace()
	if r.pos >= len(r.src) {
		return nil, r.errf("unexpected end of input")
	}
	c := r.src[r.pos]
	switch {
	case c == '(':
		r.pos++
		return r.list()
	case c == ')':
		return nil, r.errf("unexpected ')'")
	case c == '\'':
		r.pos++
		v, err := r.form()
		if err != nil {
			return nil, err
		}
		return List(r.in.Intern("quote"), v), nil
	case c == '"':
		return r.str()
	default:
		return r.atom()
	}
}

func (r *Reader) list() (Value, error) {
	var head, tail *Cell
	for {
		r.skipSpace()
		if r.pos >= len(r.src) {
			return nil, r.errf("unterminated list")
		}
		if r.src[r.pos] == ')' {
			r.pos++
			if head == nil {
				return nil, nil
			}
			return head, nil
		}
		if r.src[r.pos] == '.' && r.pos+1 < len(r.src) && isDelim(r.src[r.pos+1]) {
			if tail == nil {
				return nil, r.errf("dot at start of list")
			}
			r.pos++
			v, err := r.form()
			if err != nil {
				return nil, err
			}
			r.skipSpace()
			if r.pos >= len(r.src) || r.src[r.pos] != ')' {
				return nil, r.errf("expected ')' after dotted tail")
			}
			r.pos++
			tail.Cdr = v
			return head, nil
		}
		v, err := r.form()
		if err != nil {
			return nil, err
		}
		cell := &Cell{Car: v}
		if tail == nil {
			head = cell
		} else {
			tail.Cdr = cell
		}
		tail = cell
	}
}

func isDelim(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '(' || c == ')' || c == ';'
}

func (r *Reader) str() (Value, error) {
	r.pos++ // opening quote
	var sb strings.Builder
	for {
		if r.pos >= len(r.src) {
			return nil, r.errf("unterminated string")
		}
		c := r.src[r.pos]
		r.pos++
		switch c {
		case '"':
			return Str(sb.String()), nil
		case '\\':
			if r.pos >= len(r.src) {
				return nil, r.errf("unterminated escape")
			}
			e := r.src[r.pos]
			r.pos++
			switch e {
			case 'n':
				sb.WriteByte('\n')
			case 't':
				sb.WriteByte('\t')
			case '"', '\\':
				sb.WriteByte(e)
			default:
				return nil, r.errf("bad escape \\%c", e)
			}
		case '\n':
			r.line++
			sb.WriteByte(c)
		default:
			sb.WriteByte(c)
		}
	}
}

func (r *Reader) atom() (Value, error) {
	start := r.pos
	for r.pos < len(r.src) && !isDelim(r.src[r.pos]) && r.src[r.pos] != '"' && r.src[r.pos] != '\'' {
		r.pos++
	}
	tok := r.src[start:r.pos]
	if tok == "" {
		return nil, r.errf("empty token")
	}
	// Only a token that starts like a number is parsed as one: ParseInt
	// allocates its error, and most tokens are symbols.
	if isDigit(tok[0]) || tok[0] == '-' && len(tok) > 1 && isDigit(tok[1]) {
		if n, err := strconv.ParseInt(tok, 10, 64); err == nil {
			return Int(n), nil
		}
	}
	if tok == "nil" {
		return nil, nil
	}
	return r.in.Intern(tok), nil
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }
