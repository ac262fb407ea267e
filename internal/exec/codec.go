package exec

import (
	"encoding/json"
	"slices"
	"strconv"

	"repro/internal/jsonstr"
)

// The trace-event line codec. Every canonical Event line — trace files,
// daemon step requests and responses — is written by AppendEvent and
// read by ParseEvent. Both produce exactly what encoding/json would, so
// the wire format is encoding/json's, but the common lines skip its
// reflection and per-call buffers.

// AppendEvent appends ev's JSONL line to dst: byte for byte what
// json.Encoder.Encode(ev) writes — fields i, in, out, term in that
// order with omitempty, map keys sorted, HTML-safe escaping and a
// trailing newline.
func AppendEvent(dst []byte, ev *Event) []byte {
	dst = append(dst, `{"i":`...)
	dst = strconv.AppendInt(dst, int64(ev.Instant), 10)
	if len(ev.Inputs) > 0 {
		dst = appendStringMap(append(dst, `,"in":`...), ev.Inputs)
	}
	if len(ev.Outputs) > 0 {
		dst = appendStringMap(append(dst, `,"out":`...), ev.Outputs)
	}
	if ev.Terminated {
		dst = append(dst, `,"term":true`...)
	}
	return append(dst, "}\n"...)
}

// appendStringMap appends m as a JSON object with sorted keys.
func appendStringMap(dst []byte, m map[string]string) []byte {
	var small [16]string
	keys := small[:0]
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	dst = append(dst, '{')
	for i, k := range keys {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(jsonstr.Append(dst, k), ':')
		dst = jsonstr.Append(dst, m[k])
	}
	return append(dst, '}')
}

// ParseEvent decodes one trace-event line into ev, overwriting it. The
// result, error included, is exactly what json.Unmarshal makes of the
// line in a zero Event: canonical lines (see ParseCanonicalEvent) are
// read directly, and every other line goes to encoding/json, which keeps
// its leniency (case-folded keys, unknown fields, null, escapes) and its
// error texts.
func ParseEvent(line []byte, ev *Event) error {
	if ParseCanonicalEvent(line, ev) {
		return nil
	}
	// Decoding into a local keeps ev itself off the heap on the direct
	// path: only this one escapes to encoding/json.
	var slow Event
	err := json.Unmarshal(line, &slow)
	*ev = slow
	return err
}

// ParseCanonicalEvent is ParseEvent's direct path. It reports whether
// line is a canonical Event line and, if so, decodes it into ev as
// json.Unmarshal would. Canonical means one JSON object, white space
// allowed, holding only the keys i, in, out and term, each at most once
// and in any order: i a non-negative integer without leading zeros, in
// and out objects whose keys and values are printable ASCII strings
// without escapes, term true or false. On false ev is unspecified.
// Callers whose lines may carry other fields (the daemon client's error
// line) use it and fall back to encoding/json themselves.
func ParseCanonicalEvent(line []byte, ev *Event) bool {
	*ev = Event{}
	p := lineParser{b: line}
	if !p.eat('{') {
		return false
	}
	if !p.eat('}') {
		var seen uint8
		for {
			key, ok := p.str()
			if !ok || !p.eat(':') {
				return false
			}
			var bit uint8
			switch string(key) {
			case "i":
				bit = 1
				ev.Instant, ok = p.natural()
			case "in":
				bit = 2
				ev.Inputs, ok = p.stringMap()
			case "out":
				bit = 4
				ev.Outputs, ok = p.stringMap()
			case "term":
				bit = 8
				ev.Terminated, ok = p.boolean()
			}
			if bit == 0 || seen&bit != 0 || !ok {
				return false
			}
			seen |= bit
			if p.eat('}') {
				break
			}
			if !p.eat(',') {
				return false
			}
		}
	}
	p.ws()
	return p.i == len(p.b)
}

// lineParser scans the canonical subset of JSON ParseCanonicalEvent
// accepts; every method reports false on anything outside it.
type lineParser struct {
	b []byte
	i int
}

// ws skips JSON white space.
func (p *lineParser) ws() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

// eat skips white space and consumes c.
func (p *lineParser) eat(c byte) bool {
	p.ws()
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// str consumes a string of printable ASCII without escapes and returns
// its contents.
func (p *lineParser) str() ([]byte, bool) {
	if !p.eat('"') {
		return nil, false
	}
	for start := p.i; p.i < len(p.b); p.i++ {
		switch c := p.b[p.i]; {
		case c == '"':
			p.i++
			return p.b[start : p.i-1], true
		case c < 0x20 || c > 0x7e || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

// maxInstantDigits bounds the digits of an instant so it always fits an
// int; longer numbers are left to encoding/json's range check.
const maxInstantDigits = 9 * strconv.IntSize / 32

// natural consumes a non-negative integer without leading zeros.
func (p *lineParser) natural() (int, bool) {
	p.ws()
	start, n := p.i, 0
	for ; p.i < len(p.b) && '0' <= p.b[p.i] && p.b[p.i] <= '9'; p.i++ {
		n = n*10 + int(p.b[p.i]-'0')
	}
	digits := p.i - start
	if digits == 0 || digits > maxInstantDigits || digits > 1 && p.b[start] == '0' {
		return 0, false
	}
	return n, true
}

// boolean consumes true or false.
func (p *lineParser) boolean() (bool, bool) {
	p.ws()
	rest := p.b[p.i:]
	switch {
	case len(rest) >= 4 && string(rest[:4]) == "true":
		p.i += 4
		return true, true
	case len(rest) >= 5 && string(rest[:5]) == "false":
		p.i += 5
		return false, true
	}
	return false, false
}

// stringMap consumes an object of plain strings. Like encoding/json it
// yields an empty, non-nil map for {} and keeps the last of duplicate
// keys.
func (p *lineParser) stringMap() (map[string]string, bool) {
	if !p.eat('{') {
		return nil, false
	}
	m := make(map[string]string)
	if p.eat('}') {
		return m, true
	}
	for {
		k, ok := p.str()
		if !ok || !p.eat(':') {
			return nil, false
		}
		v, ok := p.str()
		if !ok {
			return nil, false
		}
		m[string(k)] = string(v)
		if p.eat('}') {
			return m, true
		}
		if !p.eat(',') {
			return nil, false
		}
	}
}
