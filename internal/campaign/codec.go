package campaign

import (
	"encoding/json"
	"math"
	"strconv"

	"github.com/cmlasu/unsync/internal/fault"
)

// The TrialRecord codec: every journal line, shard-stream line and
// merged-journal line a campaign writes is one TrialRecord, so the
// record gets a hand-written encoder and decoder for its canonical
// form — the exact bytes json.Marshal produces. encoding/json stays the
// reference: the encoder hands it any record whose strings need
// escaping, and the decoder hands it any input that is not in the
// canonical form, so both agree with encoding/json on every input.

// AppendJSON appends the record's JSON encoding to b and returns the
// extended buffer. The bytes are identical to json.Marshal(r).
func (r *TrialRecord) AppendJSON(b []byte) []byte {
	if !r.plain() {
		// Cannot fail: every field is a string, integer, bool or
		// []string, and json.Marshal coerces invalid UTF-8.
		out, _ := json.Marshal(r)
		return append(b, out...)
	}
	b = append(b, `{"key":"`...)
	b = append(b, r.Key...)
	b = append(b, `","prog":"`...)
	b = append(b, r.Prog...)
	b = append(b, `","seed":`...)
	b = strconv.AppendUint(b, r.Seed, 10)
	b = append(b, `,"i":`...)
	b = strconv.AppendInt(b, int64(r.Index), 10)
	b = append(b, `,"space":"`...)
	b = append(b, r.Space...)
	b = append(b, '"')
	if r.Reg != 0 {
		b = append(b, `,"reg":`...)
		b = strconv.AppendUint(b, uint64(r.Reg), 10)
	}
	b = append(b, `,"bit":`...)
	b = strconv.AppendUint(b, uint64(r.Bit), 10)
	if r.Addr != 0 {
		b = append(b, `,"addr":`...)
		b = strconv.AppendUint(b, r.Addr, 10)
	}
	b = append(b, `,"step":`...)
	b = strconv.AppendUint(b, r.Step, 10)
	b = append(b, `,"detected":`...)
	b = strconv.AppendBool(b, r.Detected)
	b = append(b, `,"attempts":`...)
	b = strconv.AppendInt(b, int64(r.Attempts), 10)
	if r.Outcome != "" {
		b = append(b, `,"outcome":"`...)
		b = append(b, r.Outcome...)
		b = append(b, '"')
	}
	if r.Err != "" {
		b = append(b, `,"err":"`...)
		b = append(b, r.Err...)
		b = append(b, '"')
	}
	if len(r.AttemptErrs) > 0 {
		b = append(b, `,"attempt_errs":[`...)
		for i, s := range r.AttemptErrs {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, '"')
			b = append(b, s...)
			b = append(b, '"')
		}
		b = append(b, ']')
	}
	return append(b, '}')
}

// plain reports whether every string in the record encodes as itself
// between quotes: no byte that encoding/json escapes or rewrites.
func (r *TrialRecord) plain() bool {
	if !plainString(r.Key) || !plainString(r.Prog) || !plainString(r.Space) ||
		!plainString(r.Outcome) || !plainString(r.Err) {
		return false
	}
	for _, s := range r.AttemptErrs {
		if !plainString(s) {
			return false
		}
	}
	return true
}

// plainString reports whether json.Marshal writes s verbatim: printable
// ASCII other than '"' and '\\', and other than the HTML-sensitive
// '<', '>' and '&' it escapes by default. Non-ASCII bytes are never
// plain, which also keeps U+2028, U+2029 and invalid UTF-8 on the
// encoding/json path.
func plainString(s string) bool {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20, c >= 0x80, c == '"', c == '\\', c == '<', c == '>', c == '&':
			return false
		}
	}
	return true
}

// DecodeJSON decodes one JSON-encoded record into r exactly as
// json.Unmarshal(raw, r) would: the same value and the same error. The
// canonical form AppendJSON writes is parsed by hand; anything else —
// another field order, whitespace, escapes, non-ASCII bytes, numbers
// out of range, a torn line — goes to json.Unmarshal.
func (r *TrialRecord) DecodeJSON(raw []byte) error {
	return r.DecodeKeyed(raw, "", "")
}

// DecodeKeyed is DecodeJSON for a reader that expects key and prog (a
// checkpoint resume, a fleet coordinator): a canonical line whose Key
// and Prog bytes equal them gets those strings instead of a copy, so
// decoding a matching record allocates nothing for them.
func (r *TrialRecord) DecodeKeyed(raw []byte, key, prog string) error {
	// Decode into a copy so a half-parsed line never leaks into r, and
	// fields the line omits keep r's values, as with json.Unmarshal.
	t := *r
	if t.decodeCanonical(raw, key, prog) {
		*r = t
		return nil
	}
	return json.Unmarshal(raw, r)
}

// internedNames maps every fault space and outcome name to one shared
// string, so decoding a record allocates neither.
var internedNames = func() map[string]string {
	m := make(map[string]string)
	for sp := fault.Space(0); sp < fault.NumSpaces; sp++ {
		m[sp.String()] = sp.String()
	}
	for o := fault.Outcome(0); o < fault.NumOutcomes; o++ {
		m[o.String()] = o.String()
	}
	return m
}()

// decodeCanonical parses raw in the canonical form into r, reporting
// false at the first byte that departs from it. Key and Prog reuse key
// and prog when the line's bytes match both.
func (r *TrialRecord) decodeCanonical(raw []byte, key, prog string) bool {
	d := canonDecoder{b: raw}
	if !d.lit(`{"key":`) {
		return false
	}
	ks, ke, ok := d.str()
	if !ok || !d.lit(`,"prog":`) {
		return false
	}
	ps, pe, ok := d.str()
	if !ok {
		return false
	}
	if string(raw[ks:ke]) == key && string(raw[ps:pe]) == prog {
		r.Key, r.Prog = key, prog
	} else {
		// Key and Prog share one allocation.
		kp := string(raw[ks:pe])
		r.Key, r.Prog = kp[:ke-ks], kp[ps-ks:]
	}
	if !d.lit(`,"seed":`) {
		return false
	}
	if r.Seed, ok = d.uint(math.MaxUint64); !ok || !d.lit(`,"i":`) {
		return false
	}
	if r.Index, ok = d.int(); !ok || !d.lit(`,"space":`) {
		return false
	}
	if r.Space, ok = d.name(); !ok {
		return false
	}
	if d.lit(`,"reg":`) {
		v, ok := d.uint(math.MaxUint8)
		if !ok {
			return false
		}
		r.Reg = uint8(v)
	}
	if !d.lit(`,"bit":`) {
		return false
	}
	v, ok := d.uint(math.MaxUint8)
	if !ok {
		return false
	}
	r.Bit = uint8(v)
	if d.lit(`,"addr":`) {
		if r.Addr, ok = d.uint(math.MaxUint64); !ok {
			return false
		}
	}
	if !d.lit(`,"step":`) {
		return false
	}
	if r.Step, ok = d.uint(math.MaxUint64); !ok || !d.lit(`,"detected":`) {
		return false
	}
	switch {
	case d.lit("true"):
		r.Detected = true
	case d.lit("false"):
		r.Detected = false
	default:
		return false
	}
	if !d.lit(`,"attempts":`) {
		return false
	}
	if r.Attempts, ok = d.int(); !ok {
		return false
	}
	if d.lit(`,"outcome":`) {
		if r.Outcome, ok = d.name(); !ok {
			return false
		}
	}
	if d.lit(`,"err":`) {
		s, e, ok := d.str()
		if !ok {
			return false
		}
		r.Err = string(raw[s:e])
	}
	if d.lit(`,"attempt_errs":[`) {
		errs := []string{}
		for !d.lit("]") {
			if len(errs) > 0 && !d.lit(",") {
				return false
			}
			s, e, ok := d.str()
			if !ok {
				return false
			}
			errs = append(errs, string(raw[s:e]))
		}
		r.AttemptErrs = errs
	}
	return d.lit("}") && d.i == len(raw)
}

// canonDecoder is a cursor over one canonical record line. Each method
// consumes its token and reports whether the token was there.
type canonDecoder struct {
	b []byte
	i int
}

// lit consumes the literal s.
func (d *canonDecoder) lit(s string) bool {
	if len(d.b)-d.i < len(s) || string(d.b[d.i:d.i+len(s)]) != s {
		return false
	}
	d.i += len(s)
	return true
}

// str consumes a quoted string free of escapes, control bytes and
// non-ASCII bytes, and returns the bounds of its contents.
func (d *canonDecoder) str() (start, end int, ok bool) {
	if d.i >= len(d.b) || d.b[d.i] != '"' {
		return 0, 0, false
	}
	start = d.i + 1
	for j := start; j < len(d.b); j++ {
		switch c := d.b[j]; {
		case c == '"':
			d.i = j + 1
			return start, j, true
		case c < 0x20, c >= 0x80, c == '\\':
			return 0, 0, false
		}
	}
	return 0, 0, false
}

// name consumes a string and returns it, interned when it is a fault
// space or outcome name.
func (d *canonDecoder) name() (string, bool) {
	s, e, ok := d.str()
	if !ok {
		return "", false
	}
	if n, ok := internedNames[string(d.b[s:e])]; ok {
		return n, true
	}
	return string(d.b[s:e]), true
}

// uint consumes a non-negative integer no larger than max. JSON allows
// no leading zeros, so a '0' ends the number and a following digit
// fails the next token.
func (d *canonDecoder) uint(max uint64) (uint64, bool) {
	start := d.i
	var v uint64
	for d.i < len(d.b) && d.b[d.i] >= '0' && d.b[d.i] <= '9' {
		c := uint64(d.b[d.i] - '0')
		if v > (max-c)/10 {
			return 0, false
		}
		v = v*10 + c
		d.i++
		if v == 0 {
			break
		}
	}
	return v, d.i > start
}

// int consumes an integer in the range of int.
func (d *canonDecoder) int() (int, bool) {
	if d.lit("-") {
		v, ok := d.uint(uint64(math.MaxInt) + 1)
		return int(-v), ok
	}
	v, ok := d.uint(math.MaxInt)
	return int(v), ok
}
