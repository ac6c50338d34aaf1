package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"testing"
)

// codecRecords are records the encoder must write exactly as
// json.Marshal does: canonical ones, the omitempty edges, and strings
// encoding/json escapes or rewrites.
func codecRecords() []TrialRecord {
	base := TrialRecord{
		Key: "0123456789abcdef", Prog: "fedcba9876543210", Seed: 7, Index: 41,
		Space: "int-reg", Reg: 5, Bit: 63, Step: 1234, Detected: true, Attempts: 1,
		Outcome: "benign",
	}
	var out []TrialRecord
	add := func(f func(r *TrialRecord)) {
		r := base
		f(&r)
		out = append(out, r)
	}
	add(func(r *TrialRecord) {})
	add(func(r *TrialRecord) { *r = TrialRecord{} })
	add(func(r *TrialRecord) { r.Reg, r.Addr = 0, 0 })
	add(func(r *TrialRecord) { r.Space, r.Reg, r.Addr = "mem", 0, 0x10008 })
	add(func(r *TrialRecord) {
		r.Reg, r.Bit, r.Addr, r.Seed, r.Step = 255, 255, math.MaxUint64, math.MaxUint64, math.MaxUint64
	})
	add(func(r *TrialRecord) { r.Index, r.Attempts = math.MinInt, math.MaxInt })
	add(func(r *TrialRecord) { r.Index, r.Attempts = -1, -7 })
	add(func(r *TrialRecord) { r.Outcome = "" })
	add(func(r *TrialRecord) { r.Detected = false })
	add(func(r *TrialRecord) { r.Key = "del\x7fok ~" })
	add(func(r *TrialRecord) {
		r.Outcome, r.Attempts = "", 2
		r.Err = "harness: bad site"
		r.AttemptErrs = []string{"attempt 1 (space=pc): boom", "attempt 2 (space=mem): boom"}
	})
	add(func(r *TrialRecord) { r.Outcome, r.Err = "", "a <b> & c" })
	add(func(r *TrialRecord) { r.Outcome, r.Err = "", "quote \" and backslash \\" })
	add(func(r *TrialRecord) { r.Outcome, r.Err = "", "line\u2028sep\u2029para" })
	add(func(r *TrialRecord) { r.Outcome, r.Err = "", "ctl\x00\x01\n\t\x1f" })
	add(func(r *TrialRecord) { r.Outcome, r.Err = "", "bad utf8 \xff\xfe end" })
	add(func(r *TrialRecord) { r.Outcome, r.Err = "", "\u00e9 non-ascii" })
	add(func(r *TrialRecord) { r.AttemptErrs = []string{"plain", "<tag>"} })
	add(func(r *TrialRecord) { r.AttemptErrs = []string{""} })
	add(func(r *TrialRecord) { r.AttemptErrs = []string{} })
	return out
}

func TestAppendJSONMatchesMarshal(t *testing.T) {
	for i, rec := range codecRecords() {
		checkEncode(t, fmt.Sprint(i), rec)
	}
}

// checkEncode asserts AppendJSON writes json.Marshal's bytes, appended
// after existing buffer content.
func checkEncode(t *testing.T, name string, rec TrialRecord) {
	t.Helper()
	want, err := json.Marshal(&rec)
	if err != nil {
		t.Fatal(err)
	}
	got := rec.AppendJSON([]byte("prefix"))
	if !bytes.Equal(got, append([]byte("prefix"), want...)) {
		t.Fatalf("%s: AppendJSON\n got %s\nwant prefix%s", name, got, want)
	}
}

// codecInputs are lines the decoder must decode exactly as
// json.Unmarshal does: the canonical form, and every way of leaving it.
func codecInputs() [][]byte {
	canon := `{"key":"k","prog":"p","seed":7,"i":3,"space":"int-reg","reg":4,"bit":9,"step":12,"detected":true,"attempts":1,"outcome":"benign"}`
	in := []string{
		canon,
		`{"key":"k","prog":"p","seed":7,"i":3,"space":"mem","bit":9,"addr":65544,"step":12,"detected":false,"attempts":2,"err":"x","attempt_errs":["a","b"]}`,
		`{"key":"","prog":"","seed":0,"i":0,"space":"","bit":0,"step":0,"detected":false,"attempts":0}`,
		`{"key":"k","prog":"p","seed":0,"i":-0,"space":"pc","reg":0,"bit":0,"addr":0,"step":0,"detected":true,"attempts":1,"outcome":""}`,
		`{"key":"k","prog":"p","seed":18446744073709551615,"i":-9223372036854775808,"space":"x","bit":255,"step":1,"detected":true,"attempts":9223372036854775807}`,
		`{"key":"k","prog":"p","seed":18446744073709551616,"i":3,"space":"x","bit":9,"step":1,"detected":true,"attempts":1}`,
		`{"key":"k","prog":"p","seed":7,"i":9223372036854775808,"space":"x","bit":9,"step":1,"detected":true,"attempts":1}`,
		`{"key":"k","prog":"p","seed":7,"i":3,"space":"x","reg":256,"bit":9,"step":1,"detected":true,"attempts":1}`,
		`{"key":"k","prog":"p","seed":7,"i":3,"space":"x","bit":-1,"step":1,"detected":true,"attempts":1}`,
		`{"key":"k","prog":"p","seed":-0,"i":3,"space":"x","bit":1,"step":1,"detected":true,"attempts":1}`,
		`{"key":"k","prog":"p","seed":07,"i":3,"space":"x","bit":1,"step":1,"detected":true,"attempts":1}`,
		`{"key":"k","prog":"p","seed":7.0,"i":3,"space":"x","bit":1,"step":1,"detected":true,"attempts":1}`,
		`{"key":"k","prog":"p","seed":7,"i":3e0,"space":"x","bit":1,"step":1,"detected":true,"attempts":1}`,
		`{"key":"k","prog":"p","seed":7,"i":3,"space":"x","bit":1,"step":1,"detected":null,"attempts":1}`,
		`{"key":"k","prog":"p","seed":7,"i":3,"space":"x","bit":1,"step":1,"detected":true,"attempts":1,"attempt_errs":[]}`,
		`{"key":"k","prog":"p","seed":7,"i":3,"space":"x","bit":1,"step":1,"detected":true,"attempts":1,"attempt_errs":null}`,
		`{"key":"k","prog":"p","seed":7,"i":3,"space":"x","bit":1,"step":1,"detected":true,"attempts":1,"attempt_errs":["a",]}`,
		`{"prog":"p","key":"k","seed":7,"i":3,"space":"x","bit":1,"step":1,"detected":true,"attempts":1}`,
		`{"key":"k","key":"k2","prog":"p","seed":7,"i":3,"space":"x","bit":1,"step":1,"detected":true,"attempts":1}`,
		`{"KEY":"k","prog":"p","seed":7,"i":3,"space":"x","bit":1,"step":1,"detected":true,"attempts":1}`,
		`{"key":"k","prog":"p","seed":7,"i":3,"space":"x","bit":1,"step":1,"detected":true,"attempts":1,"extra":1}`,
		`{"key":"k<","prog":"p","seed":7,"i":3,"space":"x","bit":1,"step":1,"detected":true,"attempts":1}`,
		`{"key":"k<>&","prog":"p","seed":7,"i":3,"space":"x","bit":1,"step":1,"detected":true,"attempts":1}`,
		"{\"key\":\"k\xff\",\"prog\":\"p\",\"seed\":7,\"i\":3,\"space\":\"x\",\"bit\":1,\"step\":1,\"detected\":true,\"attempts\":1}",
		"{\"key\":\"k\t\",\"prog\":\"p\",\"seed\":7,\"i\":3,\"space\":\"x\",\"bit\":1,\"step\":1,\"detected\":true,\"attempts\":1}",
		"{\"key\":\"\u00e9\",\"prog\":\"p\",\"seed\":7,\"i\":3,\"space\":\"x\",\"bit\":1,\"step\":1,\"detected\":true,\"attempts\":1}",
		" " + canon,
		canon + " ",
		canon + "\n",
		canon + "x",
		canon + "}",
		`{ "key":"k"}`,
		`null`,
		`[]`,
		`{}`,
		``,
	}
	out := make([][]byte, 0, len(in)+len(canon))
	for _, s := range in {
		out = append(out, []byte(s))
	}
	// Every torn prefix of a canonical line: what a kill mid-write leaves.
	for n := 0; n < len(canon); n++ {
		out = append(out, []byte(canon[:n]))
	}
	return out
}

func TestDecodeJSONMatchesUnmarshal(t *testing.T) {
	for _, raw := range codecInputs() {
		checkDecode(t, raw)
	}
	for _, rec := range codecRecords() {
		b, err := json.Marshal(&rec)
		if err != nil {
			t.Fatal(err)
		}
		checkDecode(t, b)
		// The canonical form must take the hand-written path, not just
		// agree with the fallback.
		var fast TrialRecord
		if rec.plain() && (!fast.decodeCanonical(b, "", "") || !fast.Equal(rec)) {
			t.Fatalf("canonical line %s missed the fast path (decoded %+v)", b, fast)
		}
	}
}

// checkDecode asserts DecodeJSON and json.Unmarshal agree on raw: the
// same error text and the same value, both into a zero record and into
// one whose fields the line may leave untouched. DecodeKeyed, given the
// decoded Key and Prog as the expected strings, must agree too.
func checkDecode(t *testing.T, raw []byte) {
	t.Helper()
	prefilled := TrialRecord{Key: "old", Reg: 3, Addr: 9, Outcome: "sdc", Err: "old", AttemptErrs: []string{"old"}}
	for _, start := range []TrialRecord{{}, prefilled} {
		want, got, keyed := start, start, start
		want.AttemptErrs = append([]string(nil), start.AttemptErrs...)
		got.AttemptErrs = append([]string(nil), start.AttemptErrs...)
		keyed.AttemptErrs = append([]string(nil), start.AttemptErrs...)
		werr := json.Unmarshal(raw, &want)
		gerr := got.DecodeJSON(raw)
		if fmt.Sprint(gerr) != fmt.Sprint(werr) {
			t.Fatalf("DecodeJSON(%q): error %v, json.Unmarshal: %v", raw, gerr, werr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("DecodeJSON(%q):\n got %#v\nwant %#v", raw, got, want)
		}
		kerr := keyed.DecodeKeyed(raw, want.Key, want.Prog)
		if fmt.Sprint(kerr) != fmt.Sprint(werr) || !reflect.DeepEqual(keyed, want) {
			t.Fatalf("DecodeKeyed(%q): %v %#v, json.Unmarshal: %v %#v", raw, kerr, keyed, werr, want)
		}
	}
}

// FuzzTrialRecordCodec checks the codec against encoding/json in both
// directions: AppendJSON writes json.Marshal's bytes for arbitrary
// field values, and DecodeJSON agrees with json.Unmarshal on arbitrary
// input bytes — on the error and on the decoded value.
func FuzzTrialRecordCodec(f *testing.F) {
	for _, rec := range codecRecords() {
		ae := ""
		if len(rec.AttemptErrs) > 0 {
			ae = rec.AttemptErrs[0]
		}
		b, _ := json.Marshal(&rec)
		f.Add(rec.Key, rec.Prog, rec.Seed, rec.Index, rec.Space, rec.Reg, rec.Bit, rec.Addr,
			rec.Step, rec.Detected, rec.Attempts, rec.Outcome, rec.Err, ae, b)
	}
	for _, raw := range codecInputs() {
		f.Add("k", "p", uint64(1), 0, "pc", uint8(0), uint8(1), uint64(0), uint64(2), false, 1, "hang", "", "", raw)
	}
	f.Fuzz(func(t *testing.T, key, prog string, seed uint64, idx int, space string, reg, bit uint8,
		addr, step uint64, detected bool, attempts int, outcome, errS, attemptErr string, raw []byte) {
		rec := TrialRecord{
			Key: key, Prog: prog, Seed: seed, Index: idx, Space: space, Reg: reg, Bit: bit,
			Addr: addr, Step: step, Detected: detected, Attempts: attempts, Outcome: outcome, Err: errS,
		}
		if attemptErr != "" {
			rec.AttemptErrs = []string{attemptErr, errS}
		}
		checkEncode(t, "fuzz", rec)
		enc, _ := json.Marshal(&rec)
		checkDecode(t, enc)
		checkDecode(t, raw)
	})
}
