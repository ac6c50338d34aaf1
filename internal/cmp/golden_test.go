package cmp

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"hash"
	"math"
	"os"
	"reflect"
	"sort"
	"testing"

	"github.com/cmlasu/unsync/internal/fault"
	"github.com/cmlasu/unsync/internal/trace"
)

// goldenDigestFile holds the sha256 digest of every golden run's Result.
const goldenDigestFile = "testdata/golden_digests.json"

// goldenRC is the quick window every golden run uses.
func goldenRC() RunConfig {
	rc := DefaultRunConfig()
	rc.WarmupInsts = 2_000
	rc.MeasureInsts = 8_000
	return rc
}

// goldenInjectRate strikes every few thousand instructions, so the one
// injected UnSync and Reunion run each recover several times.
const goldenInjectRate, goldenInjectSeed = 5e-4, 0x601d

// goldenRuns computes the digest of every golden run: each Fig 4
// profile on each built-in scheme, one injected UnSync and one injected
// Reunion run on gzip, and two chips (two UnSync pairs plus a solo
// core, two Reunion pairs).
func goldenRuns(t *testing.T) map[string]string {
	t.Helper()
	rc := goldenRC()
	got := map[string]string{}
	for _, p := range trace.Benchmarks() {
		for _, s := range []Scheme{Baseline, UnSync, Reunion, TMR} {
			res, err := Run(s, rc, p)
			if err != nil {
				t.Fatalf("%s/%s: %v", p.Name, s, err)
			}
			got[p.Name+"/"+string(s)] = digestResult(res)
		}
	}
	gzip, _ := trace.ByName("gzip")
	plan := FaultPlan{SER: fault.SER{PerInst: goldenInjectRate}, Seed: goldenInjectSeed}
	for _, s := range []Scheme{UnSync, Reunion} {
		res, err := RunInjected(s, rc, gzip, plan)
		if err != nil {
			t.Fatalf("injected %s: %v", s, err)
		}
		if (res.UnSyncStats == nil || res.UnSyncStats.Recoveries == 0) &&
			(res.ReunionStats == nil || res.ReunionStats.Rollbacks == 0) {
			t.Fatalf("injected %s run never recovered", s)
		}
		got["gzip/"+string(s)+"+inject"] = digestResult(res)
	}
	for _, c := range []struct {
		key          string
		s            Scheme
		pairs, solos []string
	}{
		{"chip/unsync:bzip2+mcf|solo:gzip", UnSync, []string{"bzip2", "mcf"}, []string{"gzip"}},
		{"chip/reunion:bzip2+mcf", Reunion, []string{"bzip2", "mcf"}, nil},
	} {
		got[c.key] = digestChip(t, c.s, rc, c.pairs, c.solos)
	}
	return got
}

// goldenChipInsts is the stream length of every core on a golden chip.
const goldenChipInsts = 8_000

// digestChip runs a shared-L2 chip with one redundant pair per entry of
// pairs and one solo core per entry of solos to completion, and hashes
// the chip cycle, each pair's stats and both of its cores' stats, then
// each solo core's stats.
func digestChip(t *testing.T, s Scheme, rc RunConfig, pairs, solos []string) string {
	t.Helper()
	factories := func(names []string) []StreamFactory {
		var out []StreamFactory
		for _, n := range names {
			p, ok := trace.ByName(n)
			if !ok {
				t.Fatalf("no %s profile", n)
			}
			out = append(out, func() trace.Stream {
				return trace.NewLimit(trace.NewGenerator(p), goldenChipInsts)
			})
		}
		return out
	}
	ch, err := NewMixedChip(s, rc, factories(pairs), factories(solos))
	if err != nil {
		t.Fatal(err)
	}
	if err := ch.Run(100_000_000); err != nil {
		t.Fatalf("chip %s: %v", s, err)
	}
	h := sha256.New()
	hashValue(h, reflect.ValueOf(ch.Cycle()))
	for _, p := range ch.UnSyncPairs {
		hashValue(h, reflect.ValueOf([]any{p.Stats, p.A.Stats, p.B.Stats}))
	}
	for _, p := range ch.ReunionPairs {
		hashValue(h, reflect.ValueOf([]any{p.Stats, p.A.Stats, p.B.Stats}))
	}
	for _, c := range ch.Solo {
		hashValue(h, reflect.ValueOf(c.Stats))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenResultDigests pins every simulated statistic of the golden
// runs, Events included, to committed digests. The engine-equivalence
// tests compare two drivers over the same pipeline.Core, so they cannot
// see a timing change inside the core; this test can. A deliberate
// model change must regenerate testdata/golden_digests.json from the
// JSON this test logs on failure, and say why in the change log.
func TestGoldenResultDigests(t *testing.T) {
	raw, err := os.ReadFile(goldenDigestFile)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("%s: %v", goldenDigestFile, err)
	}
	got := goldenRuns(t)
	moved := 0
	for k, g := range got {
		if w, ok := want[k]; !ok {
			t.Errorf("%s: no committed digest", k)
			moved++
		} else if w != g {
			t.Errorf("%s: digest moved: %s -> %s", k, w, g)
			moved++
		}
	}
	for k := range want {
		if _, ok := got[k]; !ok {
			t.Errorf("%s: committed digest has no run", k)
		}
	}
	if moved > 0 {
		out, _ := json.MarshalIndent(got, "", "  ")
		t.Logf("current digests:\n%s", out)
	}
}

// digestResult hashes every field of a Result, unexported fields and
// pointed-to values included, in a canonical order.
func digestResult(r Result) string {
	h := sha256.New()
	hashValue(h, reflect.ValueOf(r))
	return hex.EncodeToString(h.Sum(nil))
}

func hashValue(h hash.Hash, v reflect.Value) {
	var buf [8]byte
	putU := func(u uint64) {
		binary.LittleEndian.PutUint64(buf[:], u)
		h.Write(buf[:])
	}
	switch v.Kind() {
	case reflect.Bool:
		if v.Bool() {
			putU(1)
		} else {
			putU(0)
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		putU(uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		putU(v.Uint())
	case reflect.Float32, reflect.Float64:
		putU(math.Float64bits(v.Float()))
	case reflect.String:
		putU(uint64(v.Len()))
		h.Write([]byte(v.String()))
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			putU(0)
			return
		}
		putU(1)
		hashValue(h, v.Elem())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			hashValue(h, v.Field(i))
		}
	case reflect.Slice, reflect.Array:
		putU(uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			hashValue(h, v.Index(i))
		}
	case reflect.Map:
		if v.Type().Key().Kind() != reflect.String {
			panic("digestResult: non-string map key")
		}
		keys := v.MapKeys()
		sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
		putU(uint64(len(keys)))
		for _, k := range keys {
			hashValue(h, k)
			hashValue(h, v.MapIndex(k))
		}
	default:
		panic("digestResult: unhashable kind " + v.Kind().String())
	}
}
