package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestMetricDeclarations pins the metric-name and unit charsets and
// that BENCHMARK.json declares exactly the metrics the harness reports.
func TestMetricDeclarations(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !validName(d.name) {
			t.Errorf("metric name %q outside [A-Za-z0-9_.-]", d.name)
		}
		if !validUnit(d.unit) {
			t.Errorf("metric %q unit %q outside [A-Za-z0-9_/%%.-]", d.name, d.unit)
		}
		if seen[d.name] {
			t.Errorf("metric %q declared twice", d.name)
		}
		seen[d.name] = true
	}
	for _, bad := range []string{"", "a b", "x/y", "_lead", "ümlaut", "a:b"} {
		if validName(bad) {
			t.Errorf("validName(%q) = true", bad)
		}
	}

	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ Name, Unit string }
	var bench struct {
		EndToEnd []decl `json:"end_to_end"`
		PerLayer []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []decl, want []metricDef) {
		declared := map[string]string{}
		for _, d := range got {
			declared[d.Name] = d.Unit
		}
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, harness reports %d", kind, len(got), len(want))
		}
		for _, d := range want {
			if unit, ok := declared[d.name]; !ok || unit != d.unit {
				t.Errorf("%s: %q (%s) missing from BENCHMARK.json or unit differs (%q)", kind, d.name, d.unit, unit)
			}
		}
	}
	same("end_to_end", bench.EndToEnd, endToEnd)
	same("per_layer", bench.PerLayer, perLayer)
}

// TestCompleteRejectsUndeclared pins that a result line carries every
// declared metric and nothing else.
func TestCompleteRejectsUndeclared(t *testing.T) {
	m := metrics{}
	m.set("setup_s", "s", 1.5)
	if err := m.complete(endToEnd); err != nil {
		t.Fatal(err)
	}
	if len(m) != len(endToEnd) || m["setup_s"].Value != 1.5 || m["trials_per_cpu_s"].Value != 0 {
		t.Fatalf("complete filled %v", m)
	}
	m.set("not.declared", "s", 1)
	if err := m.complete(endToEnd); err == nil {
		t.Fatal("undeclared metric accepted")
	}
}

// TestSelfTime checks self-time arithmetic on a synthetic span tree:
// overlapping children count once, a child running past its parent is
// clipped, and grandchildren only reduce their own parent.
func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},
		{ID: 5, Parent: 2, Name: "a1", Start: 15, End: 20},
		{ID: 6, Parent: 2, Name: "a2", Start: 18, End: 25},
		{ID: 7, Name: "other-root", Start: 0, End: 7},
	}
	want := map[int]int64{
		1: 100 - (50 + 10), // [10,60] ∪ [90,100]
		2: 30 - 10,         // [15,25]
		3: 30,
		4: 30,
		5: 5,
		6: 7,
		7: 7,
	}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, got[id], w)
		}
	}
	if d := sumDur(spans, "a1"); d != 5 {
		t.Errorf("sumDur(a1) = %d, want 5", d)
	}
}

// TestTracerRecordsParentsAndRuns checks span ids, parents and run ids.
func TestTracerRecordsParentsAndRuns(t *testing.T) {
	tr := newTracer()
	tr.newRun()
	root := tr.begin("root", 0)
	kid := tr.begin("kid", root)
	tr.end(kid)
	tr.end(root)
	tr.newRun()
	other := tr.begin("next", 0)
	tr.end(other)
	s := tr.snapshot()
	if len(s) != 3 || s[1].Parent != root || s[0].Run != 1 || s[2].Run != 2 {
		t.Fatalf("spans = %+v", s)
	}
	for _, x := range s {
		if x.End < x.Start {
			t.Errorf("span %s ends before it starts", x.Name)
		}
	}
	var nilTracer *tracer
	if id := nilTracer.begin("x", 0); id != 0 {
		t.Fatalf("nil tracer returned span id %d", id)
	}
	nilTracer.end(0)
}

// TestReferenceMismatchCountsAsFailure checks that a perturbed digest,
// a missing reference and a nondeterministic repeat each raise the
// failure fraction above 0, and that matching digests do not.
func TestReferenceMismatchCountsAsFailure(t *testing.T) {
	good := digestOf([]int{1, 2, 3})
	ref := refs{Digests: map[string]string{"w/out": good}}

	ck := newChecker(ref, "w", true)
	ck.reference("out", good)
	ck.reference("out", good)
	if ck.failFrac() != 0 || ck.attempted != 2 {
		t.Fatalf("matching digests: fail_frac %v, attempted %d", ck.failFrac(), ck.attempted)
	}

	perturbed := refs{Digests: map[string]string{"w/out": "0" + good[1:]}}
	if good[0] == '0' {
		perturbed.Digests["w/out"] = "1" + good[1:]
	}
	ck = newChecker(perturbed, "w", true)
	ck.reference("out", good)
	if ck.failFrac() <= 0 {
		t.Fatal("perturbed reference digest did not count as a failure")
	}

	ck = newChecker(ref, "w", true)
	ck.reference("missing", good)
	if ck.failFrac() <= 0 {
		t.Fatal("missing reference digest did not count as a failure")
	}

	ck = newChecker(refs{}, "w", false) // non-default seed: identities only
	ck.reference("out", good)
	ck.reference("out", digestOf([]int{1, 2, 4}))
	if ck.failed != 1 {
		t.Fatalf("nondeterministic repeat: failed = %d, want 1", ck.failed)
	}
}

// TestPerturbedReferenceFailsRun runs the campaign workload end to end
// against a reference file with one digest flipped: the result must
// report a failed operation and correct=false.
func TestPerturbedReferenceFailsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full campaign iteration")
	}
	ref, err := loadRefs("ref")
	if err != nil {
		t.Fatal(err)
	}
	key := "campaign/unsync.result"
	d, ok := ref.Digests[key]
	if !ok {
		t.Fatalf("no committed %s digest", key)
	}
	ref.Digests[key] = "f" + d[1:]
	if d[0] == 'f' {
		ref.Digests[key] = "e" + d[1:]
	}
	dir := t.TempDir()
	b, err := json.Marshal(ref)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, refFile), b, 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := run(config{workload: "campaign", seed: defaultSeed, seconds: 0.001, workers: 2,
		work: t.TempDir(), refDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 || res.Attempted == 0 {
		t.Fatalf("perturbed reference: correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
	}
}

// TestCanonicalJournal checks that journal lines sort by trial index.
func TestCanonicalJournal(t *testing.T) {
	in := []byte(`{"key":"k","i":2}` + "\n" + `{"key":"k","i":0}` + "\n" + `{"key":"k","i":1}` + "\n")
	want := `{"key":"k","i":0}` + "\n" + `{"key":"k","i":1}` + "\n" + `{"key":"k","i":2}` + "\n"
	got, err := canonicalJournal(in)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Fatalf("canonicalJournal = %q, want %q", got, want)
	}
	if _, err := canonicalJournal([]byte("not json\n")); err == nil {
		t.Fatal("malformed journal line accepted")
	}
}

// TestStealShare pins the /proc/stat parsing and the steal share that
// turns wall seconds into host seconds.
func TestStealShare(t *testing.T) {
	a := parseSteal("cpu  600 0 50 300 0 0 0 50 7 0")
	b := parseSteal("cpu  700 0 50 350 0 0 0 100 9 0")
	if a != (steal{steal: 50, total: 1000}) || b != (steal{steal: 100, total: 1200}) {
		t.Fatalf("parsed %+v and %+v", a, b)
	}
	if got := a.shareUntil(b); got != 0.25 {
		t.Errorf("share = %v, want 0.25", got)
	}
	for _, bad := range []string{"", "cpu0 1 2 3 4 5 6 7 8", "cpu 1 2 3", "cpu 1 2 x 4 5 6 7 8"} {
		if s := parseSteal(bad); s != (steal{}) {
			t.Errorf("parseSteal(%q) = %+v, want zero", bad, s)
		}
	}
	if got := (steal{}).shareUntil(b); got != 0 {
		t.Errorf("share from an unreadable start = %v, want 0", got)
	}
	if got := b.shareUntil(a); got != 0 {
		t.Errorf("share over a counter that went backwards = %v, want 0", got)
	}
}

// TestMedian pins the median used for every reported value.
func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{{nil, 0}, {[]float64{3}, 3}, {[]float64{4, 1, 3}, 3}, {[]float64{4, 1, 3, 2}, 2.5}} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}
