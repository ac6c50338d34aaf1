package lint

import (
	"encoding/json"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestLintRepo is the tier-1 guard: the repository itself must lint
// clean. Any new wall-clock read, math/rand use, order-sensitive map
// range, discarded simulator error or unaudited public-API panic fails
// the ordinary `go test ./...` run.
func TestLintRepo(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	findings, err := Run(DefaultConfig(root))
	if err != nil {
		t.Fatalf("lint failed to load the repository: %v", err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}

// writeModule materializes a fixture module in a temp dir.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for name, src := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func fixtureConfig(root string) Config {
	return Config{
		Root:              root,
		DeterministicDirs: []string{"internal/core"},
		RNGFile:           "internal/trace/rng.go",
		PublicDir:         ".",
		BatchFiles:        []string{"internal/core/lanes.go"},
		StreamDirs:        []string{"internal/stream"},
	}
}

const fixtureGoMod = "module example.com/fixture\n\ngo 1.22\n"

// runFixture lints a fixture module and returns findings for one rule.
func runFixture(t *testing.T, files map[string]string, rule string) []Finding {
	t.Helper()
	files["go.mod"] = fixtureGoMod
	root := writeModule(t, files)
	findings, err := Run(fixtureConfig(root))
	if err != nil {
		t.Fatalf("lint: %v", err)
	}
	var out []Finding
	for _, f := range findings {
		if f.Rule == rule {
			out = append(out, f)
		}
	}
	return out
}

// TestRandDiagnostic is the acceptance check from the issue: a
// math/rand global call introduced into internal/core must produce a
// diagnostic carrying file and line.
func TestRandDiagnostic(t *testing.T) {
	files := map[string]string{
		"fixture.go": "package fixture\n",
		"internal/core/core.go": `package core

import "math/rand"

// Jitter breaks determinism on purpose.
func Jitter() int {
	return rand.Intn(10)
}
`,
	}
	fs := runFixture(t, files, "rand")
	if len(fs) == 0 {
		t.Fatal("no rand findings for math/rand call in internal/core")
	}
	var call *Finding
	for i := range fs {
		if fs[i].Pos.Line == 7 {
			call = &fs[i]
		}
	}
	if call == nil {
		t.Fatalf("no finding at the rand.Intn call line; got %v", fs)
	}
	if !strings.HasSuffix(call.Pos.Filename, filepath.FromSlash("internal/core/core.go")) {
		t.Errorf("finding file = %q, want internal/core/core.go", call.Pos.Filename)
	}
	if call.Pos.Line != 7 || call.Pos.Column == 0 {
		t.Errorf("finding position = %d:%d, want line 7 with a column", call.Pos.Line, call.Pos.Column)
	}
	if !strings.Contains(call.Msg, "math/rand") {
		t.Errorf("message %q does not name math/rand", call.Msg)
	}
}

// TestRandExemptsRNGFile checks the single allowed implementation site.
func TestRandExemptsRNGFile(t *testing.T) {
	files := map[string]string{
		"fixture.go": "package fixture\n",
		"internal/trace/rng.go": `package trace

import "math/rand"

// New wraps a seeded source (the one legitimate use).
func New(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
`,
	}
	cfg := Config{
		Root:              "",
		DeterministicDirs: []string{"internal/core", "internal/trace"},
		RNGFile:           "internal/trace/rng.go",
		PublicDir:         ".",
	}
	files["go.mod"] = fixtureGoMod
	cfg.Root = writeModule(t, files)
	findings, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		if f.Rule == "rand" {
			t.Errorf("rng.go should be exempt, got %s", f)
		}
	}
}

func TestWallclockRule(t *testing.T) {
	files := map[string]string{
		"fixture.go": `package fixture

import "time"

// Bad reads the wall clock without an audit directive.
func Bad() time.Time { return time.Now() }

// Audited reads it under the directive.
func Audited() time.Time {
	//unsync:allow-wallclock fixture timing
	return time.Now()
}

// Elapsed uses time.Since, which also reads the clock.
func Elapsed(t0 time.Time) time.Duration { return time.Since(t0) }
`,
	}
	fs := runFixture(t, files, "wallclock")
	if len(fs) != 2 {
		t.Fatalf("got %d wallclock findings (%v), want 2 (Bad and Elapsed)", len(fs), fs)
	}
	if fs[0].Pos.Line != 6 || fs[1].Pos.Line != 15 {
		t.Errorf("finding lines = %d,%d, want 6,15", fs[0].Pos.Line, fs[1].Pos.Line)
	}
}

func TestMaprangeRule(t *testing.T) {
	files := map[string]string{
		"fixture.go": "package fixture\n",
		"internal/core/core.go": `package core

// Collect appends in map order: order-sensitive, flagged.
func Collect(m map[int]int) []int {
	var out []int
	for k := range m {
		out = append(out, k)
	}
	return out
}

// Sum folds integers commutatively: order-independent, clean.
func Sum(m map[int]int) int {
	var s int
	for _, v := range m {
		s += v
	}
	return s
}

// SumF accumulates floats: not associative, flagged.
func SumF(m map[int]float64) float64 {
	var s float64
	for _, v := range m {
		s += v
	}
	return s
}

// Audited is suppressed by the directive.
func Audited(m map[int]int) []int {
	var out []int
	//unsync:allow-maprange fixture: consumer sorts the result
	for k := range m {
		out = append(out, k)
	}
	return out
}
`,
	}
	fs := runFixture(t, files, "maprange")
	if len(fs) != 2 {
		t.Fatalf("got %d maprange findings (%v), want 2 (Collect and SumF)", len(fs), fs)
	}
	if fs[0].Pos.Line != 6 || fs[1].Pos.Line != 24 {
		t.Errorf("finding lines = %d,%d, want 6,24", fs[0].Pos.Line, fs[1].Pos.Line)
	}
}

func TestUncheckedErrorRule(t *testing.T) {
	files := map[string]string{
		"fixture.go": "package fixture\n",
		"internal/emu2/emu.go": `package emu2

// Run is an exported simulator API returning an error.
func Run() error { return nil }
`,
		"internal/core/core.go": `package core

import "example.com/fixture/internal/emu2"

// Dropped discards the error: flagged.
func Dropped() {
	emu2.Run()
}

// Checked handles it: clean.
func Checked() error {
	return emu2.Run()
}

// Explicit acknowledges the discard: clean.
func Explicit() {
	_ = emu2.Run()
}
`,
	}
	fs := runFixture(t, files, "unchecked-error")
	if len(fs) != 1 {
		t.Fatalf("got %d unchecked-error findings (%v), want 1", len(fs), fs)
	}
	if fs[0].Pos.Line != 7 {
		t.Errorf("finding line = %d, want 7", fs[0].Pos.Line)
	}
}

func TestPanicReachability(t *testing.T) {
	files := map[string]string{
		"fixture.go": `package fixture

import "example.com/fixture/internal/core"

// Public is part of the exported API surface.
func Public(n int) { core.Step(n) }
`,
		"internal/core/core.go": `package core

// Step panics on bad input: reachable from fixture.Public, flagged.
func Step(n int) {
	if n < 0 {
		panic("negative")
	}
}

// helper panics but nothing public reaches it: clean.
func helper() {
	panic("unreached")
}

// Audited panics under the directive: clean.
func Audited() {
	//unsync:allow-panic fixture invariant
	panic("audited")
}
`,
	}
	fs := runFixture(t, files, "panic-path")
	if len(fs) != 1 {
		t.Fatalf("got %d panic-path findings (%v), want 1 (Step only)", len(fs), fs)
	}
	if fs[0].Pos.Line != 6 {
		t.Errorf("finding line = %d, want 6", fs[0].Pos.Line)
	}
	if !strings.Contains(fs[0].Msg, "fixture.Public") || !strings.Contains(fs[0].Msg, "core.Step") {
		t.Errorf("message %q does not show the call chain", fs[0].Msg)
	}
}

// TestPanicViaInterface checks class-hierarchy resolution: a panic in a
// concrete method reached only through an interface call is found.
func TestPanicViaInterface(t *testing.T) {
	files := map[string]string{
		"fixture.go": `package fixture

import "example.com/fixture/internal/core"

// Drive calls through the interface; the concrete Seek panics.
func Drive(s core.Stream) { core.Drive(s) }

// Make hands out the panicking implementation.
func Make() core.Stream { return core.NewBad() }
`,
		"internal/core/core.go": `package core

// Stream is the dispatch interface.
type Stream interface{ Seek(uint64) }

// Drive seeks through the interface.
func Drive(s Stream) { s.Seek(0) }

type bad struct{}

// NewBad returns the panicking implementation.
func NewBad() Stream { return bad{} }

// Seek implements Stream with a panic.
func (bad) Seek(uint64) {
	panic("cannot seek")
}
`,
	}
	fs := runFixture(t, files, "panic-path")
	if len(fs) != 1 {
		t.Fatalf("got %d panic-path findings (%v), want 1 (bad.Seek via Stream.Seek)", len(fs), fs)
	}
	if fs[0].Pos.Line != 16 {
		t.Errorf("finding line = %d, want 16", fs[0].Pos.Line)
	}
}

// TestFindingString checks the file:line:col rendering the CLI prints.
func TestFindingString(t *testing.T) {
	files := map[string]string{
		"fixture.go": "package fixture\n",
		"internal/core/core.go": `package core

import "math/rand"

// Roll is nondeterministic.
func Roll() int { return rand.Int() }
`,
	}
	fs := runFixture(t, files, "rand")
	if len(fs) == 0 {
		t.Fatal("expected findings")
	}
	s := fs[len(fs)-1].String()
	if !strings.Contains(s, "core.go:6:") || !strings.Contains(s, "rand:") {
		t.Errorf("String() = %q, want file:line:col and rule", s)
	}
}

// TestMeasureLoopRule pins the single-engine discipline: a ResetStats
// call in simulator code outside the engine file marks a hand-rolled
// warmup/measure loop and must be flagged; the engine itself,
// delegating ResetStats methods, and audited sites stay clean.
func TestMeasureLoopRule(t *testing.T) {
	files := map[string]string{
		"fixture.go": "package fixture\n",
		"internal/core/machine.go": `package core

type Machine struct{ insts uint64 }

func (m *Machine) Step()       { m.insts++ }
func (m *Machine) ResetStats() { m.insts = 0 }

// Pair delegates ResetStats to its halves — structural, not a loop.
type Pair struct{ A, B Machine }

func (p *Pair) ResetStats() {
	p.A.ResetStats()
	p.B.ResetStats()
}
`,
		"internal/core/engine.go": `package core

// Drive is the blessed measurement loop.
func Drive(m *Machine, warmup uint64) {
	for m.insts < warmup {
		m.Step()
	}
	m.ResetStats()
}
`,
		"internal/core/rogue.go": `package core

// runByHand re-rolls the warmup/measure loop: must be flagged.
func runByHand(m *Machine) {
	for m.insts < 100 {
		m.Step()
	}
	m.ResetStats()
}

func audited(m *Machine) {
	m.ResetStats() //unsync:allow-measure-loop calibration helper
}
`,
	}
	files["go.mod"] = fixtureGoMod
	root := writeModule(t, files)
	cfg := fixtureConfig(root)
	cfg.EngineFile = "internal/core/engine.go"
	findings, err := Run(cfg)
	if err != nil {
		t.Fatalf("lint: %v", err)
	}
	var got []Finding
	for _, f := range findings {
		if f.Rule == "measureloop" {
			got = append(got, f)
		}
	}
	if len(got) != 1 {
		t.Fatalf("want exactly the rogue loop flagged, got %v", got)
	}
	if !strings.Contains(got[0].Pos.Filename, "rogue.go") {
		t.Errorf("finding in %s, want rogue.go", got[0].Pos.Filename)
	}
	if !strings.Contains(got[0].Msg, "cmp.Drive") {
		t.Errorf("message should point at the engine: %s", got[0].Msg)
	}
}

func TestSleepRule(t *testing.T) {
	files := map[string]string{
		"fixture.go": "package fixture\n",
		"internal/worker/worker.go": `package worker

import "time"

// pollRetry is the flagged shape: a bare sleep in a retry loop.
func pollRetry(try func() error) {
	for try() != nil {
		time.Sleep(time.Second)
	}
}

// audited carries a reason.
func audited(try func() error) {
	for try() != nil {
		time.Sleep(time.Second) //unsync:allow-sleep fixture: external system has no notification channel
	}
}

// single is out of scope: not inside a loop.
func single() {
	time.Sleep(time.Millisecond)
}

// nestedLiteral is out of scope: the sleep belongs to the inner
// function, not the loop that defines it.
func nestedLiteral() []func() {
	var fns []func()
	for i := 0; i < 3; i++ {
		fns = append(fns, func() { time.Sleep(time.Millisecond) })
	}
	return fns
}

// rangeRetry is flagged too: range loops are loops.
func rangeRetry(items []int, try func(int) error) {
	for _, it := range items {
		if try(it) != nil {
			time.Sleep(time.Second)
		}
	}
}
`,
		"internal/resilience/backoff.go": `package resilience

import "time"

// Exempt: this package implements the backoff everyone else must use.
func retry(try func() error) {
	for try() != nil {
		time.Sleep(time.Second)
	}
}
`,
	}
	files["go.mod"] = fixtureGoMod
	root := writeModule(t, files)
	cfg := fixtureConfig(root)
	cfg.ResilienceDir = "internal/resilience"
	findings, err := Run(cfg)
	if err != nil {
		t.Fatalf("lint: %v", err)
	}
	var got []Finding
	for _, f := range findings {
		if f.Rule == "sleep" {
			got = append(got, f)
		}
	}
	if len(got) != 2 {
		t.Fatalf("sleep findings = %d, want 2 (pollRetry and rangeRetry): %v", len(got), got)
	}
	for _, f := range got {
		if !strings.Contains(f.Msg, "resilience.Retry") {
			t.Errorf("finding %v should point at resilience.Retry", f)
		}
		if !strings.Contains(f.Pos.Filename, "worker.go") {
			t.Errorf("finding in wrong file: %v", f)
		}
	}
}

func TestTimerLeakRule(t *testing.T) {
	files := map[string]string{
		"fixture.go": "package fixture\n",
		"internal/worker/worker.go": `package worker

import "time"

// heartbeatLoop is the flagged shape: one stranded timer per message.
func heartbeatLoop(msgs <-chan int, quit <-chan struct{}) {
	for {
		select {
		case <-msgs:
		case <-time.After(time.Second):
			return
		case <-quit:
			return
		}
	}
}

// audited carries a reason.
func audited(ticks <-chan int) {
	for range ticks {
		<-time.After(time.Millisecond) //unsync:allow-timer fixture: ticks arrive minutes apart, the pile is bounded at one
	}
}

// hoisted is the prescribed fix: one timer, Stop/drain/Reset.
func hoisted(msgs <-chan int) {
	t := time.NewTimer(time.Second)
	defer t.Stop()
	for {
		select {
		case _, ok := <-msgs:
			if !ok {
				return
			}
			if !t.Stop() {
				select {
				case <-t.C:
				default:
				}
			}
			t.Reset(time.Second)
		case <-t.C:
			return
		}
	}
}

// single is out of scope: not inside a loop.
func single() {
	<-time.After(time.Millisecond)
}

// nestedLiteral is out of scope: the After belongs to the inner
// function, not the loop that defines it.
func nestedLiteral() []func() {
	var fns []func()
	for i := 0; i < 3; i++ {
		fns = append(fns, func() { <-time.After(time.Millisecond) })
	}
	return fns
}

// rangeWait is flagged too: range loops are loops.
func rangeWait(items []int) {
	for range items {
		<-time.After(time.Second)
	}
}
`,
	}
	fs := runFixture(t, files, "timer-leak")
	if len(fs) != 2 {
		t.Fatalf("timer-leak findings = %d, want 2 (heartbeatLoop and rangeWait): %v", len(fs), fs)
	}
	for _, f := range fs {
		if !strings.Contains(f.Msg, "Stop/drain/Reset") {
			t.Errorf("finding %v should prescribe the hoisted-timer fix", f)
		}
		if !strings.Contains(f.Msg, "allow-timer") {
			t.Errorf("finding %v should name the audit directive", f)
		}
	}
	if fs[0].Pos.Line != 10 || fs[1].Pos.Line != 66 {
		t.Errorf("findings at lines %d and %d, want 10 (heartbeatLoop) and 66 (rangeWait)", fs[0].Pos.Line, fs[1].Pos.Line)
	}
}

// TestTimerLeakStaleAudit: an //unsync:allow-timer that suppresses
// nothing is itself reported — the directive is wired into the audit
// layer, not just the rule.
func TestTimerLeakStaleAudit(t *testing.T) {
	files := map[string]string{
		"fixture.go": "package fixture\n",
		"internal/worker/worker.go": `package worker

import "time"

// wait has no loop, so the directive below suppresses nothing.
func wait() {
	<-time.After(time.Millisecond) //unsync:allow-timer stale: nothing to suppress here
}
`,
	}
	fs := runFixture(t, files, "stale-audit")
	if len(fs) != 1 {
		t.Fatalf("stale-audit findings = %d, want the dead allow-timer flagged: %v", len(fs), fs)
	}
	if !strings.Contains(fs[0].Msg, "allow-timer") {
		t.Errorf("stale-audit finding should name allow-timer: %v", fs[0])
	}
}

// TestFindingJSON pins the machine-readable shape `unsync-lint -json`
// emits: one flat object per finding.
func TestFindingJSON(t *testing.T) {
	f := Finding{
		Pos:  token.Position{Filename: "internal/serve/journal.go", Line: 70, Column: 9},
		Rule: "lock-held-blocking",
		Msg:  "fsync while j.mu is held",
	}
	b, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"file":"internal/serve/journal.go","line":70,"col":9,"rule":"lock-held-blocking","msg":"fsync while j.mu is held"}`
	if string(b) != want {
		t.Errorf("MarshalJSON = %s, want %s", b, want)
	}
}

// TestUncheckedErrorDeferPosition: a deferred call that discards an
// error is flagged, and the finding anchors at the call expression,
// not at the defer keyword.
func TestUncheckedErrorDeferPosition(t *testing.T) {
	files := map[string]string{
		"fixture.go": "package fixture\n",
		"internal/core/core.go": `package core

import "errors"

// Close returns an error callers must observe.
func Close() error { return errors.New("dirty") }

// Use defers Close and drops its error.
func Use() {
	defer Close()
}
`,
	}
	fs := runFixture(t, files, "unchecked-error")
	if len(fs) != 1 {
		t.Fatalf("want 1 unchecked-error finding for the deferred call, got %d: %v", len(fs), fs)
	}
	if fs[0].Pos.Line != 10 || fs[0].Pos.Column != 8 {
		t.Errorf("finding anchors at %d:%d, want 10:8 (the Close call, past the defer keyword)",
			fs[0].Pos.Line, fs[0].Pos.Column)
	}
}

// TestLaneAllocDiagnostic: a builtin append against lane-indexed state
// in a batch-engine file is a per-lane heap allocation and must be
// flagged at the call site.
func TestLaneAllocDiagnostic(t *testing.T) {
	files := map[string]string{
		"fixture.go": "package fixture\n",
		"internal/core/lanes.go": `package core

type Lanes struct {
	Output [][]uint64
}

func (l *Lanes) Emit(i int, v uint64) {
	l.Output[i] = append(l.Output[i], v)
}
`,
	}
	fs := runFixture(t, files, "lane-alloc")
	if len(fs) != 1 {
		t.Fatalf("findings = %v, want exactly one lane-alloc", fs)
	}
	if fs[0].Pos.Line != 8 {
		t.Errorf("finding at line %d, want 8", fs[0].Pos.Line)
	}
	if !strings.Contains(fs[0].Msg, "allow-alloc") {
		t.Errorf("message %q does not mention the audit directive", fs[0].Msg)
	}
}

// TestLaneAllocRejectsMaps: a map type in a batch-engine file is
// flagged wherever it appears — a field, a make, a parameter of a
// named map type and its use — and no audit directive suppresses it;
// the same maps outside the batch files are not findings.
func TestLaneAllocRejectsMaps(t *testing.T) {
	files := map[string]string{
		"fixture.go": "package fixture\n",
		"internal/core/lanes.go": `package core

type Overlay struct {
	dirty map[uint64]byte
}

func NewOverlay() Overlay {
	//unsync:allow-alloc maps are rejected even when audited
	return Overlay{dirty: make(map[uint64]byte)}
}

func (o *Overlay) Count(c Counts) int { return len(c) }
`,
		"internal/core/other.go": `package core

type Counts map[string]int

func Tally(keys []string) map[string]int {
	m := make(map[string]int)
	for _, k := range keys {
		m[k]++
	}
	return m
}
`,
	}
	fs := runFixture(t, files, "lane-alloc")
	var lines []int
	for _, f := range fs {
		if !strings.Contains(f.Msg, "map type") {
			t.Errorf("unexpected finding: %v", f)
		}
		lines = append(lines, f.Pos.Line)
	}
	if want := []int{4, 9, 12, 12}; !slices.Equal(lines, want) {
		t.Fatalf("map findings on lines %v, want %v: %v", lines, want, fs)
	}
}

// TestLaneAllocAudited: an //unsync:allow-alloc directive with a
// justification suppresses the finding (and is not reported stale).
func TestLaneAllocAudited(t *testing.T) {
	files := map[string]string{
		"fixture.go": "package fixture\n",
		"internal/core/lanes.go": `package core

type Lanes struct {
	Output [][]uint64
}

func (l *Lanes) Emit(i int, v uint64) {
	//unsync:allow-alloc output is rare and bounded by the program
	l.Output[i] = append(l.Output[i], v)
}
`,
	}
	if fs := runFixture(t, files, "lane-alloc"); len(fs) != 0 {
		t.Errorf("audited allocation still flagged: %v", fs)
	}
	files["go.mod"] = fixtureGoMod
	root := writeModule(t, files)
	findings, err := Run(fixtureConfig(root))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		if f.Rule == "stale-audit" {
			t.Errorf("live allow-alloc reported stale: %v", f)
		}
	}
}

// TestLaneAllocScope: allocations without a lane index, and lane
// appends outside the configured batch files, are not findings.
func TestLaneAllocScope(t *testing.T) {
	files := map[string]string{
		"fixture.go": "package fixture\n",
		"internal/core/lanes.go": `package core

type Lanes struct {
	Output [][]uint64
	PC     []uint64
}

// NewLanes allocates columns up front — no lane index in sight.
func NewLanes(n int) *Lanes {
	l := &Lanes{}
	l.PC = make([]uint64, n)
	l.Output = make([][]uint64, n)
	return l
}
`,
		"internal/core/other.go": `package core

func Elsewhere(out [][]uint64, i int, v uint64) [][]uint64 {
	out[i] = append(out[i], v)
	return out
}
`,
	}
	if fs := runFixture(t, files, "lane-alloc"); len(fs) != 0 {
		t.Errorf("out-of-scope allocations flagged: %v", fs)
	}
}

// TestLintSkipsNestedModules: a subdirectory holding its own go.mod is
// a separate module, as the go tool sees it, so its packages are not
// linted or typechecked as part of the enclosing one. Here the nested
// module imports its own packages, which the enclosing module cannot
// resolve, and runs a wall-clock read in a deterministic directory.
func TestLintSkipsNestedModules(t *testing.T) {
	files := map[string]string{
		"go.mod":       fixtureGoMod,
		"fixture.go":   "package fixture\n\nfunc Add(a, b int) int { return a + b }\n",
		"bench/go.mod": "module example.com/bench\n\ngo 1.22\n",
		"bench/main.go": `package main

import (
	"fmt"

	"example.com/bench/internal/core"
)

func main() { fmt.Println(core.Now()) }
`,
		"bench/internal/core/core.go": `package core

import "time"

func Now() int64 { return time.Now().UnixNano() }
`,
	}
	root := writeModule(t, files)
	findings, err := Run(fixtureConfig(root))
	if err != nil {
		t.Fatalf("lint descended into the nested module: %v", err)
	}
	if len(findings) != 0 {
		t.Fatalf("findings in the nested module: %v", findings)
	}
	// Linted as its own root, the nested module is checked as usual.
	cfg := fixtureConfig(filepath.Join(root, "bench"))
	findings, err = Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) == 0 {
		t.Fatal("nested module linted as its own root: want the wall-clock finding")
	}
}
