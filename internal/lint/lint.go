// Package lint is the repository's determinism linter. The paper's
// evaluation (Figs. 4-6) rests on bit-reproducible simulation: every
// fault-injection campaign must replay identically across runs,
// machines and architecture configurations. This package statically
// enforces the invariants that make that true over the deterministic
// simulator packages (rand, wallclock, sleep and timer-leak are rows
// of one forbidden-call table, applied in a single walk):
//
//   - no math/rand (global functions, rand.New, or any other use)
//     outside internal/trace's seeded xorshift generator;
//   - no wall-clock reads (time.Now, time.Since) except sites audited
//     with a //unsync:allow-wallclock directive;
//   - no order-sensitive iteration over maps (appends, fmt output,
//     float accumulation or channel sends inside a range-over-map)
//     except sites audited with //unsync:allow-maprange;
//   - no silently discarded error returns from the module's own
//     exported simulator APIs;
//   - no panic reachable from the public unsync package API except
//     invariant checks audited with //unsync:allow-panic;
//   - no hand-rolled warmup/measure loops: outside the measurement
//     engine (cfg.EngineFile), simulator code may not call ResetStats —
//     every run must go through cmp.Drive so warmup gating and fault
//     injection follow one discipline — except delegating ResetStats
//     methods and sites audited with //unsync:allow-measure-loop;
//   - no time.Sleep inside a for-loop outside the resilience package
//     (cfg.ResilienceDir): a bare sleep-in-loop is a hand-rolled retry
//     that bypasses the jittered resilience.Backoff — except polling
//     loops audited with //unsync:allow-sleep;
//   - no time.After inside a for-loop (module-wide): each call strands
//     one pending timer until it fires, an unbounded pile under churn —
//     hoist one time.NewTimer with Stop/drain/Reset, except
//     bounded-cadence loops audited with //unsync:allow-timer;
//   - no per-lane heap allocation in the batched lane engine: in the
//     structure-of-arrays trial-engine files (cfg.BatchFiles), a
//     builtin append or make in a statement that indexes lane state
//     runs once per lane per step and belongs outside the step path —
//     except sites audited with //unsync:allow-alloc — and no map type
//     appears there at all, audited or not.
//
// On top of the determinism rules sits a concurrency-safety layer
// (conc.go) guarding the campaign, sweep and serve planes — the code
// whose goroutines, contexts and locks the deterministic kill/resume
// and drain/restart invariants depend on:
//
//   - goroutine-leak: every goroutine launched in module code must be
//     provably joinable (WaitGroup Done/Wait, a ctx.Done or quit-channel
//     receive, or a range over a work channel, reachable through the
//     call graph) — except sites audited with //unsync:allow-goroutine;
//   - ctx-propagation: a function that accepts a context.Context may
//     not call a module function that has a *Context variant without
//     passing the context — except sites audited with
//     //unsync:allow-ctx;
//   - lock-held-blocking: no channel operation, select without default,
//     fsync, long-running engine call or resilience.Retry while a
//     sync.Mutex/RWMutex is provably held — except sites audited with
//     //unsync:allow-lock-held;
//   - blocking-send: in the streaming packages (cfg.StreamDirs), a
//     channel send inside a for/range loop must be a select clause with
//     a done-style receive or a default clause, so shutdown can always
//     interrupt the loop — except sites audited with
//     //unsync:allow-send;
//   - stale-audit / bare-audit: an //unsync:allow-* directive that no
//     longer suppresses any finding, names no known rule, or carries no
//     justification text is itself a finding, so the audit surface can
//     only shrink.
//
// Every rule stays only on evidence: a live audit directive in
// production code, a finding in the repository's history, or a
// mutation of production code that it reports and no test catches.
// DESIGN.md §12 cites the evidence rule by rule.
//
// It is built only on the standard library (go/parser, go/ast,
// go/types, go/importer) so that `go run ./cmd/unsync-lint ./...` works
// in any environment that can build the module.
package lint

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Finding is one diagnostic.
type Finding struct {
	Pos  token.Position
	Rule string
	Msg  string
}

// String renders the finding as file:line:col: rule: message.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Rule, f.Msg)
}

// MarshalJSON renders the finding in the stable machine-readable shape
// emitted by `unsync-lint -json`, one object per diagnostic:
// {"file","line","col","rule","msg"}.
func (f Finding) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		File string `json:"file"`
		Line int    `json:"line"`
		Col  int    `json:"col"`
		Rule string `json:"rule"`
		Msg  string `json:"msg"`
	}{f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Rule, f.Msg})
}

// Config selects what to analyze.
type Config struct {
	// Root is the module root directory (the directory holding go.mod).
	Root string
	// DeterministicDirs are module-relative package directories (and
	// their subdirectories) subject to the determinism rules.
	DeterministicDirs []string
	// RNGFile is the one module-relative file allowed to implement
	// random number generation.
	RNGFile string
	// EngineFile is the one module-relative file allowed to drive a
	// warmup/measure loop (call ResetStats on a machine). Everything
	// else must go through the measurement engine it implements.
	EngineFile string
	// PublicDir is the module-relative directory of the public API
	// package whose exported surface roots the panic-reachability
	// analysis ("." for the module root).
	PublicDir string
	// ResilienceDir is the one module-relative package directory allowed
	// to sleep inside loops — it implements the jittered backoff that
	// the sleep rule points everyone else at.
	ResilienceDir string
	// BatchFiles are the module-relative files implementing the batched
	// structure-of-arrays lane engine, whose per-step hot loops the
	// lane-alloc rule guards against per-lane heap allocation and map
	// types.
	BatchFiles []string
	// StreamDirs are the module-relative package directories (and their
	// subdirectories) whose fan-out loops the blocking-send rule guards:
	// a channel send inside a loop there must sit in a select with a
	// done-style receive or a default clause.
	StreamDirs []string
}

// DefaultConfig returns the repository's lint policy.
func DefaultConfig(root string) Config {
	return Config{
		Root: root,
		DeterministicDirs: []string{
			"internal/core",
			"internal/cmp",
			"internal/pipeline",
			"internal/emu",
			"internal/fault",
			"internal/campaign",
			"internal/reunion",
			"internal/trace",
			"internal/experiments",
		},
		RNGFile:       "internal/trace/rng.go",
		EngineFile:    "internal/cmp/engine.go",
		PublicDir:     ".",
		ResilienceDir: "internal/resilience",
		BatchFiles:    []string{"internal/emu/lanes.go", "internal/fault/batch.go", "internal/fault/batch_reunion.go"},
		StreamDirs: []string{
			"internal/stream",
			"internal/fabric",
			"internal/serve",
			"internal/sweep",
		},
	}
}

// pkgInfo is one loaded, typechecked package.
type pkgInfo struct {
	relDir        string // module-relative directory, "." for the root
	path          string // import path
	files         []*ast.File
	pkg           *types.Package
	info          *types.Info
	deterministic bool
}

// directive is one //unsync: audit comment, tracked so the stale-audit
// rule can report directives that no longer suppress anything.
type directive struct {
	name string // e.g. "allow-panic"
	arg  string // justification text following the name
	pos  token.Pos
	used bool // a rule consulted it and suppressed a finding
}

// module is the fully loaded analysis unit.
type module struct {
	cfg    Config
	fset   *token.FileSet
	path   string // module path from go.mod
	pkgs   []*pkgInfo
	byPath map[string]*pkgInfo

	// directives maps file name -> line -> directives on that line.
	directives map[string]map[int][]*directive

	cg *callGraph // built lazily by callgraph()
	ci *concInfo  // built lazily by conc()
}

// Run loads the module under cfg.Root and applies every rule, returning
// findings sorted by position.
func Run(cfg Config) ([]Finding, error) {
	m, err := load(cfg)
	if err != nil {
		return nil, err
	}
	// The rules append in a fixed order, the forbidden-call rows each
	// in their own place: sort.Slice is not stable, so this order
	// decides how findings of one rule on one line come out.
	calls := m.forbiddenCallRule()
	var fs []Finding
	fs = append(fs, calls["rand"]...)
	fs = append(fs, calls["wallclock"]...)
	fs = append(fs, m.maprangeRule()...)
	fs = append(fs, m.uncheckedRule()...)
	fs = append(fs, m.panicRule()...)
	fs = append(fs, m.measureLoopRule()...)
	fs = append(fs, calls["sleep"]...)
	fs = append(fs, calls["timer-leak"]...)
	fs = append(fs, m.laneAllocRule()...)
	fs = append(fs, m.goroutineRule()...)
	fs = append(fs, m.ctxRule()...)
	fs = append(fs, m.lockRule()...)
	fs = append(fs, m.blockingSendRule()...)
	// Last: every other rule has marked the directives it consulted, so
	// the audit rules can report the ones that suppressed nothing.
	fs = append(fs, m.auditRules()...)
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i].Pos, fs[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return fs[i].Rule < fs[j].Rule
	})
	return fs, nil
}

var moduleRe = regexp.MustCompile(`(?m)^module\s+(\S+)`)

// load parses and typechecks every package of the module rooted at
// cfg.Root (non-test files only), resolving intra-module imports from
// the freshly typechecked packages and everything else from the
// standard library importers.
func load(cfg Config) (*module, error) {
	gomod, err := os.ReadFile(filepath.Join(cfg.Root, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("lint: %w", err)
	}
	match := moduleRe.FindSubmatch(gomod)
	if match == nil {
		return nil, fmt.Errorf("lint: no module directive in %s/go.mod", cfg.Root)
	}
	m := &module{
		cfg:        cfg,
		fset:       token.NewFileSet(),
		path:       string(match[1]),
		byPath:     make(map[string]*pkgInfo),
		directives: make(map[string]map[int][]*directive),
	}

	// Discover package directories.
	var dirs []string
	err = filepath.WalkDir(cfg.Root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		if path == cfg.Root {
			dirs = append(dirs, path)
			return nil
		}
		name := d.Name()
		if strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || name == "vendor" {
			return filepath.SkipDir
		}
		// A directory with its own go.mod is a nested module, outside
		// this one, as the go tool sees it.
		if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
			return filepath.SkipDir
		}
		dirs = append(dirs, path)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("lint: walking %s: %w", cfg.Root, err)
	}

	// Parse each directory that holds non-test Go files.
	for _, dir := range dirs {
		entries, err := os.ReadDir(dir)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		var files []*ast.File
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(m.fset, filepath.Join(dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, fmt.Errorf("lint: %w", err)
			}
			files = append(files, f)
		}
		if len(files) == 0 {
			continue
		}
		rel, err := filepath.Rel(cfg.Root, dir)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		rel = filepath.ToSlash(rel)
		p := &pkgInfo{relDir: rel, path: importPath(m.path, rel), files: files}
		p.deterministic = inDirs(cfg.DeterministicDirs, rel)
		m.pkgs = append(m.pkgs, p)
		m.byPath[p.path] = p
	}
	sort.Slice(m.pkgs, func(i, j int) bool { return m.pkgs[i].path < m.pkgs[j].path })

	// Typecheck in dependency order.
	imp := &chainImporter{
		mod: m.byPath,
		std: importer.Default(),
		src: importer.ForCompiler(m.fset, "source", nil),
	}
	seen := make(map[*pkgInfo]bool)
	var visit func(p *pkgInfo) error
	visit = func(p *pkgInfo) error {
		if seen[p] {
			return nil
		}
		seen[p] = true
		for _, f := range p.files {
			for _, spec := range f.Imports {
				path, _ := strconv.Unquote(spec.Path.Value)
				if dep, ok := m.byPath[path]; ok {
					if err := visit(dep); err != nil {
						return err
					}
				}
			}
		}
		return m.typecheck(p, imp)
	}
	for _, p := range m.pkgs {
		if err := visit(p); err != nil {
			return nil, err
		}
	}

	for _, p := range m.pkgs {
		for _, f := range p.files {
			m.collectDirectives(f)
		}
	}
	return m, nil
}

func (m *module) typecheck(p *pkgInfo, imp types.Importer) error {
	p.info = &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(p.path, m.fset, p.files, p.info)
	if err != nil {
		return fmt.Errorf("lint: typecheck %s: %w", p.path, err)
	}
	p.pkg = pkg
	return nil
}

// chainImporter resolves module-internal import paths from the
// already-typechecked packages, and everything else from the compiled
// stdlib export data, falling back to typechecking the standard
// library from source.
type chainImporter struct {
	mod map[string]*pkgInfo
	std types.Importer
	src types.Importer
}

func (c *chainImporter) Import(path string) (*types.Package, error) {
	if p, ok := c.mod[path]; ok {
		if p.pkg == nil {
			return nil, fmt.Errorf("lint: import cycle or unprocessed package %q", path)
		}
		return p.pkg, nil
	}
	if pkg, err := c.std.Import(path); err == nil {
		return pkg, nil
	}
	return c.src.Import(path)
}

func importPath(modPath, relDir string) string {
	if relDir == "." {
		return modPath
	}
	return modPath + "/" + relDir
}

// inDirs reports whether the module-relative directory rel is one of
// dirs or lies below one.
func inDirs(dirs []string, rel string) bool {
	for _, d := range dirs {
		if rel == d || strings.HasPrefix(rel, d+"/") {
			return true
		}
	}
	return false
}

// collectDirectives indexes //unsync: directive comments by file and line.
func (m *module) collectDirectives(f *ast.File) {
	const prefix = "//unsync:"
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, prefix) {
				continue
			}
			rest := strings.TrimPrefix(c.Text, prefix)
			name, arg := rest, ""
			if i := strings.IndexAny(rest, " \t"); i >= 0 {
				name, arg = rest[:i], strings.TrimSpace(rest[i+1:])
			}
			pos := m.fset.Position(c.Pos())
			byLine := m.directives[pos.Filename]
			if byLine == nil {
				byLine = make(map[int][]*directive)
				m.directives[pos.Filename] = byLine
			}
			byLine[pos.Line] = append(byLine[pos.Line], &directive{name: name, arg: arg, pos: c.Pos()})
		}
	}
}

// allowed reports whether the given directive appears on the node's
// line or on the line immediately above it, marking the directive used
// (it suppressed a finding) — so call it only once the primitive
// condition of a rule has already matched.
func (m *module) allowed(name string, pos token.Pos) bool {
	p := m.fset.Position(pos)
	byLine := m.directives[p.Filename]
	if byLine == nil {
		return false
	}
	for _, line := range []int{p.Line, p.Line - 1} {
		for _, d := range byLine[line] {
			if d.name == name {
				d.used = true
				return true
			}
		}
	}
	return false
}

func (m *module) finding(rule string, pos token.Pos, format string, args ...any) Finding {
	return Finding{Pos: m.fset.Position(pos), Rule: rule, Msg: fmt.Sprintf(format, args...)}
}

// relFile returns the module-relative path of the file containing pos.
func (m *module) relFile(pos token.Pos) string {
	file := m.fset.Position(pos).Filename
	rel, err := filepath.Rel(m.cfg.Root, file)
	if err != nil {
		return file
	}
	return filepath.ToSlash(rel)
}
