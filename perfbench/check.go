package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// refFile is the committed reference digest file: sha256 digests of
// every simulated output at the default seed, keyed "workload/output".
const refFile = "digests.json"

// refs is the reference file's content.
type refs struct {
	Seed    uint64            `json:"seed"`
	Digests map[string]string `json:"digests"`
}

// loadRefs reads the reference digests; a missing directory is an
// error, because a benchmark that cannot check its outputs must not
// print a result.
func loadRefs(dir string) (refs, error) {
	b, err := os.ReadFile(filepath.Join(dir, refFile))
	if err != nil {
		return refs{}, fmt.Errorf("reference digests: %w", err)
	}
	var r refs
	if err := json.Unmarshal(b, &r); err != nil {
		return refs{}, fmt.Errorf("reference digests: %w", err)
	}
	if r.Digests == nil {
		r.Digests = map[string]string{}
	}
	return r, nil
}

// checker counts the operations a workload attempts and the ones that
// fail: a layer error, a failed trial, or a reference mismatch. It is
// safe for concurrent use.
type checker struct {
	mu        sync.Mutex
	ref       refs
	workload  string
	useRefs   bool // compare digests against ref (default seed only)
	attempted int
	failed    int
	errs      []string
	seen      map[string]string // digests computed this run
}

func newChecker(ref refs, workload string, useRefs bool) *checker {
	return &checker{ref: ref, workload: workload, useRefs: useRefs, seen: map[string]string{}}
}

// ops counts n operations that succeeded.
func (c *checker) ops(n int) {
	c.mu.Lock()
	c.attempted += n
	c.mu.Unlock()
}

// failures counts n more attempted operations that failed.
func (c *checker) failures(n int, format string, args ...any) {
	if n <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted += n
	c.failed += n
	c.errs = append(c.errs, fmt.Sprintf(format, args...))
}

// fail counts one failed operation.
func (c *checker) fail(format string, args ...any) { c.failures(1, format, args...) }

// op counts one operation that failed when err is non-nil.
func (c *checker) op(err error, what string) bool {
	if err != nil {
		c.fail("%s: %v", what, err)
		return false
	}
	c.ops(1)
	return true
}

// expect counts one check that failed unless ok.
func (c *checker) expect(ok bool, format string, args ...any) bool {
	if !ok {
		c.fail(format, args...)
		return false
	}
	c.ops(1)
	return true
}

// digestOf returns the sha256 of v's JSON encoding (maps encode with
// sorted keys, so equal values always digest alike).
func digestOf(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return "unmarshalable: " + err.Error()
	}
	return digestBytes(b)
}

func digestBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// reference checks one output digest, counted as one operation: it
// must equal every earlier digest of the same output in this run
// (repeated iterations are deterministic), and at the default seed the
// committed reference.
func (c *checker) reference(output, digest string) {
	key := c.workload + "/" + output
	c.mu.Lock()
	prev, seen := c.seen[key]
	if !seen {
		c.seen[key] = digest
	}
	want, haveRef := c.ref.Digests[key]
	c.mu.Unlock()
	switch {
	case seen && prev != digest:
		c.fail("%s: digest %.12s differs from this run's earlier %.12s (nondeterministic output)", key, digest, prev)
	case c.useRefs && !haveRef:
		c.fail("%s: no reference digest committed", key)
	case c.useRefs && want != digest:
		c.fail("%s: digest %.12s, reference %.12s", key, digest, want)
	default:
		c.ops(1)
	}
}

// failFrac is failed / attempted.
func (c *checker) failFrac() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.attempted == 0 {
		return 0
	}
	return float64(c.failed) / float64(c.attempted)
}

// writeRefs merges this run's digests into the reference file.
func (c *checker) writeRefs(dir string) error {
	c.mu.Lock()
	for k, d := range c.seen {
		c.ref.Digests[k] = d
	}
	c.ref.Seed = defaultSeed
	b, err := json.MarshalIndent(c.ref, "", "  ")
	c.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, refFile), append(b, '\n'), 0o644)
}

// canonicalJournal returns a JSONL trial journal with its lines sorted
// by trial index: the byte stream a single-worker run writes. Workers
// finish batches in any order, so only this form is comparable across
// worker counts.
func canonicalJournal(b []byte) ([]byte, error) {
	lines := bytes.Split(bytes.TrimRight(b, "\n"), []byte("\n"))
	type rec struct {
		idx  int
		line []byte
	}
	recs := make([]rec, 0, len(lines))
	for _, l := range lines {
		if len(l) == 0 {
			continue
		}
		var probe struct {
			I int `json:"i"`
		}
		if err := json.Unmarshal(l, &probe); err != nil {
			return nil, fmt.Errorf("journal line %q: %w", l, err)
		}
		recs = append(recs, rec{probe.I, l})
	}
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].idx < recs[j].idx })
	var out bytes.Buffer
	for _, r := range recs {
		out.Write(r.line)
		out.WriteByte('\n')
	}
	return out.Bytes(), nil
}
