// Package journaltest generates tail-corruption scenarios for the
// repository's append-only JSONL journals (the campaign checkpoint,
// the serve jobs journal, the fabric coordinator journal and the
// stream dead-letter queue). All four are internal/journal logs, so
// all four must tolerate exactly one corruption shape: a final
// unparseable line, the fragment a SIGKILL mid-append leaves behind.
// Corruption anywhere earlier cannot come from a kill — a line's
// newline lands only with a complete write, and journal.Open trims a
// torn tail before the next append — so every loader must fail it
// loudly. Lines a loader does not want, such as another spec's records
// in a shared checkpoint, are well-formed and never garbage. This
// package builds those shapes so each journal's loader can table-test
// and fuzz the policy against a common corpus instead of hand-rolling
// corruption cases.
package journaltest

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// Case is one corrupted-journal scenario built from intact lines.
type Case struct {
	// Name identifies the scenario in test output.
	Name string
	// Data is the journal file content.
	Data []byte
	// Intact is how many of the input lines survive whole (newline-
	// terminated) in Data. A loader must recover exactly the records
	// of these lines.
	Intact int
	// TornTail reports whether the corruption is confined to the
	// file's final line — the shape every loader must tolerate. (A
	// newline-TERMINATED garbage final line counts: scanner-based
	// loaders see it exactly as they see a torn fragment, and the
	// append paths never produce one anyway.) Cases with
	// TornTail=false hold corruption strictly BEFORE valid lines,
	// which can only mean the file was damaged.
	TornTail bool
}

// junkTails are newline-free fragments appended as torn tails: partial
// JSON at several cut points, binary junk, and a lone brace.
var junkTails = [][]byte{
	[]byte(`{`),
	[]byte(`{"key":"abc","i":4`),
	[]byte(`{"key":"abc","i":4,"space":"int-reg","outcome":`),
	{0x00, 0xff, 0x1b, 0x80, 0x7f, 0x00},
	[]byte(`not json at all`),
}

// TailCases builds the corruption corpus from intact journal lines
// (each given WITHOUT its trailing newline). The clean journal is
// included as the baseline case.
func TailCases(lines [][]byte) []Case {
	journal := func(n int) []byte {
		var buf bytes.Buffer
		for _, line := range lines[:n] {
			buf.Write(line)
			buf.WriteByte('\n')
		}
		return buf.Bytes()
	}
	n := len(lines)
	cases := []Case{
		{Name: "clean", Data: journal(n), Intact: n, TornTail: true},
		{Name: "empty-trailing-lines", Data: append(journal(n), '\n', '\n'), Intact: n, TornTail: true},
	}
	for i, junk := range junkTails {
		cases = append(cases, Case{
			Name:     fmt.Sprintf("junk-tail-%d", i),
			Data:     append(journal(n), junk...),
			Intact:   n,
			TornTail: true,
		})
	}
	if n > 0 {
		// The cut at len(last) keeps the whole final record but not its
		// '\n': a write that landed every byte but the last. Open drops
		// the unterminated line, so a loader must not recover it either.
		last := lines[n-1]
		for _, cut := range []int{1, len(last) / 2, len(last) - 1, len(last)} {
			if cut <= 0 || cut > len(last) {
				continue
			}
			cases = append(cases, Case{
				Name:     fmt.Sprintf("last-line-truncated-at-%d", cut),
				Data:     append(journal(n-1), last[:cut]...),
				Intact:   n - 1,
				TornTail: true,
			})
		}
	}
	cases = append(cases,
		// A terminated garbage FINAL line is indistinguishable from a
		// torn tail to a line scanner, so it rides the tolerant path.
		Case{
			Name:     "garbage-line-terminated",
			Data:     append(journal(n), []byte("!!corrupt!!\n")...),
			Intact:   n,
			TornTail: true,
		},
		// Mid-file garbage followed by valid lines cannot come from a
		// kill — the newline lands only after a complete write — so
		// loaders must fail it loudly.
		Case{
			Name:     "garbage-line-mid-file",
			Data:     append([]byte("!!corrupt!!\n"), journal(n)...),
			Intact:   n,
			TornTail: false,
		},
	)
	return cases
}

// Check runs the corruption corpus against a journal loader. lines are
// the intact journal lines (without trailing newlines); load reads the
// journal at path and returns how many records it recovered. Every
// loader must recover exactly Intact records from TornTail cases with
// no error, and must return an error for mid-file corruption.
func Check(t *testing.T, lines [][]byte, load func(path string) (int, error)) {
	t.Helper()
	for _, tc := range TailCases(lines) {
		t.Run(tc.Name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "journal.jsonl")
			if err := os.WriteFile(path, tc.Data, 0o644); err != nil {
				t.Fatal(err)
			}
			n, err := load(path)
			if !tc.TornTail {
				if err == nil {
					t.Fatalf("loader accepted mid-file corruption (recovered %d records)", n)
				}
				return
			}
			if err != nil {
				t.Fatalf("load: %v", err)
			}
			if n != tc.Intact {
				t.Fatalf("recovered %d records, want %d", n, tc.Intact)
			}
		})
	}
}

// TornTail derives a pure torn-tail fragment from arbitrary fuzz
// bytes: newlines are stripped so the fragment can only ever be the
// file's final unterminated line. Appending the result to any valid
// journal must never change what its loader recovers.
func TornTail(data []byte) []byte {
	return bytes.ReplaceAll(data, []byte("\n"), nil)
}

// Seeds returns the junk fragments as fuzz-corpus seed inputs.
func Seeds() [][]byte {
	out := make([][]byte, len(junkTails))
	for i, j := range junkTails {
		out[i] = append([]byte(nil), j...)
	}
	return out
}
