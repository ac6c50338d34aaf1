package journal

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"github.com/cmlasu/unsync/internal/journaltest"
)

type rec struct {
	I int    `json:"i"`
	S string `json:"s,omitempty"`
}

// lines marshals records 0..n-1, one journal line each without the
// trailing newline (the journaltest convention).
func lines(t testing.TB, n int) [][]byte {
	t.Helper()
	out := make([][]byte, n)
	for i := range out {
		b, err := json.Marshal(rec{I: i, S: "x"})
		if err != nil {
			t.Fatal(err)
		}
		out[i] = b
	}
	return out
}

func joined(ls [][]byte) []byte {
	var buf bytes.Buffer
	for _, l := range ls {
		buf.Write(l)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

func replayAll(t testing.TB, path string) ([]rec, error) {
	t.Helper()
	var got []rec
	err := Replay(path, func(r rec) error {
		got = append(got, r)
		return nil
	})
	return got, err
}

func TestReplayCorruptionCorpus(t *testing.T) {
	journaltest.Check(t, lines(t, 5), func(path string) (int, error) {
		got, err := replayAll(t, path)
		return len(got), err
	})
}

// A torn tail must be trimmed at Open: otherwise the next append is
// glued onto the fragment, the glued line is no longer the file's last
// once a second append lands, and the replay fails mid-file.
func TestTornTailThenAppendReplays(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	base := joined(lines(t, 3))
	if err := os.WriteFile(path, append(append([]byte(nil), base...), `{"i":3,"s":`...), 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 3; i < 5; i++ {
		if err := l.Append(rec{I: i, S: "x"}, i == 4); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := replayAll(t, path)
	if err != nil {
		t.Fatalf("replay after torn tail and two appends: %v", err)
	}
	if len(got) != 5 {
		t.Fatalf("replayed %d records, want 5", len(got))
	}
	for i, r := range got {
		if r.I != i {
			t.Fatalf("record %d has index %d", i, r.I)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := joined(lines(t, 5)); !bytes.Equal(data, want) {
		t.Fatalf("journal bytes:\n%s\nwant:\n%s", data, want)
	}
}

// Open leaves an intact journal byte-for-byte alone and trims a file
// with no newline at all to empty.
func TestOpenTrimsOnlyTheTornTail(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		name string
		data []byte
		want []byte
	}{
		{"missing", nil, nil},
		{"intact", joined(lines(t, 4)), joined(lines(t, 4))},
		{"fragment-only", []byte(`{"i":0`), nil},
		{"long-tail", append(joined(lines(t, 2)), bytes.Repeat([]byte("z"), 10000)...), joined(lines(t, 2))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(dir, tc.name+".jsonl")
			if tc.data != nil {
				if err := os.WriteFile(path, tc.data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			l, err := Open(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(data, tc.want) {
				t.Fatalf("after Open: %q, want %q", data, tc.want)
			}
		})
	}
}

func TestReplayErrorsNameTheLine(t *testing.T) {
	dir := t.TempDir()
	if err := Replay(filepath.Join(dir, "absent.jsonl"), func(rec) error { t.Fatal("record from a missing file"); return nil }); err != nil {
		t.Fatalf("missing file: %v", err)
	}

	path := filepath.Join(dir, "j.jsonl")
	ls := lines(t, 3)
	data := append(joined(ls[:1]), "\n!!corrupt!!\n"...)
	data = append(data, joined(ls[1:])...)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := replayAll(t, path); err == nil || !strings.HasPrefix(err.Error(), "line 3: ") {
		t.Fatalf("mid-file garbage: err = %v, want a line 3 error", err)
	}

	if err := os.WriteFile(path, joined(ls), 0o644); err != nil {
		t.Fatal(err)
	}
	stop := errors.New("stop")
	err := Replay(path, func(r rec) error {
		if r.I == 1 {
			return stop
		}
		return nil
	})
	if !errors.Is(err, stop) || !strings.HasPrefix(err.Error(), "line 2: ") {
		t.Fatalf("callback error: %v, want stop at line 2", err)
	}
}

// Concurrent appends stay line-atomic: every record replays whole.
func TestConcurrentAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	const writers, each = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := l.Append(rec{I: w*each + i, S: strings.Repeat("y", i)}, i%10 == 0); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := replayAll(t, path)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, r := range got {
		seen[r.I] = true
	}
	if len(got) != writers*each || len(seen) != writers*each {
		t.Fatalf("replayed %d records (%d distinct), want %d", len(got), len(seen), writers*each)
	}
}

func TestLineIsMarshalPlusNewline(t *testing.T) {
	v := rec{I: 7, S: "<a&b> "}
	want, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Line(v)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, append(want, '\n')) {
		t.Fatalf("Line = %q, want %q", got, want)
	}
	if _, err := Line(func() {}); err == nil {
		t.Fatal("Line encoded a func")
	}
}

// FuzzReplayTornTail: whatever fragment a kill leaves after the last
// whole line, Open + Append + Replay recovers every record, in order,
// with no error.
func FuzzReplayTornTail(f *testing.F) {
	for _, seed := range journaltest.Seeds() {
		f.Add(seed)
	}
	f.Add([]byte(`{"i":99}`)) // a fragment that happens to parse
	base := joined(lines(f, 3))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "j.jsonl")
		torn := append(append([]byte(nil), base...), journaltest.TornTail(data)...)
		if err := os.WriteFile(path, torn, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		for i := 3; i < 5; i++ {
			if err := l.Append(rec{I: i, S: "x"}, false); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		got, err := replayAll(t, path)
		if err != nil {
			t.Fatalf("torn tail broke the replay: %v", err)
		}
		if fmt.Sprint(got) != fmt.Sprint([]rec{{0, "x"}, {1, "x"}, {2, "x"}, {3, "x"}, {4, "x"}}) {
			t.Fatalf("replayed %v", got)
		}
	})
}
