// Package journal is the append-only JSONL log behind every durable
// record in the repository: the campaign checkpoint, the serve jobs
// journal, the fabric coordinator journal and the stream dead-letter
// queue. It owns the three decisions those logs share:
//
//   - Line format: one JSON value per line, terminated by '\n'. Line
//     json.Marshal's a value and Replay json.Unmarshal's it; a record
//     type with a hand-written codec (campaign.TrialRecord) encodes its
//     own lines byte-identically and decodes them through ReplayDecode.
//   - Durability: each append is one write(2) of one or more whole
//     lines, rolled back on a short write; the caller chooses per
//     write whether to fsync, and the fsync runs outside the lock.
//   - Tail policy: a kill mid-append leaves whole lines followed by at
//     most one unterminated final line. Open cuts that line off before
//     the first new append, so it can never be glued onto a later
//     record, and Replay skips it even when it parses, so no record is
//     replayed that Open then drops. Replay tolerates an unparseable
//     line only as the file's last line. Anything unparseable earlier
//     cannot come from a kill and fails the replay.
package journal

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"
)

// Log is an open journal file, appended to by any number of
// goroutines.
type Log struct {
	mu   sync.Mutex
	f    *os.File
	size int64 // bytes of whole lines in the file; the rollback point
}

// Open opens (creating if absent) the journal at path for appending
// and truncates any bytes after its last '\n': the torn tail of a
// killed writer.
func Open(path string) (*Log, error) {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: open %s: %w", path, err)
	}
	size, total, err := lineEnd(f)
	if err == nil && size < total {
		err = f.Truncate(size)
	}
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("journal: trim torn tail of %s: %w", path, err)
	}
	return &Log{f: f, size: size}, nil
}

// lineEnd returns the offset just past the file's last '\n' (0 if it
// has none) and the file's size, scanning backwards from the end.
func lineEnd(f *os.File) (end, size int64, err error) {
	st, err := f.Stat()
	if err != nil {
		return 0, 0, err
	}
	buf := make([]byte, 4096)
	for end = st.Size(); end > 0; {
		start := max(end-int64(len(buf)), 0)
		chunk := buf[:end-start]
		if _, err := f.ReadAt(chunk, start); err != nil {
			return 0, 0, err
		}
		if i := bytes.LastIndexByte(chunk, '\n'); i >= 0 {
			return start + int64(i) + 1, st.Size(), nil
		}
		end = start
	}
	return 0, st.Size(), nil
}

// Line encodes v as one journal line: its JSON encoding plus '\n'.
func Line(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("journal: marshal: %w", err)
	}
	return append(b, '\n'), nil
}

// Append writes v as one line: Line then AppendLines.
func (l *Log) Append(v any, sync bool) error {
	b, err := Line(v)
	if err != nil {
		return err
	}
	return l.AppendLines(b, sync)
}

// AppendLines writes b, one or more whole pre-encoded lines, in one
// write. The mutex guards only the write, so the log stays
// line-aligned: a short write is truncated back to the last whole line
// before the lock is released. When sync is true the file is fsync'd
// after the write, outside the lock — Sync flushes the whole file, so
// a concurrent append's bytes are made durable by its own Sync or by
// this one, and a stalled disk never queues every writer behind one
// fsync.
func (l *Log) AppendLines(b []byte, sync bool) error {
	if len(b) == 0 {
		return nil
	}
	if b[len(b)-1] != '\n' {
		return errors.New("journal: append of a partial line")
	}
	l.mu.Lock()
	n, err := l.f.Write(b)
	if err != nil {
		_ = l.f.Truncate(l.size)
		l.mu.Unlock()
		return fmt.Errorf("journal: write: %w", err)
	}
	l.size += int64(n)
	l.mu.Unlock()
	if sync {
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("journal: sync: %w", err)
		}
	}
	return nil
}

// Close closes the file. Appends write straight to the file, so Close
// adds no durability.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.f.Close()
}

// Replay decodes the journal at path line by line into fn through
// json.Unmarshal. A missing file is an empty journal and blank lines
// are skipped. A final line without its '\n' is the torn write of a
// kill and is skipped unread: Open will cut it off. An unparseable line
// ends the replay without error only when it is the file's last line;
// anywhere else it is an error naming the line. An error from fn stops
// the replay and is returned with its line number.
func Replay[T any](path string, fn func(T) error) error {
	return ReplayDecode(path, func(raw []byte, v *T) error {
		return json.Unmarshal(raw, v)
	}, fn)
}

// ReplayDecode is Replay with the caller's line decoder, for a reader
// that decodes against context a zero T cannot carry. decode fills the
// zero value v from one line; its errors are parse errors under
// Replay's torn-tail policy, so it must accept and reject exactly the
// lines json.Unmarshal does.
func ReplayDecode[T any](path string, decode func(raw []byte, v *T) error, fn func(T) error) error {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("open %s: %w", path, err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	torn := false // the token just scanned ended the file without a '\n'
	sc.Split(func(data []byte, atEOF bool) (int, []byte, error) {
		adv, tok, err := bufio.ScanLines(data, atEOF)
		torn = atEOF && adv == len(data) && adv > 0 && data[adv-1] != '\n'
		return adv, tok, err
	})
	var v, zero T // one v for the whole replay: decode's pointer escapes
	for line := 1; sc.Scan(); line++ {
		raw := sc.Bytes()
		if torn {
			return nil
		}
		if len(raw) == 0 {
			continue
		}
		v = zero
		if err := decode(raw, &v); err != nil {
			if !sc.Scan() && sc.Err() == nil {
				return nil // torn tail
			}
			return fmt.Errorf("line %d: %w", line, err)
		}
		if err := fn(v); err != nil {
			return fmt.Errorf("line %d: %w", line, err)
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("read %s: %w", path, err)
	}
	return nil
}
