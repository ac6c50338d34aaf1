package fabric

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"time"

	"github.com/cmlasu/unsync/internal/campaign"
	"github.com/cmlasu/unsync/internal/serve"
)

// lease executes one granted shard range on a worker: POST the range,
// then read the JSONL stream — one write per journal chunk on the
// worker side — under a heartbeat deadline. The deadline is a
// time.AfterFunc that tears the request when it fires and is reset once
// per received run; a stream that goes silent past Config.LeaseTimeout,
// tears (SIGKILLed worker), or ends without a terminal line fails the
// lease — the coordinator's done set already holds everything that
// arrived, so only the remainder is ever re-leased.
func (c *Coordinator) lease(ctx context.Context, url string, g grant) error {
	body, err := json.Marshal(serve.ShardRequest{
		Campaign: c.cfg.Params,
		Lo:       g.lo,
		Hi:       g.hi,
		Skip:     g.skip,
		Key:      c.key,
	})
	if err != nil {
		return errors.Join(errFatal, fmt.Errorf("marshal shard request: %w", err))
	}

	// Cancelling the request context tears the response body, which
	// unblocks a read in readStream: the heartbeat and the run's end
	// both stop a lease that way.
	rctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	req, err := http.NewRequestWithContext(rctx, http.MethodPost, url+"/api/v1/shards", bytes.NewReader(body))
	if err != nil {
		return errors.Join(errFatal, fmt.Errorf("build shard request: %w", err))
	}
	req.Header.Set("Content-Type", "application/json")

	resp, err := c.cfg.Client.Do(req)
	if err != nil {
		return fmt.Errorf("shard %d [%d,%d) on %s: %w", g.s.id, g.lo, g.hi, url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		err := fmt.Errorf("shard %d on %s: HTTP %d: %s", g.s.id, url, resp.StatusCode, bytes.TrimSpace(msg))
		if resp.StatusCode == http.StatusConflict {
			// The worker derived a different params key from identical
			// params: version skew. No re-lease can fix that, and letting
			// it run would poison the merged journal.
			return errors.Join(errFatal, err)
		}
		return err
	}

	heartbeat := time.AfterFunc(c.cfg.LeaseTimeout, func() { cancel(errHeartbeat) })
	defer heartbeat.Stop()
	err = c.readStream(resp.Body, g, url, func() { heartbeat.Reset(c.cfg.LeaseTimeout) })
	if err != nil && !errors.Is(err, errFatal) && rctx.Err() != nil {
		// The read failed because the request was torn down on purpose.
		cause := context.Cause(rctx)
		if errors.Is(cause, errHeartbeat) {
			return fmt.Errorf("shard %d on %s: no record for %s; lease heartbeat expired", g.s.id, url, c.cfg.LeaseTimeout)
		}
		return cause
	}
	return err
}

// errHeartbeat tears a lease request whose stream went silent.
var errHeartbeat = errors.New("fabric: lease heartbeat expired")

// Shard-stream reader sizes: runs are read through a streamBuf-byte
// buffer, and a line longer than that is gathered aside up to maxLine
// bytes.
const (
	streamBuf = 64 << 10
	maxLine   = 16 << 20
)

// readStream consumes one shard stream from r. A run — every whole line
// already buffered — is decoded and folded in by one ingest call, and
// beat is called once per run. Record lines must carry the campaign's
// params key (else errFatal: worker skew) and an index inside the
// grant's [lo, hi). It returns nil at a terminal EOF line that
// verifyEOF accepts; a worker-side Err line, an undecodable line, a
// record outside the grant, or a stream that ends before its terminal
// line fails the lease, after the records before it in the run were
// ingested. A final line without its '\n' is torn and never read.
func (c *Coordinator) readStream(r io.Reader, g grant, url string, beat func()) error {
	br := bufio.NewReaderSize(r, streamBuf)
	var (
		run  []campaign.TrialRecord // the run's records, reused
		jbuf []byte                 // ingest's journal buffer, reused
		long []byte                 // a line longer than the buffer
	)
	for {
		first, err := br.ReadSlice('\n')
		if errors.Is(err, bufio.ErrBufferFull) {
			if len(long)+len(first) > maxLine {
				return fmt.Errorf("shard %d on %s: stream line longer than %d bytes", g.s.id, url, maxLine)
			}
			long = append(long, first...)
			continue
		}
		if err != nil {
			if errors.Is(err, io.EOF) {
				return fmt.Errorf("shard %d on %s: stream torn before a terminal line (worker killed?)", g.s.id, url)
			}
			return fmt.Errorf("shard %d on %s: read stream: %w", g.s.id, url, err)
		}
		if long != nil {
			first, long = append(long, first...), nil
		}
		beat()
		// The rest of the run is already buffered: Peek does not read,
		// so first stays valid until Discard.
		buffered, _ := br.Peek(br.Buffered())
		n := bytes.LastIndexByte(buffered, '\n') + 1
		var (
			end  error // a line that fails the lease
			eof  bool  // the terminal EOF line arrived
			sent int   // its record count
		)
		for line, rest := first, buffered[:n]; line != nil && end == nil && !eof; line, rest = nextLine(rest) {
			raw := line[:len(line)-1]
			if len(raw) == 0 {
				continue
			}
			run = slices.Grow(run, 1)[:len(run)+1]
			if !serve.DecodeRecordLine(raw, &run[len(run)-1], c.key, c.progHash) {
				run = run[:len(run)-1]
				l, derr := serve.DecodeShardLine(raw)
				switch {
				case derr != nil:
					// Whole but not JSON: nothing after it can be
					// trusted to be framed right.
					end = fmt.Errorf("shard %d on %s: undecodable stream line: %w", g.s.id, url, derr)
				case l.Err != "":
					end = fmt.Errorf("shard %d on %s: worker-side failure: %s", g.s.id, url, l.Err)
				case l.EOF:
					eof, sent = true, l.Sent
				case l.Rec == nil:
					end = fmt.Errorf("shard %d on %s: empty stream line", g.s.id, url)
				default:
					run = append(run, *l.Rec)
				}
				if end != nil || eof {
					break
				}
			}
			if end = c.checkRecord(g, url, &run[len(run)-1]); end != nil {
				run = run[:len(run)-1]
			}
		}
		// The records before a line that ends the stream still count.
		jbuf, err = c.ingest(run, jbuf)
		run = run[:0]
		if err != nil || end != nil {
			return errors.Join(err, end)
		}
		if eof {
			return c.verifyEOF(g, url, sent)
		}
		if _, err := br.Discard(n); err != nil {
			return err
		}
	}
}

// nextLine splits the first '\n'-terminated line off b; nil when b is
// empty.
func nextLine(b []byte) (line, rest []byte) {
	i := bytes.IndexByte(b, '\n')
	if i < 0 {
		return nil, nil
	}
	return b[:i+1], b[i+1:]
}

// checkRecord accepts a streamed record only for the lease that asked
// for it: the campaign's params key (anything else is worker skew, and
// fatal) and an index inside the grant's [lo, hi) — the range the
// worker was sent, which a steal may since have shrunk on the
// coordinator's side.
func (c *Coordinator) checkRecord(g grant, url string, rec *campaign.TrialRecord) error {
	if rec.Key != c.key {
		return errors.Join(errFatal, fmt.Errorf("shard %d on %s: record for trial %d carries key %s, want %s (worker skew)",
			g.s.id, url, rec.Index, rec.Key, c.key))
	}
	if rec.Index < g.lo || rec.Index >= g.hi {
		return fmt.Errorf("shard %d on %s: record for trial %d outside the leased range [%d,%d)",
			g.s.id, url, rec.Index, g.lo, g.hi)
	}
	return nil
}

// verifyEOF checks a clean worker EOF against the coordinator's books:
// every index of the shard's *current* range (a steal may have shrunk
// it since the grant) must have been received. A worker claiming EOF
// with indices missing mis-executed the lease.
func (c *Coordinator) verifyEOF(g grant, url string, sent int) error {
	c.mu.Lock()
	missing := c.remainingLocked(g.s)
	c.mu.Unlock()
	if len(missing) > 0 {
		return fmt.Errorf("shard %d on %s: worker sent EOF (%d records) with %d trials still missing (first: %d)",
			g.s.id, url, sent, len(missing), missing[0])
	}
	return nil
}
