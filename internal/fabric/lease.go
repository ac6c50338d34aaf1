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
	"time"

	"github.com/cmlasu/unsync/internal/serve"
)

// lease executes one granted shard range on a worker: POST the range,
// then consume the per-record-flushed JSONL stream under a heartbeat
// deadline. Every received line resets the deadline; a stream that goes
// silent past Config.LeaseTimeout, tears (SIGKILLed worker), or ends
// without a terminal line fails the lease — the coordinator's done map
// already holds everything that arrived, so only the remainder is ever
// re-leased.
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

	// The request context outlives every return path below only until
	// the deferred cancel: cancelling it tears the response body, which
	// in turn unblocks and retires the reader goroutine.
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

	type lineMsg struct {
		line serve.ShardLine
		err  error // io.EOF: stream ended (possibly torn)
	}
	lines := make(chan lineMsg)
	go func() {
		// Exits when the body ends — including the teardown read error
		// forced by cancel(rctx) — or when rctx dies mid-send.
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
		for sc.Scan() {
			raw := sc.Bytes()
			if len(raw) == 0 {
				continue
			}
			l, uerr := serve.DecodeShardLine(raw)
			if uerr != nil {
				// A torn final line from a killed worker: the stream is
				// over as far as protocol goes.
				break
			}
			select {
			case lines <- lineMsg{line: l}:
			case <-rctx.Done():
				return
			}
		}
		end := sc.Err()
		if end == nil {
			end = io.EOF
		}
		select {
		case lines <- lineMsg{err: end}:
		case <-rctx.Done():
		}
	}()

	timer := time.NewTimer(c.cfg.LeaseTimeout)
	defer timer.Stop()
	for {
		select {
		case m := <-lines:
			if m.err != nil {
				if errors.Is(m.err, io.EOF) {
					return fmt.Errorf("shard %d on %s: stream torn before a terminal line (worker killed?)", g.s.id, url)
				}
				return fmt.Errorf("shard %d on %s: read stream: %w", g.s.id, url, m.err)
			}
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
			timer.Reset(c.cfg.LeaseTimeout)
			switch l := m.line; {
			case l.Err != "":
				return fmt.Errorf("shard %d on %s: worker-side failure: %s", g.s.id, url, l.Err)
			case l.EOF:
				return c.verifyEOF(g, url, l.Sent)
			case l.Rec != nil:
				if l.Rec.Key != c.key {
					return errors.Join(errFatal, fmt.Errorf("shard %d on %s: record for trial %d carries key %s, want %s (worker skew)",
						g.s.id, url, l.Rec.Index, l.Rec.Key, c.key))
				}
				if rerr := c.record(l.Rec); rerr != nil {
					return rerr
				}
			default:
				return fmt.Errorf("shard %d on %s: empty stream line", g.s.id, url)
			}
		case <-timer.C:
			cancel(fmt.Errorf("lease heartbeat expired after %s", c.cfg.LeaseTimeout))
			return fmt.Errorf("shard %d on %s: no record for %s; lease heartbeat expired", g.s.id, url, c.cfg.LeaseTimeout)
		case <-rctx.Done():
			return context.Cause(rctx)
		}
	}
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
