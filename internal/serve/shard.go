package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"github.com/cmlasu/unsync/internal/asm"
	"github.com/cmlasu/unsync/internal/campaign"
)

// ShardRequest is the body of POST /api/v1/shards: one leased slice of
// a campaign's deterministic trial space. The coordinator (internal/
// fabric) derives Key from the same params on its side; the worker
// recomputes it and refuses a range whose key disagrees — a fleet must
// never mix trials from two different campaigns into one journal.
type ShardRequest struct {
	Campaign CampaignParams `json:"campaign"`
	// Lo and Hi bound the trial range [Lo, Hi).
	Lo int `json:"lo"`
	Hi int `json:"hi"`
	// Skip lists trial indices inside [Lo, Hi) already completed
	// elsewhere (a re-lease after a partial stream, or a resumed
	// coordinator): the worker does not re-run them.
	Skip []int `json:"skip,omitempty"`
	// Key is the campaign params key the coordinator derived
	// (campaign.Spec.Key). Mandatory; a mismatch is answered 409.
	Key string `json:"key"`
}

// ShardLine is the terminal line of a shard response stream: an EOF
// marker (clean worker-side completion) or a worker-side error. Every
// line before it is one trial record in the checkpoint's line format,
// TrialRecord.AppendJSON plus '\n'. A stream that ends without an EOF
// or Err line was torn — the client must treat the unreceived
// remainder of the range as never run.
type ShardLine struct {
	// EOF marks clean completion; Sent counts the records streamed.
	EOF  bool `json:"eof,omitempty"`
	Sent int  `json:"sent,omitempty"`
	// Err reports a shard cut short worker-side (cancellation, panic
	// isolation). Records already streamed remain valid.
	Err string `json:"err,omitempty"`
}

// handleShards serves POST /api/v1/shards: execute one leased trial
// range and stream its records back as checkpoint lines, one write and
// one flush per journal chunk (campaign.RunShard's emit unit), so the stream
// doubles as the lease heartbeat — every chunk resets the coordinator's
// deadline, and a SIGKILLed worker tears the connection within one TCP
// timeout instead of silently holding the lease.
func (s *Server) handleShards(w http.ResponseWriter, r *http.Request) {
	if !s.cfg.EnableShards {
		httpError(w, http.StatusNotFound, "shard execution disabled; run this node with -worker")
		return
	}
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	var req ShardRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 8<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "decode shard request: %v", err)
		return
	}
	prog, spec, err := req.resolve()
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	key := spec.Key(campaign.ProgHash(prog))
	if req.Key != key {
		// 409, not 400: the request is well-formed, but this worker's
		// view of the campaign params disagrees with the coordinator's —
		// running it would poison the merged journal.
		httpError(w, http.StatusConflict, "params key mismatch: coordinator sent %s, worker derived %s", req.Key, key)
		return
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		httpError(w, http.StatusServiceUnavailable, "server draining")
		return
	}
	s.mu.Unlock()
	res, rerr := s.gate.Reserve()
	if rerr != nil {
		s.mu.Lock()
		s.shed++
		s.mu.Unlock()
		w.Header().Set("Retry-After", shedRetryAfter)
		httpError(w, http.StatusTooManyRequests, "worker saturated")
		return
	}
	defer res.Release()
	if err := res.Wait(r.Context()); err != nil {
		httpError(w, http.StatusServiceUnavailable, "waiting for a slot: %v", err)
		return
	}

	s.mu.Lock()
	s.shardsActive++
	s.shardsTotal++
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.shardsActive--
		s.mu.Unlock()
	}()

	// A server drain must cut shard streams exactly like jobs: the
	// coordinator sees a torn stream and re-leases the remainder.
	ctx, cancel := context.WithCancelCause(r.Context())
	defer cancel(nil)
	stop := context.AfterFunc(s.jobsCtx, func() { cancel(ErrDraining) })
	defer stop()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	sent := 0
	var buf []byte // RunShard serializes emit, so one buffer serves every chunk
	emit := func(recs []campaign.TrialRecord) error {
		buf = buf[:0]
		for i := range recs {
			buf = append(recs[i].AppendJSON(buf), '\n')
		}
		if _, err := w.Write(buf); err != nil {
			return err // client gone; stop the shard
		}
		if flusher != nil {
			flusher.Flush()
		}
		sent += len(recs)
		s.mu.Lock()
		s.shardTrials += uint64(len(recs))
		s.mu.Unlock()
		return nil
	}

	skip := make(map[int]bool, len(req.Skip))
	for _, i := range req.Skip {
		skip[i] = true
	}
	runErr := campaign.RunShard(ctx, prog, spec, req.Lo, req.Hi, skip, emit)
	if runErr != nil {
		s.mu.Lock()
		s.shardFailures++
		s.mu.Unlock()
		// The status line is long gone; the terminal Err line is the
		// in-band failure signal. A torn connection drops it too — the
		// coordinator treats "no terminal line" exactly like Err.
		_ = enc.Encode(ShardLine{Err: runErr.Error()})
	} else {
		_ = enc.Encode(ShardLine{EOF: true, Sent: sent})
	}
	if flusher != nil {
		flusher.Flush()
	}
}

// resolve validates the shard request and builds its program and spec.
func (req *ShardRequest) resolve() (*asm.Program, campaign.Spec, error) {
	var spec campaign.Spec
	if err := req.Campaign.Validate(); err != nil {
		return nil, spec, err
	}
	prog, err := req.Campaign.Program()
	if err != nil {
		return nil, spec, err // validate assembled it; unreachable in practice
	}
	spec = req.Campaign.Spec()
	if req.Key == "" {
		return nil, spec, errors.New("shard request missing the campaign params key")
	}
	trials := spec.Normalized().Trials
	if req.Lo < 0 || req.Hi > trials || req.Lo >= req.Hi {
		return nil, spec, fmt.Errorf("shard range [%d, %d) outside trial space [0, %d)", req.Lo, req.Hi, trials)
	}
	return prog, spec, nil
}
