package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"github.com/cmlasu/unsync/internal/campaign"
	"github.com/cmlasu/unsync/internal/experiments"
	"github.com/cmlasu/unsync/internal/stream"
)

// runFunc executes one job and returns its JSON result. The server's
// default runner dispatches on the job kind; tests inject slow or
// failing runners through newServer to exercise overload behavior.
type runFunc func(ctx context.Context, job *Job) (json.RawMessage, error)

// defaultRunner is the production runFunc.
func (s *Server) defaultRunner(ctx context.Context, job *Job) (json.RawMessage, error) {
	switch job.Kind {
	case KindCampaign:
		return s.runCampaign(ctx, job)
	case KindFigure:
		return runFigure(ctx, job.Request.Figure)
	}
	return nil, fmt.Errorf("serve: unknown job kind %q", job.Kind)
}

// runCampaign executes a campaign job against the job's own
// checkpoint journal, with a streaming plane tapped in for the SSE
// progress endpoint, the /metrics gauges and the per-job dead-letter
// sidecar. An interrupted campaign (drain or deadline) propagates
// campaign.ErrInterrupted so the server can classify it; the completed
// trials are already flushed to the checkpoint.
func (s *Server) runCampaign(ctx context.Context, job *Job) (json.RawMessage, error) {
	p := job.Request.Campaign
	prog, err := p.Program()
	if err != nil {
		return nil, err // validated at submit; unreachable in practice
	}
	spec := p.spec(s.checkpointPath(job.ID))
	plane, perr := stream.NewPlane(stream.PlaneConfig{
		DLQ: s.dlqPath(job.ID),
		Key: spec.Normalized().Key(campaign.ProgHash(prog)),
		// Progress frames are cosmetic; 100 ms keeps a busy campaign
		// from flooding SSE subscribers. Only frames are throttled: the
		// plane's own accounting (DLQ, convergence) sees every record.
		EmitEvery: 100 * time.Millisecond,
	})
	if perr != nil {
		return nil, perr
	}
	spec.Observer = plane.Observe
	s.mu.Lock()
	s.planes[job.ID] = plane
	s.mu.Unlock()

	res, err := campaign.RunContext(ctx, prog, spec)
	// Close stays registered: Subscribe-after-close hands late SSE
	// clients the final frame, and /metrics keeps reporting the job's
	// terminal DLQ depth.
	if cerr := plane.Close(); cerr != nil && err == nil {
		// A determinism violation or a dead-letter write failure is a
		// real fault even when every trial classified.
		err = cerr
	}
	if err != nil {
		if errors.Is(err, campaign.ErrInterrupted) {
			return nil, err
		}
		if res.Ran == 0 {
			return nil, err
		}
		// Trials failed but the campaign completed: the tally itself
		// records the failures; report the result.
	}
	return json.Marshal(res)
}

// figureRunners dispatches figure jobs. Each runner owns its options
// scaling.
var figureRunners = map[string]func(ctx context.Context, p *FigureParams) (any, error){
	"fig4": func(ctx context.Context, p *FigureParams) (any, error) {
		return experiments.Fig4(ctx, figureOptions(p))
	},
	"fig5": func(ctx context.Context, p *FigureParams) (any, error) {
		return experiments.Fig5(ctx, figureOptions(p), nil, nil)
	},
	"fig6": func(ctx context.Context, p *FigureParams) (any, error) {
		return experiments.Fig6(ctx, figureOptions(p), nil, nil)
	},
	"ser": func(ctx context.Context, p *FigureParams) (any, error) {
		return experiments.SERSweep(ctx, figureOptions(p))
	},
	"roec": func(ctx context.Context, p *FigureParams) (any, error) {
		return experiments.ROEC(ctx, figureTrials(p))
	},
	"coverage": func(ctx context.Context, p *FigureParams) (any, error) {
		us, re, err := experiments.CoverageStudy(ctx, figureTrials(p), figureOptions(p).Workers)
		if err != nil {
			return nil, err
		}
		return map[string]any{"unsync": us, "reunion": re}, nil
	},
}

func figureOptions(p *FigureParams) experiments.Options {
	if p.Quick {
		return experiments.QuickOptions()
	}
	return experiments.DefaultOptions()
}

func figureTrials(p *FigureParams) int {
	if p.Trials > 0 {
		return p.Trials
	}
	return 100
}

// figureNames lists the known figure studies, sorted.
func figureNames() string {
	names := make([]string, 0, len(figureRunners))
	for name := range figureRunners {
		names = append(names, name)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// runFigure executes a figure job.
func runFigure(ctx context.Context, p *FigureParams) (json.RawMessage, error) {
	run := figureRunners[strings.ToLower(p.Name)]
	out, err := run(ctx, p)
	if err != nil {
		return nil, err
	}
	return json.Marshal(out)
}
