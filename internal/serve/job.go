// Package serve implements the campaign job service behind
// cmd/unsync-serve: an HTTP API that accepts fault-injection campaign
// and figure-experiment jobs as JSON, runs them on a bounded worker
// pool with per-job deadlines, sheds load when the admission queue is
// full, and journals every job so a drained (SIGTERM) server resumes
// interrupted campaigns bit-identically after restart.
package serve

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"strings"

	"github.com/cmlasu/unsync/internal/asm"
	"github.com/cmlasu/unsync/internal/campaign"
	"github.com/cmlasu/unsync/internal/fault"
	"github.com/cmlasu/unsync/internal/progs"
)

// JobKind names what a job runs.
type JobKind string

// Job kinds.
const (
	// KindCampaign runs a fault-injection campaign (internal/campaign)
	// with a per-job checkpoint journal, so an interrupted job resumes.
	KindCampaign JobKind = "campaign"
	// KindFigure regenerates one of the paper's figure/table studies.
	KindFigure JobKind = "figure"
)

// JobState is a job's lifecycle position.
type JobState string

// Job states. Queued and Running are live; Done and Failed are
// terminal; Interrupted marks a job cut short by a drain — it is NOT
// terminal and re-enters the queue when the server restarts.
const (
	StateQueued      JobState = "queued"
	StateRunning     JobState = "running"
	StateDone        JobState = "done"
	StateFailed      JobState = "failed"
	StateInterrupted JobState = "interrupted"
)

// CampaignParams is the JSON body of a campaign job: the unsync-fault
// flag surface, minus host-local paths (the server owns the
// checkpoint placement).
type CampaignParams struct {
	// Prog names a library program (progs.ByName). Empty selects
	// Source instead.
	Prog string `json:"prog,omitempty"`
	// Source is inline assembly text, the alternative to Prog.
	Source string `json:"source,omitempty"`

	Scheme     string   `json:"scheme,omitempty"`
	Trials     int      `json:"trials,omitempty"`
	Seed       uint64   `json:"seed,omitempty"`
	Spaces     []string `json:"spaces,omitempty"`
	FI         int      `json:"fi,omitempty"`
	MaxSteps   uint64   `json:"max_steps,omitempty"`
	StepBudget uint64   `json:"step_budget,omitempty"`
	Workers    int      `json:"workers,omitempty"`
	CIWidth    float64  `json:"ci_width,omitempty"`
}

// FigureParams is the JSON body of a figure job.
type FigureParams struct {
	// Name selects the study: fig4, fig5, fig6, ser, roec, coverage.
	Name string `json:"name"`
	// Quick selects the scaled-down smoke configuration instead of the
	// full-fidelity one.
	Quick bool `json:"quick,omitempty"`
	// Trials parameterizes roec and coverage (default 100).
	Trials int `json:"trials,omitempty"`
}

// JobRequest is the submit body (POST /api/v1/jobs).
type JobRequest struct {
	Kind JobKind `json:"kind"`
	// DeadlineMS bounds the job's wall-clock runtime in milliseconds.
	// Zero selects the server default; values above the server maximum
	// are clamped.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`

	Campaign *CampaignParams `json:"campaign,omitempty"`
	Figure   *FigureParams   `json:"figure,omitempty"`
}

// validate checks the request shape and resolves what it can without
// running anything; it returns the assembled program for campaign
// jobs (proving the source assembles before the job is admitted).
func (r *JobRequest) validate() error {
	switch r.Kind {
	case KindCampaign:
		if r.Campaign == nil {
			return fmt.Errorf("campaign job missing the campaign params object")
		}
		if err := r.Campaign.Validate(); err != nil {
			return err
		}
	case KindFigure:
		if r.Figure == nil {
			return fmt.Errorf("figure job missing the figure params object")
		}
		if _, ok := figureRunners[strings.ToLower(r.Figure.Name)]; !ok {
			return fmt.Errorf("unknown figure %q (want one of %s)", r.Figure.Name, figureNames())
		}
	default:
		return fmt.Errorf("unknown job kind %q (want %s or %s)", r.Kind, KindCampaign, KindFigure)
	}
	return nil
}

// Validate checks the campaign params without running anything: the
// program assembles, the space names resolve, and the campaign spec
// validates (known scheme, fingerprint interval at least 1). It
// is shared by job submission, shard execution, and the fabric
// coordinator (which validates params before splitting the space).
func (p *CampaignParams) Validate() error {
	if _, err := p.Program(); err != nil {
		return err
	}
	if _, err := p.spaces(); err != nil {
		return err
	}
	return p.Spec().Validate()
}

// Program assembles the campaign workload. Exported for the fabric
// coordinator, which needs the program hash to derive the params key.
func (p *CampaignParams) Program() (*asm.Program, error) {
	switch {
	case p.Prog != "" && p.Source != "":
		return nil, fmt.Errorf("campaign job sets both prog and source; pick one")
	case p.Prog != "":
		lib, ok := progs.ByName(p.Prog)
		if !ok {
			return nil, fmt.Errorf("unknown library program %q", p.Prog)
		}
		return lib.Assemble()
	case p.Source != "":
		prog, err := asm.Assemble(p.Source)
		if err != nil {
			return nil, fmt.Errorf("assemble source: %w", err)
		}
		return prog, nil
	default:
		return nil, fmt.Errorf("campaign job needs a prog name or inline source")
	}
}

// spaces resolves the fault-space names.
func (p *CampaignParams) spaces() ([]fault.Space, error) {
	var out []fault.Space
	for _, name := range p.Spaces {
		sp, ok := fault.SpaceByName(strings.TrimSpace(name))
		if !ok {
			return nil, fmt.Errorf("unknown fault space %q (want int-reg, fp-reg, pc, mem or cb)", name)
		}
		out = append(out, sp)
	}
	return out, nil
}

// Spec builds the campaign.Spec these params describe, with no
// checkpoint wiring. Exported because the distributed fabric derives
// the campaign params key — the lease-protocol contract between
// coordinator and workers — from exactly this Spec.
func (p *CampaignParams) Spec() campaign.Spec {
	spaces, _ := p.spaces() // validated at submit
	return campaign.Spec{
		Scheme:     p.Scheme,
		Trials:     p.Trials,
		Seed:       p.Seed,
		MaxSteps:   p.MaxSteps,
		StepBudget: p.StepBudget,
		Spaces:     spaces,
		FI:         p.FI,
		Workers:    p.Workers,
		CIWidth:    p.CIWidth,
	}
}

// spec builds the campaign.Spec for this job. checkpoint is the
// server-owned journal path; Resume is always on, so a job restarted
// after a drain continues from its completed trials bit-identically.
func (p *CampaignParams) spec(checkpoint string) campaign.Spec {
	s := p.Spec()
	s.Checkpoint = checkpoint
	s.Resume = true
	return s
}

// Job is one unit of server work. All fields are immutable after
// submit except State, Error and Result, which the server mutates
// under its lock.
type Job struct {
	ID         string     `json:"id"`
	Kind       JobKind    `json:"kind"`
	State      JobState   `json:"state"`
	Request    JobRequest `json:"request"`
	DeadlineMS int64      `json:"deadline_ms"`
	// Error is the terminal failure (or interruption cause).
	Error string `json:"error,omitempty"`
	// Result is the job's JSON output (campaign.Result or the figure
	// study's rows).
	Result json.RawMessage `json:"result,omitempty"`
}

// jobID derives the deterministic job identifier: a monotone sequence
// number plus a content hash of the request. No wall-clock component —
// a restarted server must regenerate the same checkpoint paths.
func jobID(seq uint64, req JobRequest) string {
	b, _ := json.Marshal(req)
	sum := sha256.Sum256(b)
	return fmt.Sprintf("j%06d-%08x", seq, sum[:4])
}
