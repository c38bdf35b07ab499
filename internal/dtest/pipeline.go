package dtest

import (
	"fmt"
	"sort"
	"time"

	"exactdep/internal/system"
)

// Stage is one exact test of the cascade. A stage either decides the
// problem (decided=true with a Result) or reports itself inapplicable and
// hands the next stage the state to continue from — usually the input
// unchanged, but a stage may simplify it the way the Acyclic test does
// ("simplifies the system for the next stages", §3.3). Stages draw all
// working memory from the pipeline's Scratch and must be stateless:
// one stage value is shared by every pipeline built from a Config.
//
// Because stages operate on the package-private state representation, new
// tests register here in package dtest (implement Stage, add the value to a
// Config) rather than by editing the engine — the seam future tests (e.g.
// compile-time simplification passes) plug into.
type Stage interface {
	// Name is the stage's display name.
	Name() string
	// Kind identifies the test in results, traces, and stats counters.
	Kind() Kind
	// CostRank is the stage's position in the paper's cost ordering
	// (Table 6 / §7): 1 is cheapest. NewConfig sorts stages by it.
	CostRank() int
	// Apply probes and, when applicable, runs the test on s. decided=false
	// means inapplicable; next is then the state the following stage must
	// consume. Working memory comes from sc.
	Apply(s *state, sc *Scratch) (r Result, next *state, decided bool)
}

// Config is an immutable, cost-ordered list of cascade stages. One Config
// is shared by every Pipeline built from it (and so across workers); all
// mutable per-run memory lives in the Pipeline.
type Config struct {
	name   string
	stages []Stage
}

// NewConfig builds a configuration from the given stages, stable-sorted
// into the paper's cost order (cheapest first).
func NewConfig(name string, stages ...Stage) *Config {
	out := append([]Stage(nil), stages...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].CostRank() < out[j].CostRank() })
	return &Config{name: name, stages: out}
}

// Name returns the configuration's registered name.
func (c *Config) Name() string { return c.name }

// NumStages returns the number of stages.
func (c *Config) NumStages() int { return len(c.stages) }

// Stage returns the i-th stage in cost order.
func (c *Config) Stage(i int) Stage { return c.stages[i] }

var (
	defaultConfig = NewConfig("full", svpcStage{}, acyclicStage{}, residueStage{}, fourierStage{})
	fmOnlyConfig  = NewConfig("fm-only", fourierStage{})
)

// DefaultConfig is the paper's cascade: SVPC → Acyclic → Loop Residue →
// Fourier–Motzkin, cheapest test first (§3).
func DefaultConfig() *Config { return defaultConfig }

// FMOnlyConfig runs the Fourier–Motzkin backup alone. Every problem the
// cheap tests decide must get the same verdict from FM — the configuration
// exists for that cross-validation and for ablation benchmarks.
func FMOnlyConfig() *Config { return fmOnlyConfig }

// ConfigByName resolves a cascade configuration by its registered name.
// "" and "full" name the default cascade; "fm-only" the Fourier–Motzkin
// cross-validation pipeline.
func ConfigByName(name string) (*Config, error) {
	switch name {
	case "", "full":
		return defaultConfig, nil
	case "fm-only":
		return fmOnlyConfig, nil
	}
	return nil, fmt.Errorf("dtest: unknown cascade configuration %q (want \"full\" or \"fm-only\")", name)
}

// StageMetrics is the Table 6 cost accounting of one stage: how many
// problems consulted it (applicability probes), how many it decided, and —
// when timing is enabled — the cumulative wall time spent in it.
type StageMetrics struct {
	Consulted int
	Decided   int
	Time      time.Duration
}

// Pipeline runs a Config's stages over problems, reusing one Scratch across
// problems and accumulating per-stage metrics. It is the single cascade
// engine: Solve is a thin wrapper over a throwaway pipeline,
// and the analyzer gives each worker a persistent one.
//
// A Pipeline is not safe for concurrent use. Results and traces returned by
// Run/RunTraced alias the pipeline's scratch buffers and are valid only
// until the next Run/RunTraced on the same pipeline; callers that keep a
// witness or trace across problems must copy it.
type Pipeline struct {
	cfg     *Config
	sc      *Scratch
	timed   bool
	metrics []StageMetrics
}

// NewPipeline builds a pipeline (with its own Scratch) over this config.
func (c *Config) NewPipeline() *Pipeline {
	return &Pipeline{cfg: c, sc: newScratch(), metrics: make([]StageMetrics, len(c.stages))}
}

// Config returns the shared stage configuration.
func (p *Pipeline) Config() *Config { return p.cfg }

// SetTimed toggles per-stage wall-time accounting. Off by default: the two
// clock reads per consulted stage are measurable next to a sub-microsecond
// SVPC probe, so timing is opt-in for cost reports.
func (p *Pipeline) SetTimed(on bool) { p.timed = on }

// SetBudget installs a per-problem resource budget, carried in the
// pipeline's Scratch and consulted at the Fourier–Motzkin / branch-and-bound
// hot points. The zero Budget (the default) is unlimited. When a limit fires
// the cascade returns a sound Maybe verdict with Result.Trip set.
func (p *Pipeline) SetBudget(b Budget) { p.sc.bud.limits = b }

// Budget returns the installed budget.
func (p *Pipeline) Budget() Budget { return p.sc.bud.limits }

// SetCancel installs a cancellation signal (typically ctx.Done()) polled at
// the same hot points as the budget; a closed channel trips the current
// problem with TripCancelled. nil (the default) disables the poll.
func (p *Pipeline) SetCancel(c <-chan struct{}) { p.sc.bud.cancel = c }

// StageMetrics returns the accumulated metrics of the i-th stage (in the
// config's cost order).
func (p *Pipeline) StageMetrics(i int) StageMetrics { return p.metrics[i] }

// FMMetrics is the Fourier–Motzkin redundancy-elimination accounting,
// cumulative over every problem the pipeline has run: how many derived
// constraints were dropped as duplicates of an equal-or-tighter entry, and
// how many duplicates instead tightened the retained entry's constant.
type FMMetrics struct {
	Deduped   int
	Tightened int
}

// FMMetrics returns the pipeline's cumulative FM redundancy counters.
func (p *Pipeline) FMMetrics() FMMetrics {
	return FMMetrics{Deduped: p.sc.fm.deduped, Tightened: p.sc.fm.tightened}
}

// Run solves one preprocessed t-space system, without trace collection —
// the hot path: a problem the cheap tests decide allocates nothing once the
// scratch is warm.
func (p *Pipeline) Run(ts *system.TSystem) Result {
	r, _ := p.run(p.sc.prepare(ts), false)
	return r
}

// RunTraced is Run also reporting the applicability path. The trace's
// Consulted slice is scratch-backed: valid until the next Run/RunTraced.
func (p *Pipeline) RunTraced(ts *system.TSystem) (Result, Trace) {
	return p.run(p.sc.prepare(ts), true)
}

// run drives the cascade over a prepared state. If no stage decides (which
// cannot happen in a configuration ending in Fourier–Motzkin) the verdict
// is an inexact Unknown with KindNone.
func (p *Pipeline) run(s *state, trace bool) (Result, Trace) {
	var tr Trace
	consulted := p.sc.consulted[:0]
	for i, st := range p.cfg.stages {
		m := &p.metrics[i]
		m.Consulted++
		if trace {
			consulted = append(consulted, st.Kind())
		}
		var start time.Time
		if p.timed {
			start = time.Now()
		}
		r, next, decided := st.Apply(s, p.sc)
		if p.timed {
			m.Time += time.Since(start)
		}
		if decided {
			m.Decided++
			p.sc.consulted = consulted
			if trace {
				tr.Consulted = consulted
				tr.Decided = st.Kind()
			}
			return r, tr
		}
		s = next
	}
	p.sc.consulted = consulted
	if trace {
		tr.Consulted = consulted
	}
	return unknown(KindNone), tr
}

// svpcStage wraps the Single Variable Per Constraint test (§3.2).
type svpcStage struct{}

func (svpcStage) Name() string  { return KindSVPC.String() }
func (svpcStage) Kind() Kind    { return KindSVPC }
func (svpcStage) CostRank() int { return KindSVPC.CostRank() }
func (svpcStage) Apply(s *state, sc *Scratch) (Result, *state, bool) {
	r, ok, w := svpc(s, sc.witness)
	sc.witness = w
	return r, s, ok
}

// acyclicStage wraps the Acyclic test (§3.3). When inapplicable it passes
// its partially simplified state on to the later stages.
type acyclicStage struct{}

func (acyclicStage) Name() string  { return KindAcyclic.String() }
func (acyclicStage) Kind() Kind    { return KindAcyclic }
func (acyclicStage) CostRank() int { return KindAcyclic.CostRank() }
func (acyclicStage) Apply(s *state, sc *Scratch) (Result, *state, bool) {
	r, simplified, decided := acyclicApply(s, sc)
	if decided {
		return r, nil, true
	}
	return Result{}, simplified, false
}

// residueStage wraps the Loop Residue test (§3.4).
type residueStage struct{}

func (residueStage) Name() string  { return KindLoopResidue.String() }
func (residueStage) Kind() Kind    { return KindLoopResidue }
func (residueStage) CostRank() int { return KindLoopResidue.CostRank() }
func (residueStage) Apply(s *state, sc *Scratch) (Result, *state, bool) {
	r, ok := residueApply(s, sc)
	return r, s, ok
}

// fourierStage wraps the Fourier–Motzkin backup (§3.5). It always decides
// (possibly with an inexact Unknown).
type fourierStage struct{}

func (fourierStage) Name() string  { return KindFourierMotzkin.String() }
func (fourierStage) Kind() Kind    { return KindFourierMotzkin }
func (fourierStage) CostRank() int { return KindFourierMotzkin.CostRank() }
func (fourierStage) Apply(s *state, sc *Scratch) (Result, *state, bool) {
	return fourierApply(s, sc), nil, true
}
