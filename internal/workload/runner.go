package workload

import (
	"context"
	"fmt"

	"exactdep/internal/core"
	"exactdep/internal/corpus"
	"exactdep/internal/lang"
	"exactdep/internal/opt"
	"exactdep/internal/refs"
)

// RunnerOptions configures one suite-runner invocation.
type RunnerOptions struct {
	// Core configures the analyzer (memoization, direction vectors, …).
	Core core.Options
	// Symbolic appends the Table 7 symbolic cases to each program.
	Symbolic bool
	// Workers is the fan-out of the concurrent driver (core.AnalyzeAll):
	// 0 or 1 analyzes serially on the calling goroutine, N > 1 shares the
	// analyzer's sharded memo tables across N goroutines. Results and
	// verdict tallies are identical either way; only wall-clock changes.
	Workers int
	// Cascade selects the dtest pipeline configuration by name ("" keeps
	// Core.Cascade; "full" is the paper's cost-ordered cascade, "fm-only"
	// runs Fourier–Motzkin alone for cross-validation). When non-empty it
	// overrides Core.Cascade in Run.
	Cascade string
}

// coreOpts resolves the analyzer options, applying the Cascade override.
func (ro RunnerOptions) coreOpts() core.Options {
	c := ro.Core
	if ro.Cascade != "" {
		c.Cascade = ro.Cascade
	}
	return c
}

// Run analyzes one synthetic program with a fresh analyzer and returns the
// analyzer with its counters.
func Run(s Spec, ro RunnerOptions) (*core.Analyzer, error) {
	a := core.New(ro.coreOpts())
	if _, err := RunInto(a, s, ro); err != nil {
		return nil, err
	}
	return a, nil
}

// driverWorkers maps the runner's worker convention (0 or 1 serial, N > 1
// pool of N) onto the corpus driver's (where <= 0 means GOMAXPROCS).
func driverWorkers(w int) int {
	if w <= 1 {
		return 1
	}
	return w
}

// RunInto runs one synthetic program through an existing analyzer (sharing
// its memo tables, as a compiler would across a session) and returns the
// per-pair results in candidate order. It is a corpus-of-one run of the
// incremental driver with no store attached: the driver batches the unit
// straight through the analyzer, serially at Workers <= 1, so counters are
// identical to a direct AnalyzeCandidate loop.
func RunInto(a *core.Analyzer, s Spec, ro RunnerOptions) ([]core.Result, error) {
	cands, err := Candidates(s, ro.Symbolic)
	if err != nil {
		return nil, err
	}
	d := corpus.NewDriverOver(a, driverWorkers(ro.Workers))
	urs, err := d.RunAll(context.Background(), corpus.Mem{{Name: s.Name, Cands: cands}})
	if err != nil {
		return nil, fmt.Errorf("workload %s: %w", s.Name, err)
	}
	return urs[0].Results, nil
}

// Analyze runs one synthetic program through the full pipeline (parse →
// prepass → pair extraction → analyzer) and returns the analyzer with its
// counters. Pairs are enumerated without self-pairs: the harness counts
// distinct-reference pairs, the paper's notion of a dependence-test call.
func Analyze(s Spec, opts core.Options, symbolic bool) (*core.Analyzer, error) {
	return Run(s, RunnerOptions{Core: opts, Symbolic: symbolic})
}

// AnalyzeInto runs one synthetic program through an existing analyzer
// (sharing its memo tables, as a compiler would across a session).
func AnalyzeInto(a *core.Analyzer, s Spec, symbolic bool) error {
	_, err := RunInto(a, s, RunnerOptions{Symbolic: symbolic})
	return err
}

// Candidates parses and lowers one synthetic program and enumerates its
// candidate pairs (without self-pairs — the paper's counting unit).
func Candidates(s Spec, symbolic bool) ([]refs.Candidate, error) {
	src := Source(s, symbolic)
	prog, err := lang.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("workload %s: %w", s.Name, err)
	}
	unit := opt.Lower(prog)
	if len(unit.Warnings) > 0 {
		return nil, fmt.Errorf("workload %s: unexpected lowering warnings: %v", s.Name, unit.Warnings)
	}
	return refs.PairsOpts(unit, refs.Options{NoSelfPairs: true}), nil
}
