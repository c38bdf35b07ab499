package workload

import (
	"context"
	"reflect"
	"testing"

	"exactdep/internal/core"
	"exactdep/internal/corpus"
)

// prodOpts is the production analyzer configuration the paper evaluates.
var prodOpts = core.Options{
	Memoize: true, ImprovedMemo: true,
	DirectionVectors: true, PruneUnused: true, PruneDistance: true,
}

// TestRunIntoWorkersDeterministic pins RunnerOptions.Workers to the serial
// path: same per-pair results, same verdict tallies.
func TestRunIntoWorkersDeterministic(t *testing.T) {
	s, ok := ProgramByName("NA") // widest test-category mix of the suite
	if !ok {
		t.Fatal("NA missing")
	}

	serial := core.New(prodOpts)
	want, err := RunInto(serial, s, RunnerOptions{Core: prodOpts, Symbolic: true})
	if err != nil {
		t.Fatal(err)
	}

	par := core.New(prodOpts)
	got, err := RunInto(par, s, RunnerOptions{Core: prodOpts, Symbolic: true, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("RunInto with Workers: 4 differs from the serial run")
	}
	for _, tt := range []struct {
		name         string
		serial, conc int
	}{
		{"Pairs", serial.Stats.Pairs, par.Stats.Pairs},
		{"Independent", serial.Stats.Independent, par.Stats.Independent},
		{"Dependent", serial.Stats.Dependent, par.Stats.Dependent},
		{"Unknown", serial.Stats.Unknown, par.Stats.Unknown},
		{"UniqueFull", serial.Stats.UniqueFull, par.Stats.UniqueFull},
	} {
		if tt.serial != tt.conc {
			t.Errorf("%s: serial %d, concurrent %d", tt.name, tt.serial, tt.conc)
		}
	}
}

// runSuite runs every program of the suite through one corpus-driver run
// (one analyzer, shared memo tables: one compiler session) and returns the
// analyzer with its merged counters.
func runSuite(t *testing.T, opts core.Options, workers int) *core.Analyzer {
	t.Helper()
	src, err := SuiteSource(false)
	if err != nil {
		t.Fatal(err)
	}
	d := corpus.NewDriver(opts, workers)
	if err := d.Run(context.Background(), src, nil); err != nil {
		t.Fatal(err)
	}
	return d.Analyzer()
}

// TestRunSuiteWorkers runs the whole suite concurrently through one shared
// analyzer and checks the session-level tallies match a serial session.
func TestRunSuiteWorkers(t *testing.T) {
	opts := core.Options{Memoize: true, ImprovedMemo: true}
	serial := runSuite(t, opts, 1)
	conc := runSuite(t, opts, 4)
	if serial.Stats.Pairs == 0 {
		t.Fatal("suite analyzed no pairs")
	}
	if conc.Stats.Pairs != serial.Stats.Pairs ||
		conc.Stats.Independent != serial.Stats.Independent ||
		conc.Stats.Dependent != serial.Stats.Dependent ||
		conc.Stats.Unknown != serial.Stats.Unknown ||
		conc.Stats.UniqueFull != serial.Stats.UniqueFull ||
		conc.Stats.UniqueEq != serial.Stats.UniqueEq {
		t.Fatalf("suite tallies differ:\nserial     %+v\nconcurrent %+v", serial.Stats, conc.Stats)
	}
}
