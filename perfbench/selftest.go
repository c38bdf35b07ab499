package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// selfTest runs every workload once at tiny size, untraced and traced, and
// checks that each run reports exactly the metrics BENCHMARK.json declares
// for it, with the declared units, and that every output matched the
// oracle.
func (b *bench) selfTest() error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	b.tiny = true
	for _, w := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			res, err := b.run(w.Name, traced)
			if err != nil {
				return err
			}
			if err := checkMetrics(res, want); err != nil {
				return fmt.Errorf("%s (traced %v): %w", w.Name, traced, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				return fmt.Errorf("%s (traced %v): correct=%v attempted=%d failed=%d", w.Name, traced, res.Correct, res.Attempted, res.Failed)
			}
			if !traced && (res.Metrics["ok_frac"].Value != 1 || res.Metrics["exact_frac"].Value != 1) {
				return fmt.Errorf("%s: ok_frac %v, exact_frac %v, want 1", w.Name, res.Metrics["ok_frac"].Value, res.Metrics["exact_frac"].Value)
			}
			fmt.Fprintf(os.Stderr, "perfbench: selftest %s traced=%v: %d metrics ok\n", w.Name, traced, len(res.Metrics))
		}
	}
	return nil
}

// checkMetrics requires res to report exactly the declared metrics with
// their units.
func checkMetrics(res *result, want []struct{ Name, Unit string }) error {
	var errs []string
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		switch {
		case !ok:
			errs = append(errs, "missing "+m.Name)
		case got.Unit != m.Unit:
			errs = append(errs, fmt.Sprintf("%s: unit %q, declared %q", m.Name, got.Unit, m.Unit))
		}
	}
	if len(res.Metrics) != len(want) {
		declared := map[string]bool{}
		for _, m := range want {
			declared[m.Name] = true
		}
		for name := range res.Metrics {
			if !declared[name] {
				errs = append(errs, "undeclared "+name)
			}
		}
	}
	if len(errs) > 0 {
		sort.Strings(errs)
		return fmt.Errorf("%v", errs)
	}
	return nil
}
