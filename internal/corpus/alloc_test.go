package corpus_test

import (
	"context"
	"testing"

	"exactdep/internal/core"
	"exactdep/internal/corpus"
	"exactdep/internal/workload"
)

// TestDriverRunAllocs keeps the driver's single path free of per-unit
// allocation: a warm in-memory Run at workers=1 with no emit callback (the
// "did anything change?" run) must allocate the same for 64 units as for
// 4,096.
func TestDriverRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include race-detector instrumentation")
	}
	opts := core.Options{Memoize: true, ImprovedMemo: true}
	all, err := workload.LargeCorpusUnits(4096)
	if err != nil {
		t.Fatal(err)
	}
	warmAllocs := func(units corpus.Mem) float64 {
		d := corpus.NewDriver(opts, 1)
		if err := d.SetStore(corpus.NewStore(opts)); err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		if err := d.Run(ctx, units, nil); err != nil { // cold: fill the store
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(10, func() {
			if err := d.Run(ctx, units, nil); err != nil {
				t.Fatal(err)
			}
		})
		if d.Stats.UnitsReused != len(units) {
			t.Fatalf("warm run reused %d of %d units", d.Stats.UnitsReused, len(units))
		}
		return allocs
	}
	small, large := warmAllocs(all[:64]), warmAllocs(all)
	t.Logf("warm allocs/run: 64 units %.0f, %d units %.0f", small, len(all), large)
	if large != small {
		t.Fatalf("warm Run allocations grew from %.0f to %.0f when units went from 64 to %d",
			small, large, len(all))
	}
}
