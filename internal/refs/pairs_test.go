package refs_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"exactdep/internal/ir"
	"exactdep/internal/lang"
	"exactdep/internal/opt"
	"exactdep/internal/refs"
	"exactdep/internal/workload"
)

func lower(t testing.TB, name, src string) *ir.Unit {
	t.Helper()
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return opt.Lower(prog)
}

// samePairs requires PairsOpts to reproduce the quadratic reference exactly,
// order included, with self-pairs on and off.
func samePairs(t *testing.T, name string, u *ir.Unit) {
	t.Helper()
	for _, opts := range []refs.Options{{}, {NoSelfPairs: true}} {
		got, want := refs.PairsOpts(u, opts), refs.PairsReference(u, opts)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s %+v: output differs from the reference (%d candidates, reference %d)", name, opts, len(got), len(want))
		}
	}
}

func TestPairsMatchReference(t *testing.T) {
	t.Run("suite", func(t *testing.T) {
		for _, s := range workload.Programs() {
			for _, symbolic := range []bool{false, true} {
				name := fmt.Sprintf("%s symbolic=%v", s.Name, symbolic)
				samePairs(t, name, lower(t, name, workload.Source(s, symbolic)))
			}
		}
	})
	t.Run("large-corpus", func(t *testing.T) {
		for _, s := range workload.LargeCorpus(4096) {
			samePairs(t, s.Name, lower(t, s.Name, workload.Source(s, false)))
		}
	})
	t.Run("fm-hard", func(t *testing.T) {
		for _, s := range workload.FMHardPrograms() {
			samePairs(t, s.Name, lower(t, s.Name, workload.FMHardSource(s)))
		}
	})
	t.Run("random", func(t *testing.T) {
		samePairs(t, "empty", &ir.Unit{})
		for seed := int64(1); seed <= 300; seed++ {
			samePairs(t, fmt.Sprintf("seed %d", seed), randomUnit(rand.New(rand.NewSource(seed))))
		}
	})
}

// randomUnit hand-builds a unit the lowerer would not produce: a few arrays
// shared by many sites, ranks mixed within an array, an array that is only
// read, constant and affine subscripts, and loop stacks drawn from a pool
// that includes untagged (ID 0) sibling loops with equal index and bounds.
func randomUnit(rng *rand.Rand) *ir.Unit {
	pool := []ir.Loop{
		{Index: "i", Lower: ir.NewConst(1), Upper: ir.NewConst(10)},
		{Index: "i", Lower: ir.NewConst(1), Upper: ir.NewConst(10)},
		{Index: "j", Lower: ir.NewConst(1), Upper: ir.NewConst(10)},
		{Index: "j", Lower: ir.NewConst(2), Upper: ir.NewVar("n")},
		{Index: "i", Lower: ir.NewConst(1), Upper: ir.NewConst(10), ID: 1},
		{Index: "j", NoLower: true, Upper: ir.NewConst(10), ID: 2},
	}
	arrays := []string{"a", "b", "c", "ro"}
	u := &ir.Unit{Name: "random", Symbols: []string{"n"}}
	for k := rng.Intn(40); k > 0; k-- {
		var loops []ir.Loop
		for d := rng.Intn(3); d > 0; d-- {
			loops = append(loops, pool[rng.Intn(len(pool))])
		}
		r := ir.Ref{Array: arrays[rng.Intn(len(arrays))], Kind: ir.Read, Depth: len(loops), Stmt: rng.Intn(5)}
		if r.Array != "ro" && rng.Intn(2) == 0 {
			r.Kind = ir.Write
		}
		for d := 1 + rng.Intn(2); d > 0; d-- {
			e := ir.NewConst(int64(rng.Intn(3)))
			if len(loops) > 0 && rng.Intn(2) == 0 {
				e = ir.NewVar(loops[rng.Intn(len(loops))].Index).AddConst(int64(rng.Intn(2)))
			}
			r.Subscripts = append(r.Subscripts, e)
		}
		u.Sites = append(u.Sites, ir.Site{Loops: loops, Ref: r})
	}
	return u
}

// BenchmarkPairs times enumeration alone over inputs the corpus front end
// sees: the suite's LG (with its Table 7 symbolic cases), the program with
// the most sites, and every program of the 4,096-nest LargeCorpus.
func BenchmarkPairs(b *testing.B) {
	lg, _ := workload.ProgramByName("LG")
	b.Run("LG", func(b *testing.B) {
		u := lower(b, lg.Name, workload.Source(lg, true))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sink = refs.Pairs(u)
		}
	})
	b.Run("LargeCorpus", func(b *testing.B) {
		var units []*ir.Unit
		for _, s := range workload.LargeCorpus(4096) {
			units = append(units, lower(b, s.Name, workload.Source(s, false)))
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, u := range units {
				sink = refs.Pairs(u)
			}
		}
	})
}

var sink []refs.Candidate
