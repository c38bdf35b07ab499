package dtest

import (
	"strings"
	"testing"
)

func TestOutcomeStrings(t *testing.T) {
	if Independent.String() != "independent" || Dependent.String() != "dependent" ||
		Unknown.String() != "unknown" {
		t.Fatal("Outcome strings wrong")
	}
}

func TestKindStrings(t *testing.T) {
	want := map[Kind]string{
		KindNone:           "none",
		KindSVPC:           "SVPC",
		KindAcyclic:        "Acyclic",
		KindLoopResidue:    "Loop Residue",
		KindFourierMotzkin: "Fourier-Motzkin",
	}
	for k, w := range want {
		if k.String() != w {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), w)
		}
	}
}

func TestResultString(t *testing.T) {
	r := dependent(KindSVPC, nil)
	if got := r.String(); got != "dependent (SVPC)" {
		t.Fatalf("Result.String = %q", got)
	}
	u := unknown(KindFourierMotzkin)
	if got := u.String(); !strings.Contains(got, "inexact") {
		t.Fatalf("inexact marker missing: %q", got)
	}
}

// TestRunMatchesSolve: the untraced Run of one reused pipeline (the
// analyzer's path) decides like the traced throwaway Solve.
func TestRunMatchesSolve(t *testing.T) {
	p := DefaultConfig().NewPipeline()
	for _, ts := range []struct {
		n  int
		cs [][]int64 // coef..., C
	}{
		{1, [][]int64{{1, 5}, {-1, 0}}},
		{2, [][]int64{{1, -1, 2}, {-1, 1, -1}, {1, 0, 10}, {-1, 0, 0}, {0, 1, 10}, {0, -1, 0}}},
		{2, [][]int64{{2, 3, 5}, {-2, -3, -12}, {1, 0, 100}, {0, 1, 100}, {-1, 0, 100}, {0, -1, 100}}},
	} {
		s := sys(ts.n)
		for _, row := range ts.cs {
			s.Cons = append(s.Cons, cons(row[len(row)-1], row[:len(row)-1]...))
		}
		full, _ := Solve(s.Clone())
		run := p.Run(s.Clone())
		if full.Outcome != run.Outcome || full.Kind != run.Kind {
			t.Fatalf("Solve %v vs Pipeline.Run %v", full, run)
		}
	}
}
