package dtest

import (
	"math"
	"testing"

	"exactdep/internal/system"
)

// Failure injection: the exact tests must degrade to safe Unknown verdicts
// (never wrong answers) when the checked int64 arithmetic or the structural
// caps trip.

func TestFMOverflowDegradesToUnknown(t *testing.T) {
	// Coefficients near the int64 edge: the Fourier–Motzkin combination
	// a·up + b·lo overflows. The cascade must answer Unknown, not panic or
	// fabricate an exact verdict.
	big := int64(math.MaxInt64 / 2)
	ts := sys(2,
		cons(1, big, big-1),
		cons(-1, -(big-3), -(big-5)),
		cons(10, 1, 0), cons(0, -1, 0),
		cons(10, 0, 1), cons(0, 0, -1),
	)
	r, _ := Solve(ts)
	if r.Outcome == Unknown {
		return // acceptable degradation
	}
	// If it *did* decide, the verdict must at least be exact-marked.
	if !r.Exact {
		t.Fatalf("non-exact non-unknown verdict: %v", r)
	}
}

func TestAcyclicSubstituteOverflow(t *testing.T) {
	// Substituting a huge bound into a multi-variable constraint overflows;
	// the Acyclic test must hand the original system to the next stage.
	big := int64(math.MaxInt64 / 2)
	ts := sys(2,
		cons(0, 1, 1),         // t1 + t2 ≤ 0: t1 upper-bounded via t2
		cons(-big, -1, 0),     // t1 ≥ big (fix candidate)
		cons(big, 0, 1),       // t2 ≤ big
		cons(-(big-1), 0, -1), // t2 ≥ big-1
	)
	r, _ := Solve(ts)
	// whatever the route, no panic and a classified outcome:
	if r.Outcome != Independent && r.Outcome != Dependent && r.Outcome != Unknown {
		t.Fatalf("unclassified outcome: %v", r)
	}
}

func TestBranchDepthLimit(t *testing.T) {
	// With explicit branch-and-bound disabled, a fractional sliver is
	// Unknown (paper-faithful mode); re-enabled, it resolves exactly.
	defer func() { EnableExplicitBranchAndBound = true }()
	ts := sys(2,
		cons(1, 2, -3), cons(-1, -2, 3), // 2t1 - 3t2 = 1
		cons(0, 0, 1), cons(0, 0, -1), // t2 = 0 → t1 = 1/2
	)
	EnableExplicitBranchAndBound = false
	r, _ := Solve(ts.Clone())
	if r.Outcome != Unknown {
		t.Fatalf("paper-faithful mode: want Unknown, got %v", r)
	}
	EnableExplicitBranchAndBound = true
	r, _ = Solve(ts.Clone())
	if r.Outcome != Independent || !r.Exact {
		t.Fatalf("with branch-and-bound: want exact Independent, got %v", r)
	}
}

func TestConstraintBlowupCap(t *testing.T) {
	// A dense system engineered to multiply constraints during elimination.
	// The cap must stop it with Unknown rather than exhausting memory.
	const n = 12
	var cs []system.Constraint
	// many constraints coupling every pair with distinct coefficient shapes
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			c1 := make([]int64, n)
			c1[i], c1[j] = 2, 3
			cs = append(cs, system.Constraint{Coef: c1, C: int64(i + j)})
			c2 := make([]int64, n)
			c2[i], c2[j] = -3, -2
			cs = append(cs, system.Constraint{Coef: c2, C: int64(i - j)})
		}
	}
	r := FourierMotzkin(NewState(sys(n, cs...)))
	if r.Outcome != Independent && r.Outcome != Dependent && r.Outcome != Unknown {
		t.Fatalf("unclassified outcome: %v", r)
	}
}

func TestWitnessVerification(t *testing.T) {
	// Every dependent-exact verdict across a sweep of constructed systems
	// must carry a valid witness.
	systems := []*system.TSystem{
		sys(1, cons(5, 1), cons(0, -1)),
		sys(2, cons(3, 1, -1), cons(3, -1, 1), cons(10, 1, 0), cons(0, -1, 0), cons(10, 0, 1), cons(0, 0, -1)),
		sys(3, cons(12, 2, 3, 1), cons(-1, -1, -1, -1), cons(9, 1, 0, 0), cons(0, -1, 0, 0),
			cons(9, 0, 1, 0), cons(0, 0, -1, 0), cons(9, 0, 0, 1), cons(0, 0, 0, -1)),
	}
	for i, ts := range systems {
		r, _ := Solve(ts.Clone())
		if r.Outcome != Dependent {
			continue
		}
		if r.Witness == nil {
			t.Fatalf("system %d: dependent without witness (kind %v)", i, r.Kind)
		}
		if !VerifyWitness(ts, r.Witness) {
			t.Fatalf("system %d: invalid witness %v", i, r.Witness)
		}
	}
}
