package refs

import (
	"fmt"
	"testing"

	"exactdep/internal/ir"
	"exactdep/internal/lang"
	"exactdep/internal/opt"
)

func unit(t *testing.T, src string) *ir.Unit {
	t.Helper()
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return opt.Lower(prog)
}

func TestPairsSimple(t *testing.T) {
	u := unit(t, `
for i = 1 to 10
  a[i] = a[i+1]
end
`)
	// sites: read a[i+1], write a[i] → pairs: read-write? ordering: site 0
	// is the read, site 1 the write. Candidates: (0,1) read+write,
	// (1,1) write self-pair. (0,0) read-read skipped.
	cands := Pairs(u)
	if len(cands) != 2 {
		t.Fatalf("candidates = %d: %v", len(cands), cands)
	}
	for _, c := range cands {
		if c.Class != NeedsTest {
			t.Fatalf("class = %v", c.Class)
		}
		if c.Pair.Common != 1 {
			t.Fatalf("common = %d", c.Pair.Common)
		}
	}
}

func TestPairsConstantClassification(t *testing.T) {
	u := unit(t, `
a[3] = 1
a[4] = a[3]
`)
	// sites: write a[3]; read a[3]; write a[4]
	cands := Pairs(u)
	classes := map[Class]int{}
	for _, c := range cands {
		classes[c.Class]++
	}
	// pairs: (w3,w3)=equal, (w3,r3)=equal, (w3,w4)=differ, (r3,w4)=differ,
	// (w4,w4)=equal
	if classes[ConstEqual] != 3 || classes[ConstDiffer] != 2 || classes[NeedsTest] != 0 {
		t.Fatalf("classes = %v", classes)
	}
}

func TestPairsDifferentArraysSkipped(t *testing.T) {
	u := unit(t, `
for i = 1 to 10
  a[i] = b[i]
end
`)
	cands := Pairs(u)
	// only self-pair of the write a[i]
	if len(cands) != 1 || cands[0].Pair.A.Ref.Array != "a" {
		t.Fatalf("candidates = %v", cands)
	}
}

func TestPairsReadReadSkipped(t *testing.T) {
	u := unit(t, `
for i = 1 to 10
  x = a[i] + a[i+1]
end
`)
	if cands := Pairs(u); len(cands) != 0 {
		t.Fatalf("read-read pairs must be skipped: %v", cands)
	}
}

func TestSiblingLoopsCommonPrefix(t *testing.T) {
	u := unit(t, `
for i = 1 to 10
  for j = 1 to 10
    a[i][j] = 1
  end
  for j = 1 to 10
    a[i][j] = 2
  end
end
`)
	cands := Pairs(u)
	// three pairs: (w1,w1), (w1,w2), (w2,w2)
	if len(cands) != 3 {
		t.Fatalf("candidates = %d", len(cands))
	}
	for _, c := range cands {
		sameSite := c.Pair.A.Ref.Stmt == c.Pair.B.Ref.Stmt
		if sameSite && c.Pair.Common != 2 {
			t.Fatalf("self pair common = %d, want 2", c.Pair.Common)
		}
		if !sameSite && c.Pair.Common != 1 {
			t.Fatalf("cross-sibling common = %d, want 1 (distinct j loops)", c.Pair.Common)
		}
	}
}

func TestMismatchedDimensionsSkipped(t *testing.T) {
	nest := &ir.Nest{Label: "x", Loops: []ir.Loop{{Index: "i", Lower: ir.NewConst(1), Upper: ir.NewConst(10)}}}
	w := ir.Ref{Array: "a", Subscripts: []ir.Expr{ir.NewVar("i")}, Kind: ir.Write, Depth: 1}
	r := ir.Ref{Array: "a", Subscripts: []ir.Expr{ir.NewVar("i"), ir.NewConst(0)}, Kind: ir.Read, Depth: 1}
	u := &ir.Unit{Sites: []ir.Site{
		{Loops: nest.Loops, Ref: w},
		{Loops: nest.Loops, Ref: r},
	}}
	cands := Pairs(u)
	if len(cands) != 1 { // only the write self-pair survives
		t.Fatalf("candidates = %v", cands)
	}
}

func TestCommonPrefixStructuralFallback(t *testing.T) {
	// untagged loops (ID 0) compare structurally
	l1 := ir.Loop{Index: "i", Lower: ir.NewConst(1), Upper: ir.NewConst(10)}
	l2 := ir.Loop{Index: "i", Lower: ir.NewConst(1), Upper: ir.NewConst(10)}
	if commonPrefix([]ir.Loop{l1}, []ir.Loop{l2}) != 1 {
		t.Fatal("structurally identical loops must match")
	}
	l3 := ir.Loop{Index: "i", Lower: ir.NewConst(2), Upper: ir.NewConst(10)}
	if commonPrefix([]ir.Loop{l1}, []ir.Loop{l3}) != 0 {
		t.Fatal("different bounds must not match")
	}
	l4 := ir.Loop{Index: "i", NoLower: true, Upper: ir.NewConst(10)}
	if commonPrefix([]ir.Loop{l1}, []ir.Loop{l4}) != 0 {
		t.Fatal("bounded vs unbounded must not match")
	}
}

func TestClassString(t *testing.T) {
	if NeedsTest.String() == "" || ConstEqual.String() == "" || ConstDiffer.String() == "" {
		t.Fatal("empty class strings")
	}
}

// pairsReference is the original quadratic enumeration, kept verbatim as
// the oracle TestPairsMatchReference compares PairsOpts against: every site
// against every later site, each filter applied in turn.
func pairsReference(u *ir.Unit, opts Options) []Candidate {
	var out []Candidate
	for i, a := range u.Sites {
		for j := i; j < len(u.Sites); j++ {
			b := u.Sites[j]
			if i == j && opts.NoSelfPairs {
				continue
			}
			if a.Ref.Array != b.Ref.Array {
				continue
			}
			if len(a.Ref.Subscripts) != len(b.Ref.Subscripts) {
				continue // inconsistent dimensionality: not comparable
			}
			if a.Ref.Kind != ir.Write && b.Ref.Kind != ir.Write {
				continue // read-read pairs carry no dependence
			}
			if i == j && a.Ref.Kind != ir.Write {
				continue
			}
			p := ir.Pair{
				A:       a,
				B:       b,
				Common:  commonPrefix(a.Loops, b.Loops),
				Symbols: u.Symbols,
				Label:   u.Name,
			}
			out = append(out, Candidate{Pair: p, Class: Classify(a.Ref, b.Ref)})
		}
	}
	return out
}

// nestsUnit builds n single-array nests, each a loop writing a<k>[i] and
// reading a<k>[i+1]: n arrays, 2n sites, 2n candidates.
func nestsUnit(n int) *ir.Unit {
	u := &ir.Unit{Name: "nests"}
	for k := 0; k < n; k++ {
		loops := []ir.Loop{{Index: "i", Lower: ir.NewConst(1), Upper: ir.NewConst(10), ID: k + 1}}
		arr := fmt.Sprintf("a%d", k)
		u.Sites = append(u.Sites,
			ir.Site{Loops: loops, Ref: ir.Ref{Array: arr, Subscripts: []ir.Expr{ir.NewVar("i").AddConst(1)}, Kind: ir.Read, Depth: 1}},
			ir.Site{Loops: loops, Ref: ir.Ref{Array: arr, Subscripts: []ir.Expr{ir.NewVar("i")}, Kind: ir.Write, Depth: 1}})
	}
	return u
}

// TestPairsAllocs gates the enumeration's allocations: quadrupling the
// arrays and sites may add only the few allocations of logarithmic map and
// slice growth, so an allocation per array, per site or per candidate
// fails.
func TestPairsAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include race-detector instrumentation")
	}
	const n = 64
	small, large := nestsUnit(n), nestsUnit(4*n)
	if got := len(Pairs(large)); got != 2*4*n {
		t.Fatalf("candidates = %d, want %d", got, 2*4*n)
	}
	as := testing.AllocsPerRun(20, func() { Pairs(small) })
	al := testing.AllocsPerRun(20, func() { Pairs(large) })
	t.Logf("allocs: %d arrays %.0f, %d arrays %.0f", n, as, 4*n, al)
	if al > as+8 {
		t.Fatalf("allocs grew from %.0f to %.0f when arrays and sites quadrupled", as, al)
	}
}
