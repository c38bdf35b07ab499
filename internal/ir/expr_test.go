package ir

import (
	"testing"
	"testing/quick"
)

func TestNewConstAndVar(t *testing.T) {
	c := NewConst(7)
	if !c.IsConst() || c.Const != 7 {
		t.Fatalf("NewConst(7) = %v", c)
	}
	v := NewVar("i")
	if v.Coeff("i") != 1 || v.Const != 0 {
		t.Fatalf("NewVar(i) = %v", v)
	}
	if len(NewTerm("i", 0).Terms) != 0 {
		t.Fatal("NewTerm with zero coeff should be constant 0")
	}
}

func TestAddSub(t *testing.T) {
	e := NewVar("i").Add(NewTerm("j", 2)).AddConst(3) // i + 2j + 3
	f := NewVar("i").Sub(NewVar("j"))                 // i - j
	sum := e.Add(f)
	if sum.Coeff("i") != 2 || sum.Coeff("j") != 1 || sum.Const != 3 {
		t.Fatalf("sum = %v", sum)
	}
	diff := e.Sub(f)
	if diff.Coeff("i") != 0 || diff.Coeff("j") != 3 || diff.Const != 3 {
		t.Fatalf("diff = %v", diff)
	}
	if diff.Uses("i") {
		t.Fatal("cancelled coefficient must be removed from Terms")
	}
}

func TestScaleAndNeg(t *testing.T) {
	e := NewVar("i").AddConst(5)
	if got := e.Scale(3); got.Coeff("i") != 3 || got.Const != 15 {
		t.Fatalf("Scale = %v", got)
	}
	if got := e.Scale(0); !got.IsZero() {
		t.Fatalf("Scale(0) = %v", got)
	}
	if got := e.Neg(); got.Coeff("i") != -1 || got.Const != -5 {
		t.Fatalf("Neg = %v", got)
	}
}

func TestMul(t *testing.T) {
	e := NewVar("i").AddConst(1)
	if got, ok := e.Mul(NewConst(4)); !ok || got.Coeff("i") != 4 || got.Const != 4 {
		t.Fatalf("Mul const = %v ok=%v", got, ok)
	}
	if got, ok := NewConst(-2).Mul(e); !ok || got.Coeff("i") != -2 || got.Const != -2 {
		t.Fatalf("const Mul = %v ok=%v", got, ok)
	}
	if _, ok := e.Mul(NewVar("j")); ok {
		t.Fatal("nonlinear product must report ok=false")
	}
}

func TestRename(t *testing.T) {
	e := NewVar("i").Add(NewTerm("j", 2))
	got := e.Rename("i", "t1")
	if got.Coeff("t1") != 1 || got.Uses("i") {
		t.Fatalf("Rename = %v", got)
	}
	// renaming onto an existing variable combines coefficients
	combined := e.Rename("i", "j")
	if combined.Coeff("j") != 3 {
		t.Fatalf("Rename combine = %v", combined)
	}
}

func TestEval(t *testing.T) {
	e := NewTerm("i", 2).Add(NewTerm("j", -1)).AddConst(10)
	v, ok := e.Eval(map[string]int64{"i": 3, "j": 4})
	if !ok || v != 12 {
		t.Fatalf("Eval = %d ok=%v", v, ok)
	}
	if _, ok := e.Eval(map[string]int64{"i": 3}); ok {
		t.Fatal("Eval with missing var must fail")
	}
}

func TestString(t *testing.T) {
	cases := []struct {
		e    Expr
		want string
	}{
		{NewConst(0), "0"},
		{NewConst(-4), "-4"},
		{NewVar("i"), "i"},
		{NewTerm("i", -1), "-i"},
		{NewTerm("i", 2).Add(NewTerm("j", -3)).AddConst(7), "2*i - 3*j + 7"},
		{NewTerm("j", 1).Add(NewTerm("i", 1)), "i + j"},
	}
	for _, c := range cases {
		if got := c.e.String(); got != c.want {
			t.Errorf("String(%v) = %q, want %q", c.e, got, c.want)
		}
	}
}

func TestEqual(t *testing.T) {
	a := NewVar("i").AddConst(1)
	b := NewConst(1).Add(NewVar("i"))
	if !a.Equal(b) {
		t.Fatal("structurally equal exprs must compare equal")
	}
	if a.Equal(NewVar("i")) || a.Equal(NewVar("j").AddConst(1)) {
		t.Fatal("different exprs compared equal")
	}
}

func TestCloneIsolation(t *testing.T) {
	a := NewVar("i")
	b := a.Clone()
	_ = b.Add(NewVar("j")) // must not touch a or b
	c := b.Add(NewVar("k"))
	if a.Uses("j") || a.Uses("k") || b.Uses("k") {
		t.Fatal("Add mutated its receiver")
	}
	if !c.Uses("k") {
		t.Fatal("Add lost the added term")
	}
}

// Property: Add is commutative and Sub(x,x) is zero, over random small exprs.
func TestExprProperties(t *testing.T) {
	mk := func(ci, cj, k int8) Expr {
		return NewTerm("i", int64(ci)).Add(NewTerm("j", int64(cj))).AddConst(int64(k))
	}
	commutes := func(ai, aj, ak, bi, bj, bk int8) bool {
		a, b := mk(ai, aj, ak), mk(bi, bj, bk)
		return a.Add(b).Equal(b.Add(a))
	}
	if err := quick.Check(commutes, nil); err != nil {
		t.Error(err)
	}
	selfZero := func(ai, aj, ak int8) bool {
		a := mk(ai, aj, ak)
		return a.Sub(a).IsZero()
	}
	if err := quick.Check(selfZero, nil); err != nil {
		t.Error(err)
	}
	evalLinear := func(ai, aj, ak int8, x, y int16) bool {
		a := mk(ai, aj, ak)
		env := map[string]int64{"i": int64(x), "j": int64(y)}
		v, ok := a.Eval(env)
		want := int64(ai)*int64(x) + int64(aj)*int64(y) + int64(ak)
		return ok && v == want
	}
	if err := quick.Check(evalLinear, nil); err != nil {
		t.Error(err)
	}
}

func TestLoopString(t *testing.T) {
	l := Loop{Index: "i", Lower: NewConst(1), Upper: NewVar("n")}
	if got := l.String(); got != "for i = 1 to n" {
		t.Fatalf("Loop.String = %q", got)
	}
	l.NoUpper = true
	if got := l.String(); got != "for i = 1 to ?" {
		t.Fatalf("unbounded Loop.String = %q", got)
	}
}

func TestRefString(t *testing.T) {
	r := Ref{Array: "a", Subscripts: []Expr{NewVar("i").AddConst(1), NewVar("j")}, Kind: Write}
	if got := r.String(); got != "a[i + 1][j] (write)" {
		t.Fatalf("Ref.String = %q", got)
	}
}

func TestNestCommonDepth(t *testing.T) {
	n := &Nest{Loops: []Loop{{Index: "i"}, {Index: "j"}}}
	a := Ref{Depth: 2}
	b := Ref{Depth: 1}
	if d := n.CommonDepth(a, b); d != 1 {
		t.Fatalf("CommonDepth = %d", d)
	}
	if got := len(n.LoopsFor(a)); got != 2 {
		t.Fatalf("LoopsFor deep ref = %d loops", got)
	}
	deep := Ref{Depth: 5}
	if got := len(n.LoopsFor(deep)); got != 2 {
		t.Fatalf("LoopsFor clamps to nest depth, got %d", got)
	}
}
