package main

// The oracle for exact_frac. Each nest's verdicts are derived independently
// of the analyzer under test:
//
//   - nests whose iteration space fits interpStepLimit run in the reference
//     interpreter (internal/interp); its access trace gives ground truth per
//     reference pair the way the differential tests map it: the write
//     conflicts with the read when some cell is both written and read;
//   - nests the interpreter cannot run (symbolic bounds, or more steps than
//     the limit) are analyzed with the Fourier–Motzkin-only cascade, which
//     shares no test code with the cost-ordered cascade the programs run;
//     verdict and direction vectors must both match.
//
// A write paired with itself follows the analyzer's convention: one
// execution conflicts with itself (the all-'=' vector), so the pair is
// dependent whenever the write executes at all.
//
// Truth depends only on the nest's text up to the name of its array, so it
// is computed once per distinct nest and cached.

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"exactdep/internal/core"
	"exactdep/internal/interp"
	"exactdep/internal/ir"
	"exactdep/internal/lang"
	"exactdep/internal/opt"
	"exactdep/internal/refs"
)

// interpStepLimit bounds one nest's interpreted execution. Larger nests
// fall back to the FM-only cascade.
const interpStepLimit = 20000

// verdict is the expected result of one reference pair.
type verdict struct {
	Dependent bool
	// Vectors is the space-joined direction-vector list; checked only when
	// VectorsKnown (FM-only truth — the interpreter yields no vectors).
	Vectors      string
	VectorsKnown bool
}

// nestTruth is the expected verdict of a nest's two pairs: the write with
// itself, and the write with the read.
type nestTruth struct {
	Self, Flow verdict
	Interp     bool // truth came from the interpreter
	Err        error
}

// oracle caches nest truths by canonical nest text.
type oracle struct {
	cache map[string]*nestTruth
	// Counts of distinct nests by method, for the report.
	InterpNests, FMNests int
}

func newOracle() *oracle { return &oracle{cache: map[string]*nestTruth{}} }

// truth returns the expected verdicts for nest i of f.
func (o *oracle) truth(f *srcFile, i int) *nestTruth {
	nest := strings.ReplaceAll(f.Nests[i], f.Arrays[i]+"[", "A[")
	var reads []string // read(...) lines declare the file's symbols
	for _, h := range f.Header {
		if strings.HasPrefix(h, "read(") {
			reads = append(reads, h)
		}
	}
	key := strings.Join(append(reads, nest), "\n")
	if t, ok := o.cache[key]; ok {
		return t
	}
	t := o.compute(reads, nest)
	o.cache[key] = t
	return t
}

func (o *oracle) compute(reads []string, nest string) *nestTruth {
	prog, err := lang.Parse(nest + "\n")
	if err != nil {
		return &nestTruth{Err: err}
	}
	if steps, ok := stepBound(prog.Stmts, map[string][2]int64{}); ok && steps <= interpStepLimit {
		tr, err := interp.Run(prog, nil, interp.Limits{MaxSteps: interpStepLimit})
		if err == nil {
			o.InterpNests++
			return interpTruth(tr)
		}
	}
	o.FMNests++
	return fmTruth(strings.Join(reads, "\n") + "\n" + nest + "\n")
}

// interpTruth reads the two pair verdicts off an execution trace of a nest
// that touches one array.
func interpTruth(tr *interp.Trace) *nestTruth {
	type cell struct{ writes, reads int }
	cells := map[string]*cell{}
	for _, a := range tr.Accesses {
		k := fmt.Sprint(a.Index)
		c := cells[k]
		if c == nil {
			c = &cell{}
			cells[k] = c
		}
		if a.Kind == ir.Write {
			c.writes++
		} else {
			c.reads++
		}
	}
	t := &nestTruth{Interp: true}
	for _, c := range cells {
		// The analyzer counts a write's execution as conflicting with
		// itself (it reports the all-'=' vector for that instance), so a
		// write self-pair is dependent as soon as the write executes.
		if c.writes >= 1 {
			t.Self.Dependent = true
		}
		if c.writes >= 1 && c.reads >= 1 {
			t.Flow.Dependent = true
		}
	}
	return t
}

// fmTruth analyzes the nest with the FM-only cascade under the options the
// programs run with (direction vectors with both prunings, no memo).
func fmTruth(src string) *nestTruth {
	prog, err := lang.Parse(src)
	if err != nil {
		return &nestTruth{Err: err}
	}
	a := core.New(core.Options{DirectionVectors: true, PruneUnused: true, PruneDistance: true, Cascade: "fm-only"})
	t := &nestTruth{}
	n := 0
	for _, c := range refs.Pairs(opt.Lower(prog)) {
		r, err := a.AnalyzeCandidate(c)
		if err != nil {
			return &nestTruth{Err: err}
		}
		if !r.Exact {
			return &nestTruth{Err: fmt.Errorf("fm-only verdict is not exact: %s", r.Outcome)}
		}
		vs := make([]string, len(r.Vectors))
		for i, v := range r.Vectors {
			vs[i] = v.String()
		}
		v := verdict{Dependent: r.Outcome.String() == "dependent", Vectors: strings.Join(vs, " "), VectorsKnown: true}
		if c.Pair.A.Ref.Kind == ir.Write && c.Pair.B.Ref.Kind == ir.Write {
			t.Self = v
		} else {
			t.Flow = v
		}
		n++
	}
	if n != 2 {
		return &nestTruth{Err: fmt.Errorf("nest has %d pairs, want 2", n)}
	}
	return t
}

// stepBound bounds the interpreter steps of stmts from above, with loop
// indices ranging over the intervals in env. ok is false when a bound
// depends on a symbol or uses a step.
func stepBound(stmts []lang.Stmt, env map[string][2]int64) (int64, bool) {
	var total int64
	for _, s := range stmts {
		switch s := s.(type) {
		case *lang.Assign:
			total++
		case *lang.For:
			if s.Step != nil {
				return 0, false
			}
			lo, ok1 := interval(s.Lo, env)
			hi, ok2 := interval(s.Hi, env)
			if !ok1 || !ok2 {
				return 0, false
			}
			trips := hi[1] - lo[0] + 1
			if trips <= 0 {
				continue
			}
			env[s.Index] = [2]int64{lo[0], hi[1]}
			body, ok := stepBound(s.Body, env)
			delete(env, s.Index)
			if !ok || body > interpStepLimit {
				return 0, false
			}
			total += trips * (body + 1)
		default:
			return 0, false
		}
		if total > interpStepLimit {
			return total, true
		}
	}
	return total, true
}

// interval evaluates e over the index intervals in env.
func interval(e lang.Expr, env map[string][2]int64) ([2]int64, bool) {
	switch e := e.(type) {
	case *lang.Num:
		return [2]int64{e.Value, e.Value}, true
	case *lang.Ident:
		v, ok := env[e.Name]
		return v, ok
	case *lang.Neg:
		v, ok := interval(e.X, env)
		return [2]int64{-v[1], -v[0]}, ok
	case *lang.BinOp:
		l, ok1 := interval(e.L, env)
		r, ok2 := interval(e.R, env)
		if !ok1 || !ok2 {
			return [2]int64{}, false
		}
		switch e.Op {
		case '+':
			return [2]int64{l[0] + r[0], l[1] + r[1]}, true
		case '-':
			return [2]int64{l[0] - r[1], l[1] - r[0]}, true
		case '*':
			c := []int64{l[0] * r[0], l[0] * r[1], l[1] * r[0], l[1] * r[1]}
			lo, hi := c[0], c[0]
			for _, x := range c[1:] {
				lo, hi = min(lo, x), max(hi, x)
			}
			return [2]int64{lo, hi}, true
		}
	}
	return [2]int64{}, false
}

// wireResponse is the part of the wire AnalyzeResponse the check reads.
type wireResponse struct {
	DegradedByLoad bool `json:"degradedByLoad"`
	Units          []struct {
		Name    string `json:"name"`
		Results []struct {
			Pair    string   `json:"pair"`
			Outcome string   `json:"outcome"`
			Exact   bool     `json:"exact"`
			Vectors []string `json:"vectors"`
		} `json:"results"`
	} `json:"units"`
}

func decodeResponse(r io.Reader) (*wireResponse, error) {
	var resp wireResponse
	if err := json.NewDecoder(r).Decode(&resp); err != nil {
		return nil, fmt.Errorf("decoding wire response: %w", err)
	}
	return &resp, nil
}

// checkResult counts the expected pairs of one output and how many match
// the oracle; pairs absent from the output count as not matching.
type checkResult struct {
	Pairs, Exact int
	// Mismatches describes the first few pairs that did not match.
	Mismatches []string
}

func (c *checkResult) add(o checkResult) {
	c.Pairs += o.Pairs
	c.Exact += o.Exact
	for _, m := range o.Mismatches {
		if len(c.Mismatches) < maxMismatches {
			c.Mismatches = append(c.Mismatches, m)
		}
	}
}

const maxMismatches = 5

func (c *checkResult) mismatch(format string, args ...any) {
	if len(c.Mismatches) < maxMismatches {
		c.Mismatches = append(c.Mismatches, fmt.Sprintf(format, args...))
	}
}

// check compares a decoded response with the expected files. Every pair of
// every file is expected; a pair matches when its verdict is exact and
// equal to the oracle's (and so are its vectors, where the oracle knows
// them). "maybe" and "unknown" never match.
func (o *oracle) check(resp *wireResponse, files []*srcFile) checkResult {
	var res checkResult
	byName := make(map[string]int, len(resp.Units))
	for i, u := range resp.Units {
		byName[u.Name] = i
	}
	for _, f := range files {
		want := 2 * len(f.Nests)
		res.Pairs += want
		ui, ok := byName[f.Name]
		if !ok || len(resp.Units[ui].Results) != want {
			res.mismatch("%s: unit missing or pair count differs from %d", f.Name, want)
			continue
		}
		nestOf := make(map[string]int, len(f.Arrays))
		for i, a := range f.Arrays {
			nestOf[a] = i
		}
		seen := make(map[[2]int]bool, want) // (nest, self) reported
		for _, r := range resp.Units[ui].Results {
			arr, self, ok := parsePair(r.Pair)
			ni, found := nestOf[arr]
			key := [2]int{ni, b2i(self)}
			if !ok || !found || seen[key] {
				res.mismatch("%s: unexpected pair %q", f.Name, r.Pair)
				continue
			}
			seen[key] = true
			t := o.truth(f, ni)
			want := t.Flow
			if self {
				want = t.Self
			}
			switch {
			case t.Err != nil:
				res.mismatch("%s: %q: oracle: %v", f.Name, r.Pair, t.Err)
				continue
			case !r.Exact || r.Outcome != "dependent" && r.Outcome != "independent":
				res.mismatch("%s: %q: inexact verdict %s", f.Name, r.Pair, r.Outcome)
				continue
			case (r.Outcome == "dependent") != want.Dependent,
				want.VectorsKnown && strings.Join(r.Vectors, " ") != want.Vectors:
				res.mismatch("%s: %q: got %s %v, oracle (interp=%v) dependent=%v vectors %q",
					f.Name, r.Pair, r.Outcome, r.Vectors, t.Interp, want.Dependent, want.Vectors)
				continue
			}
			res.Exact++
		}
	}
	return res
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// parsePair splits a wire pair label ("a3[i + 1] (write) vs a3[i] (read)")
// into its array and whether both sides are writes.
func parsePair(p string) (array string, self bool, ok bool) {
	a, b, found := strings.Cut(p, " vs ")
	i := strings.IndexByte(a, '[')
	if !found || i <= 0 {
		return "", false, false
	}
	return a[:i], strings.HasSuffix(a, "(write)") && strings.HasSuffix(b, "(write)"), true
}
