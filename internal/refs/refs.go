// Package refs enumerates candidate dependence pairs from a lowered unit:
// every pair of references to the same array in which at least one is a
// write (flow, anti, and output dependences), including a write paired with
// itself. Pairs whose subscripts are all constant on both sides — the
// paper's "Constant" column in Table 1, e.g. a[3] vs a[4] — are classified
// up front and never reach the dependence tests.
//
// A write self-pair compares every execution of the write with every
// execution, the same one included. It is therefore dependent whenever the
// write executes at all, and its direction vectors tell the cases apart: in
//
//	for i = 1 to 10
//	  a[i] = b[i]
//	end
//
// a[i] vs a[i] is dependent with the single vector (=), meaning only an
// instance paired with itself touches the same element and no loop carries
// an output dependence, while c[1] = b[i] in the same loop gives (*): distinct
// iterations overwrite one element.
package refs

import (
	"exactdep/internal/ir"
)

// Class labels how a candidate pair is handled.
type Class int

const (
	// NeedsTest means the pair goes to the dependence analyzer.
	NeedsTest Class = iota
	// ConstEqual: all subscripts constant and equal — trivially dependent.
	ConstEqual
	// ConstDiffer: all subscripts constant and some dimension differs —
	// trivially independent.
	ConstDiffer
)

func (c Class) String() string {
	switch c {
	case ConstEqual:
		return "constant (dependent)"
	case ConstDiffer:
		return "constant (independent)"
	default:
		return "needs test"
	}
}

// Candidate is one enumerated pair with its classification.
type Candidate struct {
	Pair  ir.Pair
	Class Class
}

// Options controls pair enumeration.
type Options struct {
	// NoSelfPairs skips pairing a write with itself (see the package
	// documentation for what a self-pair reports). The experiment harness
	// uses this to count distinct-reference pairs the way the paper does.
	NoSelfPairs bool
}

// Pairs enumerates the candidate pairs of a unit in deterministic order,
// including write self-pairs.
func Pairs(u *ir.Unit) []Candidate { return PairsOpts(u, Options{}) }

// PairsOpts enumerates candidate pairs with explicit options, in the order
// (i, j) with i ≤ j over the unit's site indices. Its cost is linear in sites
// plus emitted candidates: sites are grouped once by array and rank, a write
// walks the rest of its group, and a read walks only the group's later
// writes, so the read–read and mismatched-rank pairs that yield nothing are
// never visited.
func PairsOpts(u *ir.Unit, opts Options) []Candidate {
	sites := u.Sites
	// Number the groups in order of first appearance and count each one's
	// sites and writes, kept for now in sitesEnd and writesEnd.
	type key struct {
		array string
		rank  int
	}
	ids := make(map[key]int32)
	groupOf := make([]int32, len(sites))
	var groups []group
	for i := range sites {
		r := &sites[i].Ref
		k := key{r.Array, len(r.Subscripts)}
		g, ok := ids[k]
		if !ok {
			g = int32(len(groups))
			ids[k] = g
			groups = append(groups, group{})
		}
		groupOf[i] = g
		groups[g].sitesEnd++
		if r.Kind == ir.Write {
			groups[g].writesEnd++
		}
	}
	var end int32
	for g := range groups {
		gr := &groups[g]
		end += gr.sitesEnd
		gr.site, gr.sitesEnd = end, end
		end += gr.writesEnd
		gr.write, gr.writesEnd = end, end
	}
	// Fill the runs back to front, which leaves every cursor at the start of
	// its run, and count the candidates on the way: a write pairs with
	// itself and each later site of its group, a read with each later write.
	idx := make([]int32, end)
	n := 0
	for i := len(sites) - 1; i >= 0; i-- {
		gr := &groups[groupOf[i]]
		if sites[i].Ref.Kind == ir.Write {
			n += int(gr.sitesEnd - gr.site)
			if !opts.NoSelfPairs {
				n++
			}
			gr.write--
			idx[gr.write] = int32(i)
		} else {
			n += int(gr.writesEnd - gr.write)
		}
		gr.site--
		idx[gr.site] = int32(i)
	}
	if n == 0 {
		return nil
	}
	out := make([]Candidate, 0, n)
	for i := range sites {
		a := &sites[i]
		gr := &groups[groupOf[i]]
		var partners []int32
		if a.Ref.Kind == ir.Write {
			from := gr.site // site i itself
			if opts.NoSelfPairs {
				from++
			}
			partners = idx[from:gr.sitesEnd]
			gr.write++
		} else {
			partners = idx[gr.write:gr.writesEnd]
		}
		gr.site++
		for _, j := range partners {
			b := &sites[j]
			p := ir.Pair{
				A:       *a,
				B:       *b,
				Common:  commonPrefix(a.Loops, b.Loops),
				Symbols: u.Symbols,
				Label:   u.Name,
			}
			out = append(out, Candidate{Pair: p, Class: Classify(a.Ref, b.Ref)})
		}
	}
	return out
}

// group locates one (array, rank) group in PairsOpts's index slice, where
// it is two runs: its sites in index order, ending at sitesEnd, then its
// writes in index order, from sitesEnd to writesEnd. site and write are
// cursors into the runs: at the current site, and at the group's first
// write not before it.
type group struct {
	site, sitesEnd, write, writesEnd int32
}

// Classify detects all-constant subscript pairs.
func Classify(a, b ir.Ref) Class {
	equal := true
	for d := range a.Subscripts {
		sa, sb := a.Subscripts[d], b.Subscripts[d]
		if !sa.IsConst() || !sb.IsConst() {
			return NeedsTest
		}
		if sa.Const != sb.Const {
			equal = false
		}
	}
	if equal {
		return ConstEqual
	}
	return ConstDiffer
}

// commonPrefix counts the shared outermost loops of two stacks. Loops match
// when they are the same syntactic loop: same index and same bounds. (Two
// sibling loops that happen to reuse an index name and bounds would also
// match, which is conservative for hand-built units; the lowerer always
// copies one stack, so prefixes there are exact.)
func commonPrefix(a, b []ir.Loop) int {
	n := 0
	for n < len(a) && n < len(b) {
		if !sameLoop(a[n], b[n]) {
			break
		}
		n++
	}
	return n
}

func sameLoop(a, b ir.Loop) bool {
	if a.ID != 0 || b.ID != 0 {
		return a.ID == b.ID
	}
	if a.Index != b.Index || a.NoLower != b.NoLower || a.NoUpper != b.NoUpper {
		return false
	}
	if !a.NoLower && !a.Lower.Equal(b.Lower) {
		return false
	}
	if !a.NoUpper && !a.Upper.Equal(b.Upper) {
		return false
	}
	return true
}
