package corpus

import (
	"encoding/gob"
	"fmt"
	"io"
	"sort"

	"exactdep/internal/core"
	"exactdep/internal/depvec"
	"exactdep/internal/dtest"
	"exactdep/internal/memo"
	"exactdep/internal/refs"
)

// Store is the persistent verdict store of the incremental driver:
// fingerprint → per-unit verdicts, direction vectors, distances and cost
// counters. It follows the SaveMemo discipline — gob snapshot save/load,
// versioned, validated against the analyzer configuration — but lives one
// level up: where the memo tables cache canonical *problems*, the store
// caches whole *units*, so an unchanged unit costs one map probe instead of
// one memo probe per pair.
//
// A store is bound to an options signature (Signature): the subset of
// core.Options that can change result bytes — direction vectors, pruning,
// separability, cascade configuration, symmetric-memo vector ordering, and
// the count-budget class. Loading a snapshot saved under a different
// signature fails, exactly as LoadMemo rejects a key-scheme mismatch.
//
// Stored results never include provenance (DecidedBy): provenance depends
// on session history even in a serial analyzer, so the driver serves store
// hits as ByCache and the canonical rendering excludes it.
//
// A Store is a plain map with no internal locking: concurrent Lookups are
// safe only while no Put runs. The driver relies on exactly that contract —
// its front-end workers probe the store concurrently, and Puts wait for the
// emit phase, after the front end is joined (see Driver.Run) — so any new
// caller that mixes readers and writers must add its own synchronization.
type Store struct {
	sig   string
	units map[memo.Fingerprint]*StoredUnit
}

// StoredUnit is one unit's persisted analysis product.
type StoredUnit struct {
	// Name is the unit's name when it was stored (informational: hits are
	// keyed purely on the fingerprint, so a renamed-but-identical unit
	// still hits).
	Name string
	// Results holds one entry per candidate, in candidate order.
	Results []StoredResult
	// Cost is the unit's verdict/cost profile.
	Cost CostSummary
}

// StoredResult is the serializable form of one pair's verdict.
type StoredResult struct {
	Outcome   int
	Exact     bool
	Kind      int
	Trip      int
	Vectors   [][]byte // one byte per level, depvec.Direction
	DistLevel []int
	DistValue []int64
}

// CostSummary is the per-unit cost profile persisted next to the verdicts:
// how much the unit cost to analyze, in the deterministic units of the
// paper's tables (pair and verdict counts, not wall time).
type CostSummary struct {
	Pairs       int
	Independent int
	Dependent   int
	Unknown     int
	Maybe       int
	Vectors     int
	Distances   int
}

// NewStore returns an empty store bound to the signature of opts.
func NewStore(opts core.Options) *Store {
	return &Store{sig: Signature(opts), units: make(map[memo.Fingerprint]*StoredUnit)}
}

// Signature digests the options fields that can change result bytes. Two
// configurations with equal signatures produce byte-identical verdicts,
// vectors and distances for every unit, so they may share a store.
// Memoization layout, worker counts, timing, and clock limits (whose trips
// are never stored) are excluded.
func Signature(opts core.Options) string {
	cascade := opts.Cascade
	if cascade == "" {
		cascade = "full"
	}
	cl := opts.Budget.Class()
	return fmt.Sprintf("v=%t pu=%t pd=%t sep=%t sym=%t cascade=%s budget=%d/%d/%d",
		opts.DirectionVectors, opts.PruneUnused, opts.PruneDistance, opts.Separable,
		opts.SymmetricMemo, cascade, cl.FMEliminations, cl.BranchNodes, cl.Constraints)
}

// Signature returns the signature the store is bound to.
func (s *Store) Signature() string { return s.sig }

// Len returns the number of stored units.
func (s *Store) Len() int { return len(s.units) }

// Lookup returns the stored unit for a fingerprint. The returned unit is
// shared and must be treated as immutable.
func (s *Store) Lookup(fp memo.Fingerprint) (*StoredUnit, bool) {
	su, ok := s.units[fp]
	return su, ok
}

// Put stores a unit's results under its fingerprint, overwriting any
// previous entry.
func (s *Store) Put(fp memo.Fingerprint, su StoredUnit) { s.units[fp] = &su }

// Clone returns an independent store with the same entries (StoredUnits are
// treated as immutable, so the copy is shallow per unit).
func (s *Store) Clone() *Store {
	c := &Store{sig: s.sig, units: make(map[memo.Fingerprint]*StoredUnit, len(s.units))}
	for fp, su := range s.units {
		c.units[fp] = su
	}
	return c
}

// storeFileVersion guards the on-disk format.
const storeFileVersion = 1

// savedStore is the on-disk document. Units are sorted by fingerprint so a
// given store always serializes to the same bytes.
type savedStore struct {
	Version   int
	Signature string
	Units     []savedStoreUnit
}

type savedStoreUnit struct {
	Hi, Lo uint64
	Unit   StoredUnit
}

// Save writes the store as a gob snapshot.
func (s *Store) Save(w io.Writer) error {
	doc := savedStore{Version: storeFileVersion, Signature: s.sig}
	for fp, su := range s.units {
		doc.Units = append(doc.Units, savedStoreUnit{Hi: fp.Hi, Lo: fp.Lo, Unit: *su})
	}
	sort.Slice(doc.Units, func(i, j int) bool {
		if doc.Units[i].Hi != doc.Units[j].Hi {
			return doc.Units[i].Hi < doc.Units[j].Hi
		}
		return doc.Units[i].Lo < doc.Units[j].Lo
	})
	return gob.NewEncoder(w).Encode(&doc)
}

// LoadStore reads a snapshot saved by Save, validating that it was produced
// under the same options signature.
func LoadStore(r io.Reader, opts core.Options) (*Store, error) {
	var doc savedStore
	if err := gob.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("corpus: loading verdict store: %w", err)
	}
	if doc.Version != storeFileVersion {
		return nil, fmt.Errorf("corpus: verdict store version %d, want %d", doc.Version, storeFileVersion)
	}
	s := NewStore(opts)
	if doc.Signature != s.sig {
		return nil, fmt.Errorf("corpus: verdict store signature %q, analyzer configuration needs %q",
			doc.Signature, s.sig)
	}
	for i := range doc.Units {
		su := &doc.Units[i]
		s.units[memo.Fingerprint{Hi: su.Hi, Lo: su.Lo}] = &su.Unit
	}
	return s, nil
}

// Storable reports whether a unit's results may enter the store: verdicts
// tripped by the clock or by cancellation are scheduling-dependent, so a
// unit containing one is re-analyzed on every run instead of being
// persisted (the same rule the memo tables apply per problem).
func Storable(results []core.Result) bool {
	for i := range results {
		if t := results[i].Trip; t == dtest.TripDeadline || t == dtest.TripCancelled {
			return false
		}
	}
	return true
}

// ToStored converts a unit's fresh results to their persisted form
// (exported for the depserve service layer, which orchestrates its own
// store traffic around a shared warm tier).
func ToStored(name string, results []core.Result) StoredUnit {
	su := StoredUnit{Name: name, Results: make([]StoredResult, len(results)), Cost: Summarize(results)}
	for i := range results {
		r := &results[i]
		sr := StoredResult{
			Outcome: int(r.Outcome),
			Exact:   r.Exact,
			Kind:    int(r.Kind),
			Trip:    int(r.Trip),
		}
		for _, v := range r.Vectors {
			bs := make([]byte, len(v))
			for l, d := range v {
				bs[l] = byte(d)
			}
			sr.Vectors = append(sr.Vectors, bs)
		}
		for _, d := range r.Distances {
			sr.DistLevel = append(sr.DistLevel, d.Level)
			sr.DistValue = append(sr.DistValue, d.Value)
		}
		su.Results[i] = sr
	}
	return su
}

// Serve rebuilds a unit's results from the store, attaching the *current*
// candidates' pairs (the fingerprint proved them equivalent). Served
// results report ByCache.
func Serve(cands []refs.Candidate, su *StoredUnit) []core.Result {
	out := make([]core.Result, len(su.Results))
	for i := range su.Results {
		sr := &su.Results[i]
		r := core.Result{
			Pair:      cands[i].Pair,
			Outcome:   dtest.Outcome(sr.Outcome),
			Exact:     sr.Exact,
			DecidedBy: core.ByCache,
			Kind:      dtest.Kind(sr.Kind),
			Trip:      dtest.TripReason(sr.Trip),
		}
		for _, bs := range sr.Vectors {
			v := make(depvec.Vector, len(bs))
			for l, b := range bs {
				v[l] = depvec.Direction(b)
			}
			r.Vectors = append(r.Vectors, v)
		}
		for j := range sr.DistLevel {
			r.Distances = append(r.Distances, depvec.Distance{Level: sr.DistLevel[j], Value: sr.DistValue[j]})
		}
		out[i] = r
	}
	return out
}

// Summarize computes a unit's cost profile from its results.
func Summarize(results []core.Result) CostSummary {
	c := CostSummary{Pairs: len(results)}
	for i := range results {
		r := &results[i]
		switch r.Outcome {
		case dtest.Independent:
			c.Independent++
		case dtest.Dependent:
			c.Dependent++
		case dtest.Maybe:
			c.Maybe++
		default:
			c.Unknown++
		}
		c.Vectors += len(r.Vectors)
		c.Distances += len(r.Distances)
	}
	return c
}
