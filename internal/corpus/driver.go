package corpus

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"exactdep/internal/core"
	"exactdep/internal/memo"
	"exactdep/internal/refs"
)

// StageTimes breaks one Run's cost into its phases. Load, Fingerprint and
// Probe are summed across front-end workers, so at workers > 1 they are CPU
// time and may exceed Wall; Solve and Emit are wall time on the calling
// goroutine; Wall is the whole Run. All fields except Wall are zero unless
// Driver.TimeStages is set (per-unit clock reads are measurable next to a
// warm store probe, so the accounting is opt-in, like
// core.Options.TimeCascade).
type StageTimes struct {
	// Load is reading + parsing units (file-backed sources; near zero for
	// in-memory corpora, whose units already exist).
	Load time.Duration
	// Fingerprint is the structural digest pass (zero-cost for units whose
	// cached fingerprint is still valid).
	Fingerprint time.Duration
	// Probe is the fingerprint → verdict store lookups.
	Probe time.Duration
	// Solve is the analyzer batch over store misses.
	Solve time.Duration
	// Emit is rebuilding store-served results, the store Puts, and the
	// caller's emit callbacks.
	Emit time.Duration
	// Wall is the whole Run, always measured.
	Wall time.Duration
}

// Stats counts one Run's incremental traffic. The unit counters are what
// the incremental tests pin: mutating k of N units must show UnitsSolved ==
// k and UnitsReused == N-k.
type Stats struct {
	// Units is the corpus size this run.
	Units int
	// UnitsReused were served from the store without analysis.
	UnitsReused int
	// UnitsSolved went through the analyzer (changed, new, or no store).
	UnitsSolved int
	// PairsServed / PairsSolved split the pair population the same way.
	PairsServed int
	PairsSolved int
	// Stage is the per-phase timing (see StageTimes; stage accounting
	// needs Driver.TimeStages).
	Stage StageTimes
}

// UnitResult is one unit's outcome in corpus order.
type UnitResult struct {
	Name        string
	Fingerprint memo.Fingerprint
	// Reused reports that the results came from the store, not the
	// analyzer.
	Reused   bool
	Results  []core.Result
	Cost     CostSummary
	Warnings []string
}

// Driver is the incremental corpus driver: it diffs unit fingerprints
// against a persistent Store and schedules only changed or new units
// through the analyzer, so unchanged-unit reuse (store hits) layers on top
// of cross-unit canonical-problem reuse (memo hits). Without a store every
// unit is solved fresh, and the driver is simply the corpus front end the
// suite runner and depanalyze share.
//
// A Run has one path in three phases, each sized by the worker count:
//
//	front end (caller + workers-1 helpers)  solve (caller)        emit (caller)
//	┌──────────────────────────────────┐   ┌────────────────┐   ┌───────────────────┐
//	│ claim a block of units           │   │ misses, corpus │   │ corpus order:     │
//	│ load (Lister only), fingerprint, │──▶│ order, one     │──▶│ serve hit / Put   │
//	│ probe the store (read-only)      │   │ AnalyzeAll     │   │ solved, emit      │
//	└──────────────────────────────────┘   └────────────────┘   └───────────────────┘
//
// At workers == 1 the front end runs on the calling goroutine alone, so the
// whole Run is serial and starts no goroutine. Cold and warm canonical
// bytes — and the unit/pair counters above — are identical at every worker
// count.
//
// A Driver is not safe for concurrent use; its own front-end helpers and
// the analyzer's worker pool provide the parallelism.
type Driver struct {
	analyzer *core.Analyzer
	workers  int
	sig      string
	store    *Store
	fp       Fingerprinter // the calling goroutine's front-end scratch

	// Stats describes the most recent Run.
	Stats Stats
	// TimeStages enables per-stage wall-time accounting in Stats.Stage.
	// Off by default: the per-unit clock reads are measurable next to a
	// warm store probe (same rationale as core.Options.TimeCascade).
	TimeStages bool
}

// NewDriver returns a driver over a fresh analyzer configured by opts.
// workers sizes both parallel phases of a Run — the load/fingerprint/probe
// front end and the analyzer batch over the misses (1 strictly serial on
// the calling goroutine, <= 0 GOMAXPROCS) — with the same
// byte-identical-results guarantee as core.AnalyzeAll.
func NewDriver(opts core.Options, workers int) *Driver {
	return &Driver{analyzer: core.New(opts), workers: workers, sig: Signature(opts)}
}

// NewDriverOver wraps an existing analyzer, sharing its memo tables and
// counters — the adapter that lets per-program front ends (the suite
// runner, depanalyze's multi-unit mode) keep one compiler-session analyzer
// while routing scheduling through the corpus driver.
func NewDriverOver(a *core.Analyzer, workers int) *Driver {
	return &Driver{analyzer: a, workers: workers, sig: Signature(a.Options())}
}

// Analyzer exposes the underlying analyzer (memo persistence, stats,
// distribution reports).
func (d *Driver) Analyzer() *core.Analyzer { return d.analyzer }

// SetStore attaches a persistent verdict store. The store must carry the
// driver's own options signature — NewStore(sameOptions) or LoadStore with
// the same options guarantees that.
func (d *Driver) SetStore(s *Store) error {
	if s != nil && s.sig != d.sig {
		return fmt.Errorf("corpus: store signature %q does not match driver configuration %q", s.sig, d.sig)
	}
	d.store = s
	return nil
}

// Store returns the attached store (nil if none).
func (d *Driver) Store() *Store { return d.store }

// slot is one unit's front-end product.
type slot struct {
	fp     memo.Fingerprint
	stored *StoredUnit // store hit, if any
	off    int         // offset into the miss batch when stored == nil
}

// Run analyzes the corpus incrementally and emits one UnitResult per unit
// in corpus order. With a store attached, units whose fingerprint is
// already present are served from it; the rest are solved through the
// analyzer and stored back (unless a verdict tripped on the clock or on
// cancellation). emit may be nil — the run then updates the store and
// Stats without materializing store-served results at all; a non-nil emit
// error aborts the run. Stats is reset at the start of each run.
//
// The three phases (see Driver) meet at plain joins, which is what keeps
// the output independent of the worker count:
//
//   - Unit order is fixed before any loading starts (sorted walk, path
//     list, or the in-memory slice), and front-end workers fill a
//     pre-sized slot array, so order never depends on scheduling.
//   - The miss batch is built by a corpus-order walk of the slots, so the
//     analyzer sees the same candidates in the same order at every worker
//     count.
//   - Every store lookup finishes before any Put: the front end only reads
//     the store, and Puts happen in the emit phase. A unit can therefore
//     never hit an entry written earlier in the same run.
//   - Emit runs on the calling goroutine, in corpus order: the caller's
//     emit callback needs no locking.
//   - A load failure returns the lowest-index failing unit's error — the
//     first non-nil entry of the per-unit error slice — before anything is
//     emitted or stored, after every helper has been joined.
func (d *Driver) Run(ctx context.Context, src Source, emit func(UnitResult) error) error {
	start := time.Now()
	d.Stats = Stats{}
	err := d.run(ctx, src, emit)
	d.Stats.Stage.Wall = time.Since(start)
	return err
}

func (d *Driver) run(ctx context.Context, src Source, emit func(UnitResult) error) error {
	workers := d.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	// Enumerate the corpus. Lister items are loaded by the front end;
	// other sources are materialized here (Mem is a no-op).
	var (
		items []Item
		units []Unit
		errs  []error
	)
	if l, ok := src.(Lister); ok {
		var err error
		if items, err = l.List(); err != nil {
			return err
		}
		units = make([]Unit, len(items))
		errs = make([]error, len(items))
	} else {
		t0 := time.Now()
		var err error
		if units, err = src.Units(); err != nil {
			return err
		}
		if d.TimeStages {
			d.Stats.Stage.Load = time.Since(t0)
		}
	}
	n := len(units)
	d.Stats.Units = n
	slots := make([]slot, n)

	// Phase 1, front end: load, fingerprint and probe every unit.
	d.frontEnd(units, items, errs, slots, workers)
	for _, err := range errs {
		if err != nil {
			return err
		}
	}

	// Phase 2, solve: one analyzer batch over the misses, in corpus order.
	var batch []refs.Candidate
	for i := range slots {
		u := &units[i]
		if slots[i].stored != nil {
			d.Stats.UnitsReused++
			d.Stats.PairsServed += len(u.Cands)
			continue
		}
		slots[i].off = len(batch)
		batch = append(batch, u.Cands...)
		d.Stats.UnitsSolved++
		d.Stats.PairsSolved += len(u.Cands)
	}
	var solved []core.Result
	if len(batch) > 0 {
		t0 := time.Now()
		var err error
		solved, err = d.analyzer.AnalyzeAllContext(ctx, batch, workers)
		if d.TimeStages {
			d.Stats.Stage.Solve = time.Since(t0)
		}
		if err != nil {
			return err
		}
	}

	// Phase 3, emit: serve hits, store solved units, emit, in corpus order.
	var t0 time.Time
	if d.TimeStages {
		t0 = time.Now()
	}
	for i := range units {
		u := &units[i]
		s := &slots[i]
		ur := UnitResult{Name: u.Name, Fingerprint: s.fp, Warnings: u.Warnings}
		if s.stored != nil {
			if emit == nil {
				// No consumer: a stats-only run (e.g. "did anything
				// change?") pays nothing to rebuild served results.
				continue
			}
			ur.Reused = true
			ur.Results = Serve(u.Cands, s.stored)
			ur.Cost = s.stored.Cost
		} else {
			ur.Results = solved[s.off : s.off+len(u.Cands)]
			ur.Cost = Summarize(ur.Results)
			if d.store != nil && Storable(ur.Results) {
				d.store.Put(s.fp, ToStored(u.Name, ur.Results))
			}
		}
		if emit != nil {
			if err := emit(ur); err != nil {
				return err
			}
		}
	}
	if d.TimeStages {
		d.Stats.Stage.Emit = time.Since(t0)
	}
	return nil
}

// frontEnd fills slots[i] with unit i's fingerprint and store hit, loading
// units[i] from items[i] first when items is non-nil (a load failure goes
// to errs[i] instead). The calling goroutine claims blocks of units
// alongside workers-1 helpers and joins them before returning, so at
// workers == 1 it runs the loop alone. Blocks are sized like
// core.AnalyzeAllContext's chunks: several claims per worker, one atomic
// add per block.
func (d *Driver) frontEnd(units []Unit, items []Item, errs []error, slots []slot, workers int) {
	n := len(units)
	if n == 0 {
		return
	}
	workers = min(workers, n)
	block := min(max(n/(workers*8), 1), 64)
	var (
		next atomic.Int64
		mu   sync.Mutex // guards d.Stats.Stage sums
		wg   sync.WaitGroup
	)
	work := func(f *Fingerprinter) {
		var load, fingerprint, probe time.Duration
		timed := d.TimeStages
		for {
			lo := int(next.Add(int64(block))) - block
			if lo >= n {
				break
			}
			for i := lo; i < min(lo+block, n); i++ {
				u, s := &units[i], &slots[i]
				var t0 time.Time
				if timed {
					t0 = time.Now()
				}
				if items != nil {
					*u, errs[i] = items[i].Load()
					if timed {
						t1 := time.Now()
						load += t1.Sub(t0)
						t0 = t1
					}
					if errs[i] != nil {
						continue
					}
				}
				// The fingerprint is part of the unit's result surface even
				// without a store (UnitResult.Fingerprint). It is cached on
				// the Unit, so a long-lived in-memory corpus pays the digest
				// walk once per unit across runs; workers touch disjoint
				// units, so the in-place caching is race-free.
				s.fp = u.Fingerprint(f)
				if timed {
					t1 := time.Now()
					fingerprint += t1.Sub(t0)
					t0 = t1
				}
				if d.store != nil {
					// The pair-count cross-check guards the (astronomically
					// unlikely) fingerprint collision and any hand-edited
					// store.
					if su, ok := d.store.Lookup(s.fp); ok && len(su.Results) == len(u.Cands) {
						s.stored = su
					}
					if timed {
						probe += time.Since(t0)
					}
				}
			}
		}
		if timed {
			mu.Lock()
			d.Stats.Stage.Load += load
			d.Stats.Stage.Fingerprint += fingerprint
			d.Stats.Stage.Probe += probe
			mu.Unlock()
		}
	}
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var f Fingerprinter // per-helper scratch (hasher chain)
			work(&f)
		}()
	}
	work(&d.fp)
	wg.Wait()
}

// RunAll is Run collecting every UnitResult.
func (d *Driver) RunAll(ctx context.Context, src Source) ([]UnitResult, error) {
	var out []UnitResult
	err := d.Run(ctx, src, func(ur UnitResult) error {
		out = append(out, ur)
		return nil
	})
	return out, err
}

// AppendCanonical appends the canonical rendering of a unit result: the
// byte-identity surface of incremental analysis. It covers everything the
// store persists — outcome, exactness, trip, direction vectors, distances,
// per pair in order — and deliberately excludes provenance (DecidedBy, and
// Kind, which names the deciding test): provenance depends on session
// history, so a warm run legitimately reports ByCache where a cold run
// reports ByTest. Cold and warm runs over the same corpus produce identical
// canonical bytes at any worker count.
func AppendCanonical(dst []byte, ur *UnitResult) []byte {
	dst = append(dst, ur.Name...)
	dst = append(dst, '\n')
	for i := range ur.Results {
		r := &ur.Results[i]
		dst = strconv.AppendInt(dst, int64(i), 10)
		dst = append(dst, ' ')
		dst = append(dst, r.Outcome.String()...)
		if r.Exact {
			dst = append(dst, " exact"...)
		}
		if r.Trip != 0 {
			dst = append(dst, " trip="...)
			dst = strconv.AppendInt(dst, int64(r.Trip), 10)
		}
		for _, v := range r.Vectors {
			dst = append(dst, ' ')
			dst = append(dst, v.String()...)
		}
		for _, dist := range r.Distances {
			dst = append(dst, " d"...)
			dst = strconv.AppendInt(dst, int64(dist.Level), 10)
			dst = append(dst, '=')
			dst = strconv.AppendInt(dst, dist.Value, 10)
		}
		dst = append(dst, '\n')
	}
	return dst
}

// Canonical runs the corpus and returns the concatenated canonical
// rendering of every unit — the convenient form of the byte-identity
// guarantee for tests and tools.
func (d *Driver) Canonical(ctx context.Context, src Source) ([]byte, error) {
	var buf []byte
	err := d.Run(ctx, src, func(ur UnitResult) error {
		buf = AppendCanonical(buf, &ur)
		return nil
	})
	return buf, err
}
