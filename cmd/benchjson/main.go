// Command benchjson emits a machine-readable benchmark baseline (make
// bench-json → BENCH_PR10.json): ns/op, bytes/op and allocs/op for the key
// encoder, the lock-free sharded lookup, the memo-hot AnalyzeAll pass, the
// cold very-large-corpus AnalyzeAll pass at several worker counts, the
// incremental corpus driver (cold store fill vs a 1%-dirty warm re-run over
// the fingerprint → verdict store), the three-phase corpus path (cold/warm
// from both in-memory and Dir sources at workers 1/2/4/8, with a per-stage
// timing profile), the budgeted FM-hard degradation pass, and the
// direction-vector refinement strategies (clone-per-node reference vs the
// clone-free trail walk, cold and memoized), and the depserve request
// models (fresh driver per request vs one persistent warm analyzer with a
// per-request latency profile), plus per-program memo hit
// rates over the PERFECT-style suite, the deterministic budget-trip
// profile, and the refinement/FM counter profile. Every file embeds host
// metadata (GOMAXPROCS, CPU count, GOOS/GOARCH, go version) so scaling
// numbers carry their hardware context — cmd/benchcmp warns when two
// baselines come from hosts with different CPU counts. Future PRs diff
// their own run against the committed baseline (cmd/benchcmp, make
// benchcmp) to keep a perf trajectory; the -only flag restricts a run to
// benchmarks whose name contains the given substring (skipping the profile
// sections), which is how the perf gate (make benchcmp-gate) re-measures
// just its gated benchmarks.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"exactdep/internal/core"
	corpuspkg "exactdep/internal/corpus"
	"exactdep/internal/depvec"
	"exactdep/internal/dtest"
	"exactdep/internal/ir"
	"exactdep/internal/memo"
	"exactdep/internal/refs"
	"exactdep/internal/system"
	"exactdep/internal/workload"
)

// largeCorpusNests sizes the very-large-corpus records (matching
// BenchmarkAnalyzeAllLargeCorpus).
const largeCorpusNests = 4096

type benchRecord struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// hostInfo is the hardware/runtime context of one baseline: scaling
// records (workers=N series) are meaningless without the CPU count, so the
// "this was a 1-vCPU host" caveat travels with the numbers.
type hostInfo struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
}

// stageNs is one corpus run's per-stage pipeline timing (see
// corpus.StageTimes for the semantics; front-end stages are summed across
// workers).
type stageNs struct {
	LoadNs        int64 `json:"load_ns"`
	FingerprintNs int64 `json:"fingerprint_ns"`
	ProbeNs       int64 `json:"probe_ns"`
	SolveNs       int64 `json:"solve_ns"`
	EmitNs        int64 `json:"emit_ns"`
	WallNs        int64 `json:"wall_ns"`
}

// pipelineProfile is the front-end-vs-solver breakdown of one cold and one
// warm Dir-backed corpus run with stage timing enabled.
type pipelineProfile struct {
	Workers int     `json:"workers"`
	Source  string  `json:"source"`
	Cold    stageNs `json:"cold"`
	Warm    stageNs `json:"warm"`
}

// servePathLatency is the per-request latency distribution of one serve
// model over a burst of suite requests.
type servePathLatency struct {
	Requests int     `json:"requests"`
	P50Ms    float64 `json:"p50_ms"`
	P99Ms    float64 `json:"p99_ms"`
}

// serveBatchProfile contrasts the two depserve request models over the
// same burst: a fresh storeless driver per request (the pre-warm-tier
// model) against one persistent warm analyzer whose memo tables survive
// between requests (the executor model). The gap is the cross-request
// memo dividend.
type serveBatchProfile struct {
	Workers int              `json:"workers"`
	Units   int              `json:"units"`
	PerJob  servePathLatency `json:"perjob"`
	Warm    servePathLatency `json:"warm"`
}

type doc struct {
	Schema     string        `json:"schema"`
	GoVersion  string        `json:"go_version"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	Host       hostInfo      `json:"host"`
	Benchmarks []benchRecord `json:"benchmarks"`
	// Pipeline is the per-stage timing split of the corpus driver
	// (informational: wall times, not gated).
	Pipeline pipelineProfile `json:"pipeline"`
	// ServeBatch is the per-request latency split of the depserve request
	// models (informational: wall times, not gated — the gated twin is the
	// serve_batch_warm benchmark record).
	ServeBatch serveBatchProfile      `json:"serve_batch"`
	MemoSuite  []workload.MemoSummary `json:"memo_suite"`
	// Budget is the degradation profile of the FM-hard adversarial suite
	// under a starvation count budget — the budget layer's effectiveness
	// baseline (trip counts are deterministic, so diffs are meaningful).
	Budget budgetProfile `json:"budget"`
	// Refinement is the direction-vector refinement counter profile of one
	// production-configuration pass over the suite: memo traffic, trail
	// accounting, and FM redundancy elimination (all deterministic).
	Refinement refinementProfile `json:"refinement"`
}

// refinementProfile snapshots the PR 5 counters over the suite.
type refinementProfile struct {
	DirLookups    int `json:"dir_lookups"`
	DirHits       int `json:"dir_hits"`
	UniqueDir     int `json:"unique_dir"`
	TrailPushes   int `json:"trail_pushes"`
	TrailPops     int `json:"trail_pops"`
	TrailMaxDepth int `json:"trail_max_depth"`
	FMDeduped     int `json:"fm_deduped"`
	FMTightened   int `json:"fm_tightened"`
}

// budgetProfile summarizes one budgeted pass over the FM-hard suite.
type budgetProfile struct {
	MaxFMEliminations int            `json:"max_fm_eliminations"`
	Pairs             int            `json:"pairs"`
	Exact             int            `json:"exact"`
	Maybe             int            `json:"maybe"`
	Trips             map[string]int `json:"trips"`
}

func record(name string, fn func(b *testing.B)) benchRecord {
	r := testing.Benchmark(fn)
	return benchRecord{
		Name:        name,
		Iterations:  r.N,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
	}
}

// mapMemo is a direction-keyed memo for the refinement benchmarks — valid
// because a single canonical system flows through each benchmark loop.
type mapMemo map[string]dtest.Result

func (m mapMemo) Lookup(dirs []byte) (dtest.Result, bool) {
	r, ok := m[string(dirs)]
	return r, ok
}

func (m mapMemo) Store(dirs []byte, r dtest.Result) {
	r.Witness = nil
	m[string(dirs)] = r
}

// deepNest builds the coupled FM-hard nest the refinement benchmarks walk:
// the write couples adjacent levels (a[2i+j+1] vs a[i+2j] per dimension), so
// the cheap cascade stages fail at many refinement nodes and the tree stays
// deep under every strategy.
func deepNest(depth int) (*system.TSystem, error) {
	loops := make([]ir.Loop, depth)
	idx := make([]string, depth)
	for i := range loops {
		idx[i] = fmt.Sprintf("i%d", i+1)
		loops[i] = ir.Loop{Index: idx[i], Lower: ir.NewConst(0), Upper: ir.NewConst(9)}
	}
	var subA, subB []ir.Expr
	for d := 0; d+1 < depth; d++ {
		subA = append(subA, ir.NewTerm(idx[d], 2).Add(ir.NewVar(idx[d+1])).AddConst(1))
		subB = append(subB, ir.NewVar(idx[d]).Add(ir.NewTerm(idx[d+1], 2)))
	}
	subA = append(subA, ir.NewVar(idx[depth-1]))
	subB = append(subB, ir.NewVar(idx[depth-1]))
	nest := &ir.Nest{Label: "fmhard", Loops: loops}
	a := ir.Ref{Array: "a", Subscripts: subA, Kind: ir.Write, Depth: depth}
	b := ir.Ref{Array: "a", Subscripts: subB, Kind: ir.Read, Depth: depth}
	nest.Refs = []ir.Ref{a, b}
	p, err := system.Build(nest.Pair(a, b))
	if err != nil {
		return nil, err
	}
	res, ts, err := system.Preprocess(p)
	if err != nil {
		return nil, err
	}
	if res == system.GCDIndependent {
		return nil, fmt.Errorf("deepNest(%d): unexpectedly GCD-independent", depth)
	}
	return ts, nil
}

// writeLargeCorpusDir renders the LargeCorpus as one .loop file per program
// under a fresh temp dir — the disk-backed twin of LargeCorpusUnits for the
// pipeline records, where the front end pays read + parse per run.
func writeLargeCorpusDir(nests int) (string, error) {
	dir, err := os.MkdirTemp("", "exactdep-bench-corpus-")
	if err != nil {
		return "", err
	}
	for _, s := range workload.LargeCorpus(nests) {
		path := filepath.Join(dir, s.Name+".loop")
		if err := os.WriteFile(path, []byte(workload.Source(s, false)), 0o644); err != nil {
			os.RemoveAll(dir)
			return "", err
		}
	}
	return dir, nil
}

// suiteProblems builds the unique canonical problems of the whole suite —
// the encoder benchmark's input population.
func suiteProblems() ([]*system.Problem, error) {
	var probs []*system.Problem
	for _, s := range workload.Programs() {
		cands, err := workload.Candidates(s, false)
		if err != nil {
			return nil, err
		}
		for _, c := range cands {
			if c.Class != refs.NeedsTest {
				continue
			}
			p, err := system.Build(c.Pair)
			if err != nil {
				return nil, err
			}
			probs = append(probs, p)
		}
	}
	return probs, nil
}

func suiteCandidates() ([]refs.Candidate, error) {
	var all []refs.Candidate
	for _, s := range workload.Programs() {
		cs, err := workload.Candidates(s, false)
		if err != nil {
			return nil, err
		}
		all = append(all, cs...)
	}
	return all, nil
}

func run(out, only string) error {
	probs, err := suiteProblems()
	if err != nil {
		return err
	}
	cands, err := suiteCandidates()
	if err != nil {
		return err
	}

	d := doc{
		Schema:     "exactdep-bench/v1",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Host: hostInfo{
			GoVersion:  runtime.Version(),
			GOOS:       runtime.GOOS,
			GOARCH:     runtime.GOARCH,
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			NumCPU:     runtime.NumCPU(),
		},
	}

	// match/add implement the -only filter: a benchmark runs when its name
	// contains the substring (everything runs when the filter is empty).
	match := func(name string) bool {
		return only == "" || strings.Contains(name, only)
	}
	add := func(name string, fn func(b *testing.B)) {
		if match(name) {
			d.Benchmarks = append(d.Benchmarks, record(name, fn))
		}
	}

	add("memo_encode", func(b *testing.B) {
		var e memo.Encoder
		for _, p := range probs {
			e.EncodeFull(p, true)
			e.EncodeEq(p, true)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p := probs[i%len(probs)]
			e.EncodeFull(p, true)
			e.EncodeEq(p, true)
		}
	})

	add("sharded_lookup_parallel", func(b *testing.B) {
		tbl := memo.NewShardedTable[int](0)
		var e memo.Encoder
		keys := make([]memo.Key, 0, len(probs))
		for _, p := range probs {
			keys = append(keys, e.EncodeFull(p, true).Clone())
		}
		for i, k := range keys {
			tbl.Insert(k, i)
		}
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				if _, ok := tbl.Lookup(keys[i%len(keys)]); !ok {
					b.Fatal("lost key")
				}
				i++
			}
		})
	})

	for _, w := range []int{1, 4} {
		w := w
		add(fmt.Sprintf("analyze_all_memo_hot_workers_%d", w), func(b *testing.B) {
			a := core.New(core.Options{Memoize: true, ImprovedMemo: true})
			if _, err := a.AnalyzeAll(cands, w); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := a.AnalyzeAll(cands, w); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	// Cold analysis of a very large synthetic corpus (thousands of nests):
	// the contended path — misses, batched sharded-table inserts, and
	// singleflight dedup — at several worker counts. The corpus is generated
	// only when the filter selects at least one of these records.
	corpusWorkers := []int{1, 2, 4}
	if n := runtime.GOMAXPROCS(0); n > 4 {
		corpusWorkers = append(corpusWorkers, n)
	}
	corpusWanted := false
	for _, w := range corpusWorkers {
		if match(fmt.Sprintf("analyze_all_large_corpus_workers_%d", w)) {
			corpusWanted = true
		}
	}
	if corpusWanted {
		corpus, err := workload.LargeCorpusCandidates(largeCorpusNests)
		if err != nil {
			return err
		}
		for _, w := range corpusWorkers {
			w := w
			add(fmt.Sprintf("analyze_all_large_corpus_workers_%d", w), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					a := core.New(core.Options{Memoize: true, ImprovedMemo: true})
					if _, err := a.AnalyzeAll(corpus, w); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}

	// Incremental corpus driver over the same very large corpus, split into
	// per-nest units: cold (empty store — fingerprint, solve, fill) versus a
	// 1%-dirty warm re-run where 41 mutated nests are re-solved and the rest
	// served from the store. Mirrors BenchmarkCorpusIncremental; the warm
	// ns/op is the corpus layer's headline number and is gated in
	// benchcmp-gate.
	incrWanted := false
	for _, w := range []int{1, 4} {
		if match(fmt.Sprintf("corpus_incremental_cold_workers_%d", w)) ||
			match(fmt.Sprintf("corpus_incremental_warm_1pct_workers_%d", w)) {
			incrWanted = true
		}
	}
	if incrWanted {
		incrOpts := core.Options{Memoize: true, ImprovedMemo: true}
		units, err := workload.LargeCorpusUnits(largeCorpusNests)
		if err != nil {
			return err
		}
		dirtyIdx := make([]int, 41)
		for i := range dirtyIdx {
			dirtyIdx[i] = (i*97 + 5) % len(units)
		}
		seed := corpuspkg.NewDriver(incrOpts, 1)
		if err := seed.SetStore(corpuspkg.NewStore(incrOpts)); err != nil {
			return err
		}
		if err := seed.Run(context.Background(), units, nil); err != nil {
			return err
		}
		filled := seed.Store()
		var deltaSeq int64
		for _, w := range []int{1, 4} {
			w := w
			add(fmt.Sprintf("corpus_incremental_cold_workers_%d", w), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					dr := corpuspkg.NewDriver(incrOpts, w)
					if err := dr.SetStore(corpuspkg.NewStore(incrOpts)); err != nil {
						b.Fatal(err)
					}
					if err := dr.Run(context.Background(), units, nil); err != nil {
						b.Fatal(err)
					}
				}
			})
			add(fmt.Sprintf("corpus_incremental_warm_1pct_workers_%d", w), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					deltaSeq++
					dirty := workload.MutateNests(units, dirtyIdx, deltaSeq)
					dr := corpuspkg.NewDriver(incrOpts, w)
					if err := dr.SetStore(filled); err != nil {
						b.Fatal(err)
					}
					if err := dr.Run(context.Background(), dirty, nil); err != nil {
						b.Fatal(err)
					}
					if dr.Stats.UnitsSolved != len(dirtyIdx) {
						b.Fatalf("warm run re-solved %d units, want %d", dr.Stats.UnitsSolved, len(dirtyIdx))
					}
				}
			})
		}
	}

	// Corpus driver path: cold (empty store — load, fingerprint, solve,
	// fill) and warm (filled store — the front end is the whole run) at
	// workers 1/2/4/8, from an in-memory source and from a Dir source whose
	// 32 files are re-read and re-parsed every run. The warm Dir series is
	// the headline: serial parse+fingerprint used to dominate the
	// incremental win, and the parallel front end is what moves it. On a
	// 1-CPU host (see the host section) the series charts coordination
	// overhead, not speedup.
	pipeWorkers := []int{1, 2, 4, 8}
	pipeWanted := false
	for _, src := range []string{"mem", "dir"} {
		for _, mode := range []string{"cold", "warm"} {
			for _, w := range pipeWorkers {
				if match(fmt.Sprintf("corpus_pipeline_%s_%s_workers_%d", mode, src, w)) {
					pipeWanted = true
				}
			}
		}
	}
	if pipeWanted {
		pipeOpts := core.Options{Memoize: true, ImprovedMemo: true}
		memUnits, err := workload.LargeCorpusUnits(largeCorpusNests)
		if err != nil {
			return err
		}
		dirRoot, err := writeLargeCorpusDir(largeCorpusNests)
		if err != nil {
			return err
		}
		defer os.RemoveAll(dirRoot)
		for _, sc := range []struct {
			name string
			src  corpuspkg.Source
		}{
			{"mem", memUnits},
			{"dir", corpuspkg.Dir(dirRoot)},
		} {
			sc := sc
			seed := corpuspkg.NewDriver(pipeOpts, 1)
			if err := seed.SetStore(corpuspkg.NewStore(pipeOpts)); err != nil {
				return err
			}
			if err := seed.Run(context.Background(), sc.src, nil); err != nil {
				return err
			}
			filled := seed.Store()
			for _, w := range pipeWorkers {
				w := w
				add(fmt.Sprintf("corpus_pipeline_cold_%s_workers_%d", sc.name, w), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						dr := corpuspkg.NewDriver(pipeOpts, w)
						if err := dr.SetStore(corpuspkg.NewStore(pipeOpts)); err != nil {
							b.Fatal(err)
						}
						if err := dr.Run(context.Background(), sc.src, nil); err != nil {
							b.Fatal(err)
						}
					}
				})
				add(fmt.Sprintf("corpus_pipeline_warm_%s_workers_%d", sc.name, w), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						dr := corpuspkg.NewDriver(pipeOpts, w)
						if err := dr.SetStore(filled); err != nil {
							b.Fatal(err)
						}
						if err := dr.Run(context.Background(), sc.src, nil); err != nil {
							b.Fatal(err)
						}
						if dr.Stats.UnitsSolved != 0 {
							b.Fatalf("warm run re-solved %d units", dr.Stats.UnitsSolved)
						}
					}
				})
			}
			// Per-stage timing profile from the Dir source (the one whose
			// front end pays real I/O) at GOMAXPROCS workers: one cold and
			// one warm run with stage accounting on.
			if only == "" && sc.name == "dir" {
				pw := runtime.GOMAXPROCS(0)
				timeRun := func(store *corpuspkg.Store) (stageNs, error) {
					dr := corpuspkg.NewDriver(pipeOpts, pw)
					dr.TimeStages = true
					if err := dr.SetStore(store); err != nil {
						return stageNs{}, err
					}
					if err := dr.Run(context.Background(), sc.src, nil); err != nil {
						return stageNs{}, err
					}
					st := dr.Stats.Stage
					return stageNs{
						LoadNs:        st.Load.Nanoseconds(),
						FingerprintNs: st.Fingerprint.Nanoseconds(),
						ProbeNs:       st.Probe.Nanoseconds(),
						SolveNs:       st.Solve.Nanoseconds(),
						EmitNs:        st.Emit.Nanoseconds(),
						WallNs:        st.Wall.Nanoseconds(),
					}, nil
				}
				cold, err := timeRun(corpuspkg.NewStore(pipeOpts))
				if err != nil {
					return err
				}
				warm, err := timeRun(filled)
				if err != nil {
					return err
				}
				d.Pipeline = pipelineProfile{Workers: pw, Source: "dir", Cold: cold, Warm: warm}
			}
		}
	}

	// Serve request models over a burst of same-class requests, one suite
	// program per request (the depserve executor's unit of work). perjob
	// rebuilds a fresh storeless driver per request — the pre-warm-tier
	// per-request model. warm replays the same burst on one persistent
	// driver whose memo tables survive between requests, with per-request
	// counter resets mirroring the executor. One op = one full burst, so
	// the two series divide cleanly; the warm ns/op and allocs/op are
	// gated in benchcmp-gate.
	serveWanted := false
	for _, w := range []int{1, 4} {
		if match(fmt.Sprintf("serve_batch_perjob_workers_%d", w)) ||
			match(fmt.Sprintf("serve_batch_warm_workers_%d", w)) {
			serveWanted = true
		}
	}
	if serveWanted || only == "" {
		servOpts := core.Options{DirectionVectors: true, PruneUnused: true,
			PruneDistance: true, Memoize: true, ImprovedMemo: true}
		suite, err := workload.SuiteSource(false)
		if err != nil {
			return err
		}
		for _, w := range []int{1, 4} {
			w := w
			add(fmt.Sprintf("serve_batch_perjob_workers_%d", w), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					for u := range suite {
						dr := corpuspkg.NewDriver(servOpts, w)
						if _, err := dr.RunAll(context.Background(), suite[u:u+1]); err != nil {
							b.Fatal(err)
						}
					}
				}
			})
			add(fmt.Sprintf("serve_batch_warm_workers_%d", w), func(b *testing.B) {
				wa := corpuspkg.NewDriver(servOpts, w)
				if _, err := wa.RunAll(context.Background(), suite); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for u := range suite {
						wa.Analyzer().ResetStats()
						if _, err := wa.RunAll(context.Background(), suite[u:u+1]); err != nil {
							b.Fatal(err)
						}
					}
				}
			})
		}
		// Per-request latency profile of the same two models (serial, so the
		// p50/p99 split is scheduling-free).
		if only == "" {
			measure := func(run func(u int) error) (servePathLatency, error) {
				const passes = 5
				lat := make([]float64, 0, passes*len(suite))
				for p := 0; p < passes; p++ {
					for u := range suite {
						t0 := time.Now()
						if err := run(u); err != nil {
							return servePathLatency{}, err
						}
						lat = append(lat, float64(time.Since(t0).Nanoseconds())/1e6)
					}
				}
				sort.Float64s(lat)
				return servePathLatency{
					Requests: len(lat),
					P50Ms:    lat[len(lat)/2],
					P99Ms:    lat[(len(lat)*99)/100],
				}, nil
			}
			perjob, err := measure(func(u int) error {
				dr := corpuspkg.NewDriver(servOpts, 1)
				_, err := dr.RunAll(context.Background(), suite[u:u+1])
				return err
			})
			if err != nil {
				return err
			}
			wa := corpuspkg.NewDriver(servOpts, 1)
			if _, err := wa.RunAll(context.Background(), suite); err != nil {
				return err
			}
			warm, err := measure(func(u int) error {
				wa.Analyzer().ResetStats()
				_, err := wa.RunAll(context.Background(), suite[u:u+1])
				return err
			})
			if err != nil {
				return err
			}
			d.ServeBatch = serveBatchProfile{Workers: 1, Units: len(suite), PerJob: perjob, Warm: warm}
		}
	}

	// Budgeted pass over the FM-hard adversarial suite: how fast the cascade
	// degrades under a starvation budget, and the (deterministic) trip
	// profile it produces.
	hard, err := workload.FMHardSuiteCandidates()
	if err != nil {
		return err
	}
	budOpts := core.Options{Memoize: true, ImprovedMemo: true,
		Budget: dtest.Budget{MaxFMEliminations: 2}}
	add("analyze_fmhard_budgeted", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			a := core.New(budOpts)
			if _, err := a.AnalyzeAll(hard, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	if only == "" {
		a := core.New(budOpts)
		rs, err := a.AnalyzeAll(hard, 1)
		if err != nil {
			return err
		}
		p := budgetProfile{
			MaxFMEliminations: budOpts.Budget.MaxFMEliminations,
			Pairs:             len(rs),
			Trips:             map[string]int{},
		}
		for _, r := range rs {
			if r.Exact {
				p.Exact++
			}
		}
		p.Maybe = a.Stats.Maybe
		for t := dtest.TripReason(1); int(t) < dtest.NumTripReasons; t++ {
			if n := a.Stats.TripCount(t); n > 0 {
				p.Trips[t.String()] = n
			}
		}
		d.Budget = p
	}

	// Refinement strategy comparison over a coupled deep nest that reaches
	// Fourier–Motzkin at many tree nodes: the clone-per-node reference walk
	// against the clone-free trail walk, cold and over a warm direction memo.
	for _, depth := range []int{3, 4} {
		ts, err := deepNest(depth)
		if err != nil {
			return err
		}
		opts := depvec.Options{PruneUnused: true}
		add(fmt.Sprintf("refinement_deep_reference_depth_%d", depth), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				depvec.ComputeReference(ts.Clone(), opts, nil)
			}
		})
		add(fmt.Sprintf("refinement_deep_trail_depth_%d", depth), func(b *testing.B) {
			o := opts
			o.Refiner = depvec.NewRefiner()
			o.Pipeline = dtest.DefaultConfig().NewPipeline()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				depvec.ComputeObserved(ts, o, nil)
			}
		})
		add(fmt.Sprintf("refinement_deep_trail_memo_depth_%d", depth), func(b *testing.B) {
			o := opts
			o.Refiner = depvec.NewRefiner()
			o.Pipeline = dtest.DefaultConfig().NewPipeline()
			o.Memo = mapMemo{}
			depvec.ComputeObserved(ts, o, nil) // warm the memo
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				depvec.ComputeObserved(ts, o, nil)
			}
		})
	}

	// Refinement counter profile: one serial production-configuration pass.
	if only == "" {
		a := core.New(core.Options{Memoize: true, ImprovedMemo: true, DirectionVectors: true,
			PruneUnused: true, PruneDistance: true})
		if _, err := a.AnalyzeAll(cands, 1); err != nil {
			return err
		}
		d.Refinement = refinementProfile{
			DirLookups:    a.Stats.DirLookups,
			DirHits:       a.Stats.DirHits,
			UniqueDir:     a.Stats.UniqueDir,
			TrailPushes:   a.Stats.TrailPushes,
			TrailPops:     a.Stats.TrailPops,
			TrailMaxDepth: a.Stats.TrailMaxDepth,
			FMDeduped:     a.Stats.FMDeduped,
			FMTightened:   a.Stats.FMTightened,
		}
	}

	if only == "" {
		d.MemoSuite, err = workload.SuiteMemoSummaries(workload.RunnerOptions{
			Core: core.Options{Memoize: true, ImprovedMemo: true, DirectionVectors: true,
				PruneUnused: true, PruneDistance: true},
		})
		if err != nil {
			return err
		}
	}

	buf, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if out == "-" {
		_, err = os.Stdout.Write(buf)
		return err
	}
	return os.WriteFile(out, buf, 0o644)
}

func main() {
	out := flag.String("out", "BENCH_PR10.json", "output path ('-' for stdout)")
	only := flag.String("only", "", "run only benchmarks whose name contains this substring (skips profile sections)")
	flag.Parse()
	if err := run(*out, *only); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}
