package main

// The traced runs. Each composes the program's public layer calls in
// process, the way the programs compose them, and records a span around
// every call: depanalyze's os.ReadFile → lang.Parse → opt.Lower →
// refs.Pairs (what corpus.FromSource does), corpus.LoadStore,
// corpus.Driver.Run with stage and cascade timing on, wire encoding and
// Store.Save; depserve's request decode, the same front end, a long-lived
// driver with memo and store, and the response encode. The composition runs
// with one worker, so span times partition its wall time and each span's
// allocation count is exact. The same composition also runs untraced; the
// difference is the tracing overhead. serve_mix adds client-side spans and
// /v1/statsz deltas from a spawned depserve.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"exactdep/internal/core"
	"exactdep/internal/corpus"
	"exactdep/internal/dtest"
	"exactdep/internal/lang"
	"exactdep/internal/opt"
	"exactdep/internal/refs"
	"exactdep/internal/stats"
	"exactdep/internal/wire"
)

// span is one timed call. Parent is the index of the enclosing span (-1 at
// the top); spans of one operation (a CLI run or a request) share Op.
type span struct {
	Name       string        `json:"name"`
	Start, End time.Duration `json:"-"`
	StartUS    int64         `json:"start_us"`
	EndUS      int64         `json:"end_us"`
	Parent     int           `json:"parent"`
	Op         int           `json:"op"`
	Allocs     uint64        `json:"allocs,omitempty"`
}

// tracer records spans in memory. A nil tracer records nothing, which is
// how the same composition runs untraced.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int
	op    int
	ms    runtime.MemStats
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// call runs f inside a span named name. With allocs set, the span records
// the heap allocations f made.
func (t *tracer) call(name string, allocs bool, f func()) {
	if t == nil {
		f()
		return
	}
	parent := -1
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1]
	}
	var m0 uint64
	if allocs {
		runtime.ReadMemStats(&t.ms)
		m0 = t.ms.Mallocs
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.t0), Parent: parent, Op: t.op})
	t.stack = append(t.stack, id)
	f()
	t.stack = t.stack[:len(t.stack)-1]
	s := &t.spans[id]
	s.End = time.Since(t.t0)
	if allocs {
		runtime.ReadMemStats(&t.ms)
		s.Allocs = t.ms.Mallocs - m0
	}
}

// sum returns the total duration and allocations of spans named name.
func (t *tracer) sum(name string) (time.Duration, uint64) {
	var d time.Duration
	var a uint64
	for _, s := range t.spans {
		if s.Name == name {
			d += s.End - s.Start
			a += s.Allocs
		}
	}
	return d, a
}

// write saves the spans as JSON.
func (t *tracer) write(path string) error {
	for i := range t.spans {
		t.spans[i].StartUS = t.spans[i].Start.Microseconds()
		t.spans[i].EndUS = t.spans[i].End.Microseconds()
	}
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// layers accumulates per-layer counts outside spans.
type layers struct {
	sites, sitePairs, cands int
	stage                   corpus.StageTimes
	units, reused, solved   int
	encodedBytes            int
	storeBytes              int64
}

// frontEnd parses, lowers and enumerates one source under spans, the
// composition corpus.FromSource performs.
func (t *tracer) frontEnd(name, src string, l *layers) (corpus.Unit, error) {
	var prog *lang.Program
	var err error
	t.call("lang.parse", true, func() { prog, err = lang.Parse(src) })
	if err != nil {
		return corpus.Unit{}, fmt.Errorf("%s: %w", name, err)
	}
	var u corpus.Unit
	t.call("opt.lower", true, func() {
		lu := opt.Lower(prog)
		u = corpus.Unit{Name: name, Warnings: lu.Warnings}
		l.sites += len(lu.Sites)
		l.sitePairs += len(lu.Sites) * (len(lu.Sites) + 1) / 2
		t.call("refs.pairs", false, func() { u.Cands = refs.Pairs(lu) })
	})
	l.cands += len(u.Cands)
	return u, nil
}

// tracedDir is the depanalyze corpus source over a directory with the
// front end under spans.
type tracedDir struct {
	t     *tracer
	dir   string
	files []*srcFile
	l     *layers
}

func (d *tracedDir) Units() ([]corpus.Unit, error) {
	units := make([]corpus.Unit, 0, len(d.files))
	for _, f := range d.files {
		var b []byte
		var err error
		d.t.call("os.readfile", false, func() { b, err = os.ReadFile(filepath.Join(d.dir, f.Name)) })
		if err != nil {
			return nil, err
		}
		u, err := d.t.frontEnd(f.Name, string(b), d.l)
		if err != nil {
			return nil, err
		}
		units = append(units, u)
	}
	return units, nil
}

// cliOptions are the analysis options depanalyze's flags select.
func cliOptions(memo bool) core.Options {
	return core.Options{DirectionVectors: true, PruneUnused: true, PruneDistance: true,
		Memoize: memo, ImprovedMemo: memo, Cascade: "full", TimeCascade: true}
}

// cliRun is one depanalyze run in process: optional store load, driver
// run, wire encode, optional store save. It returns the encoded document.
func cliRun(t *tracer, dir string, files []*srcFile, storePath string, l *layers) (*corpus.Driver, []byte, error) {
	opts := cliOptions(false)
	d := corpus.NewDriver(opts, 1)
	d.TimeStages = true
	if storePath != "" {
		var st *corpus.Store
		var err error
		t.call("corpus.store.load", false, func() {
			var f *os.File
			switch f, err = os.Open(storePath); {
			case err == nil:
				st, err = corpus.LoadStore(f, opts)
				f.Close()
			case os.IsNotExist(err): // a cold run, as depanalyze starts one
				st, err = corpus.NewStore(opts), nil
			}
		})
		if err != nil {
			return nil, nil, err
		}
		if err := d.SetStore(st); err != nil {
			return nil, nil, err
		}
	}
	var urs []corpus.UnitResult
	var err error
	src := &tracedDir{t: t, dir: dir, files: files, l: l}
	t.call("corpus.driver.run", false, func() {
		err = d.Run(context.Background(), src, func(ur corpus.UnitResult) error {
			urs = append(urs, ur)
			return nil
		})
	})
	if err != nil {
		return nil, nil, err
	}
	addStages(l, d.Stats)
	var out bytes.Buffer
	t.call("wire.encode", false, func() { err = encodeResponse(&out, urs, d.Stats, d.Analyzer().Stats) })
	if err != nil {
		return nil, nil, err
	}
	l.encodedBytes += out.Len()
	if storePath != "" {
		t.call("corpus.store.save", false, func() {
			var f *os.File
			if f, err = os.Create(storePath); err == nil {
				err = d.Store().Save(f)
				if cerr := f.Close(); err == nil {
					err = cerr
				}
			}
		})
		if err != nil {
			return nil, nil, err
		}
		if fi, err := os.Stat(storePath); err == nil {
			l.storeBytes = fi.Size()
		}
	}
	return d, out.Bytes(), nil
}

func addStages(l *layers, s corpus.Stats) {
	l.stage.Fingerprint += s.Stage.Fingerprint
	l.stage.Probe += s.Stage.Probe
	l.stage.Solve += s.Stage.Solve
	l.stage.Emit += s.Stage.Emit
	l.units += s.Units
	l.reused += s.UnitsReused
	l.solved += s.UnitsSolved
}

// encodeResponse writes the wire document depanalyze -json prints.
func encodeResponse(w *bytes.Buffer, urs []corpus.UnitResult, cs corpus.Stats, c stats.Counters) error {
	resp := &wire.AnalyzeResponse{
		SchemaVersion: wire.SchemaVersion,
		BudgetClass:   "exhaustive",
		Units:         make([]wire.UnitVerdicts, len(urs)),
		Stats:         wire.FromCorpusStats(cs),
		Counters:      wire.FromCounters(c),
	}
	for i := range urs {
		resp.Units[i] = wire.FromUnitResult(&urs[i])
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	return enc.Encode(resp)
}

// layerMetrics turns a traced composition into per-layer metrics.
func layerMetrics(t *tracer, l *layers, s stats.Counters, memoEntries int, total time.Duration, rt0, rt1 *runtime.MemStats) map[string]float64 {
	m := map[string]float64{}
	dur := func(name string) float64 { d, _ := t.sum(name); return ms(d) }
	allocs := func(name string) float64 { _, n := t.sum(name); return float64(n) }
	m["lang.parse.ms"] = dur("lang.parse")
	m["lang.parse.allocs"] = allocs("lang.parse")
	// opt.lower's span encloses refs.pairs; report its self time.
	m["opt.lower.ms"] = dur("opt.lower") - dur("refs.pairs")
	m["opt.lower.allocs"] = allocs("opt.lower")
	m["opt.lower.sites"] = float64(l.sites)
	m["refs.pairs.ms"] = dur("refs.pairs")
	m["refs.pairs.cands"] = float64(l.cands)
	m["refs.pairs.site_pairs"] = float64(l.sitePairs)
	m["refs.pairs.yield"] = frac(l.cands, l.sitePairs)
	m["corpus.fingerprint.ms"] = ms(l.stage.Fingerprint)
	m["corpus.probe.ms"] = ms(l.stage.Probe)
	m["corpus.emit.ms"] = ms(l.stage.Emit)
	m["corpus.store.hit_frac"] = frac(l.reused, l.units)
	m["corpus.units_solved"] = float64(l.solved)
	m["corpus.store.load.ms"] = dur("corpus.store.load")
	m["corpus.store.save.ms"] = dur("corpus.store.save")
	m["corpus.store.mb"] = float64(l.storeBytes) / (1 << 20)
	m["core.solve.ms"] = ms(l.stage.Solve)

	m["core.pairs"] = float64(s.Pairs)
	m["memo.full_hit_frac"] = frac(s.FullHits, s.FullLookups)
	m["memo.l1_hit_frac"] = frac(s.L1Hits, s.L1Lookups)
	m["memo.l2_hit_frac"] = frac(s.L2Hits, s.L2Lookups)
	m["memo.inflight_adopts"] = float64(s.InflightAdopts)
	m["memo.dir_hit_frac"] = frac(s.DirHits, s.DirLookups)
	m["memo.entries"] = float64(memoEntries)
	var stageNs int64
	for _, st := range []struct {
		name string
		kind dtest.Kind
	}{{"svpc", dtest.KindSVPC}, {"acyclic", dtest.KindAcyclic}, {"residue", dtest.KindLoopResidue}, {"fm", dtest.KindFourierMotzkin}} {
		m["dtest."+st.name+".consulted"] = float64(s.StageConsulted[st.kind])
		m["dtest."+st.name+".decided"] = float64(s.StageDecided[st.kind])
		m["dtest."+st.name+".ms"] = float64(s.StageTimeNs[st.kind]) / 1e6
		stageNs += s.StageTimeNs[st.kind]
	}
	m["dtest.constant"] = float64(s.Constant)
	m["dtest.gcd_independent"] = float64(s.GCDIndependent)
	m["dtest.trips"] = float64(s.TotalBudgetTrips())
	m["dtest.fm.deduped"] = float64(s.FMDeduped)
	dirTests := 0
	for _, n := range s.DirTests {
		dirTests += n
	}
	m["depvec.dir_tests"] = float64(dirTests)
	m["depvec.vectors"] = float64(s.Vectors)
	m["depvec.trail_pushes"] = float64(s.TrailPushes)
	m["wire.encode.ms"] = dur("wire.encode")
	m["wire.encode.mb"] = float64(l.encodedBytes) / (1 << 20)
	m["wire.decode.ms"] = dur("wire.decode")

	m["runtime.gc.cycles"] = float64(rt1.NumGC - rt0.NumGC)
	m["runtime.gc.pause_ms"] = float64(rt1.PauseTotalNs-rt0.PauseTotalNs) / 1e6
	m["runtime.alloc_mb"] = float64(rt1.TotalAlloc-rt0.TotalAlloc) / (1 << 20)

	m["trace.total_ms"] = ms(total)
	front := m["lang.parse.ms"] + m["opt.lower.ms"] + m["refs.pairs.ms"]
	m["share.lang_opt_refs"] = front / ms(total)
	m["share.dtest"] = float64(stageNs) / 1e6 / ms(total)
	m["share.core_solve"] = m["core.solve.ms"] / ms(total)
	return m
}

// tracedResult finishes a traced run: the overhead against the untraced
// composition, every per-layer metric (zero where the workload does not use
// the layer), and the spans written out.
func (b *bench) tracedResult(name string, t *tracer, m map[string]float64, untracedMS float64, correct bool, attempted int) (*result, error) {
	m["trace.untraced_ms"] = untracedMS
	m["trace.overhead_frac"] = m["trace.total_ms"]/untracedMS - 1
	res := &result{Correct: correct, Attempted: attempted, Metrics: map[string]metric{}}
	for _, pl := range perLayer {
		res.Metrics[pl.name] = metric{m[pl.name], pl.unit}
		delete(m, pl.name)
	}
	if len(m) > 0 {
		return nil, fmt.Errorf("traced run produced undeclared metrics %v", sortedKeys(m))
	}
	if !correct {
		res.Failed = attempted
	}
	fmt.Fprintf(os.Stderr, "perfbench: traced %.0f ms (untraced %.0f ms): lang+opt+refs %.1f%%, dtest %.1f%%, core solve %.1f%%\n",
		res.Metrics["trace.total_ms"].Value, untracedMS, 100*res.Metrics["share.lang_opt_refs"].Value,
		100*res.Metrics["share.dtest"].Value, 100*res.Metrics["share.core_solve"].Value)
	return res, t.write(filepath.Join(b.work, "spans-"+name+".json"))
}

// perLayer lists every per-layer metric with its unit, in BENCHMARK.json
// order.
var perLayer = []struct{ name, unit string }{
	{"lang.parse.ms", "ms"}, {"lang.parse.allocs", "count"},
	{"opt.lower.ms", "ms"}, {"opt.lower.allocs", "count"}, {"opt.lower.sites", "count"},
	{"refs.pairs.ms", "ms"}, {"refs.pairs.cands", "count"}, {"refs.pairs.site_pairs", "count"}, {"refs.pairs.yield", "fraction"},
	{"corpus.fingerprint.ms", "ms"}, {"corpus.probe.ms", "ms"}, {"corpus.emit.ms", "ms"},
	{"corpus.store.hit_frac", "fraction"}, {"corpus.units_solved", "count"},
	{"corpus.store.load.ms", "ms"}, {"corpus.store.save.ms", "ms"}, {"corpus.store.mb", "MB"},
	{"core.solve.ms", "ms"}, {"core.pairs", "count"},
	{"memo.full_hit_frac", "fraction"}, {"memo.l1_hit_frac", "fraction"}, {"memo.l2_hit_frac", "fraction"},
	{"memo.inflight_adopts", "count"}, {"memo.dir_hit_frac", "fraction"}, {"memo.entries", "count"},
	{"dtest.svpc.consulted", "count"}, {"dtest.svpc.decided", "count"}, {"dtest.svpc.ms", "ms"},
	{"dtest.acyclic.consulted", "count"}, {"dtest.acyclic.decided", "count"}, {"dtest.acyclic.ms", "ms"},
	{"dtest.residue.consulted", "count"}, {"dtest.residue.decided", "count"}, {"dtest.residue.ms", "ms"},
	{"dtest.fm.consulted", "count"}, {"dtest.fm.decided", "count"}, {"dtest.fm.ms", "ms"},
	{"dtest.constant", "count"}, {"dtest.gcd_independent", "count"}, {"dtest.trips", "count"}, {"dtest.fm.deduped", "count"},
	{"depvec.dir_tests", "count"}, {"depvec.vectors", "count"}, {"depvec.trail_pushes", "count"},
	{"wire.encode.ms", "ms"}, {"wire.encode.mb", "MB"}, {"wire.decode.ms", "ms"},
	{"server.batches", "count"}, {"server.coalesced_jobs", "count"}, {"server.fingerprint_deduped", "count"},
	{"server.cross_request_memo_hits", "count"}, {"server.degraded", "count"}, {"server.shed", "count"},
	{"runtime.gc.cycles", "count"}, {"runtime.gc.pause_ms", "ms"}, {"runtime.alloc_mb", "MB"},
	{"client.late_p99_ms", "ms"}, {"serve.lat_p99_ms", "ms"}, {"serve.max_rps", "1/s"},
	{"trace.total_ms", "ms"}, {"trace.untraced_ms", "ms"}, {"trace.overhead_frac", "fraction"},
	{"share.lang_opt_refs", "fraction"}, {"share.dtest", "fraction"}, {"share.core_solve", "fraction"},
}

// tracedCLI runs the CLI composition untraced and traced and checks the
// traced output against the oracle. prepare restores the inputs before
// each run.
func (b *bench) tracedCLI(name, dir string, files []*srcFile, store string, prepare func() error) (*result, error) {
	// A warm-up run, then untraced and traced runs alternated tracePairs
	// times: the host's speed swings over seconds, so one pair would make
	// the overhead mostly noise. The traced run with the median total
	// supplies the per-layer metrics.
	if err := prepare(); err != nil {
		return nil, err
	}
	if _, _, err := cliRun(nil, dir, files, store, &layers{}); err != nil {
		return nil, err
	}
	var untraced []float64
	var passes []tracedPass
	for i := 0; i < tracePairs; i++ {
		if err := prepare(); err != nil {
			return nil, err
		}
		start := time.Now()
		if _, _, err := cliRun(nil, dir, files, store, &layers{}); err != nil {
			return nil, err
		}
		untraced = append(untraced, ms(time.Since(start)))
		if err := prepare(); err != nil {
			return nil, err
		}
		p, err := tracedCLIPass(dir, files, store)
		if err != nil {
			return nil, err
		}
		passes = append(passes, p)
	}
	sort.Slice(passes, func(i, j int) bool { return passes[i].total < passes[j].total })
	p := passes[len(passes)/2]
	cr := newOracle().check(p.resp, files)
	for _, m := range cr.Mismatches {
		fmt.Fprintf(os.Stderr, "perfbench: mismatch: %s\n", m)
	}
	return b.tracedResult(name, p.t, p.m, median(untraced), cr.Exact == cr.Pairs, 1)
}

// tracePairs is how many untraced and traced runs a traced CLI run
// alternates.
const tracePairs = 3

// tracedPass is one traced composition run: its spans, per-layer metrics,
// and the output to check (the decoded document of a CLI run, the encoded
// responses of a serve replay).
type tracedPass struct {
	t     *tracer
	m     map[string]float64
	total time.Duration
	resp  *wireResponse
	outs  [][]byte
}

func tracedCLIPass(dir string, files []*srcFile, store string) (tracedPass, error) {
	runtime.GC()
	t := newTracer()
	l := &layers{}
	var rt0, rt1 runtime.MemStats
	runtime.ReadMemStats(&rt0)
	start := time.Now()
	d, out, err := cliRun(t, dir, files, store, l)
	if err != nil {
		return tracedPass{}, err
	}
	var resp *wireResponse
	t.call("wire.decode", false, func() { resp, err = decodeResponse(bytes.NewReader(out)) })
	total := time.Since(start)
	runtime.ReadMemStats(&rt1)
	if err != nil {
		return tracedPass{}, err
	}
	m := layerMetrics(t, l, d.Analyzer().Stats, d.Analyzer().MemoStats().FullEntries, total, &rt0, &rt1)
	return tracedPass{t: t, m: m, total: total, resp: resp}, nil
}

func (b *bench) cliSolveTraced() (*result, error) {
	dir := filepath.Join(b.work, "solve")
	files, err := b.solveFiles()
	if err != nil {
		return nil, err
	}
	if err := writeTree(dir, files); err != nil {
		return nil, err
	}
	b.prov["flags"] = map[string]any{"composition": "depanalyze -json, no store", "workers": 1, "memo": false}
	return b.tracedCLI("cli_solve", dir, filePtrs(files), "", func() error { return nil })
}

func (b *bench) cliEditTraced() (*result, error) {
	dir := filepath.Join(b.work, "edit")
	store := filepath.Join(b.work, "edit.store")
	pristine := filepath.Join(b.work, "edit.store.pristine")
	files, err := b.editFiles()
	if err != nil {
		return nil, err
	}
	if err := writeTree(dir, files); err != nil {
		return nil, err
	}
	// Fill the store with a cold in-process run, as set-up does with
	// depanalyze.
	if err := os.Remove(store); err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	if _, _, err := cliRun(nil, dir, filePtrs(files), store, &layers{}); err != nil {
		return nil, err
	}
	if err := copyFile(pristine, store); err != nil {
		return nil, err
	}
	st := &editState{dir: dir, pristine: files, current: append([]srcFile(nil), files...)}
	set := seededEdits(b.seed, files, editSets, editsPerSample)[0]
	b.prov["flags"] = map[string]any{"composition": "depanalyze -json -store", "workers": 1, "memo": false,
		"edits_per_sample": editsPerSample}
	return b.tracedCLI("cli_edit", dir, filePtrs(st.current), store, func() error {
		if err := copyFile(store, pristine); err != nil {
			return err
		}
		return st.apply(set)
	})
}
