package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"exactdep/internal/corpus"
	"exactdep/internal/stats"
	"exactdep/internal/wire"
)

// replayRequests is how many requests of the schedule the in-process
// serve composition replays.
const replayRequests = 400

// serveReplay mirrors depserve's request path in process on one
// long-lived driver (memo and store on, like a warm analyzer): decode the
// request, run the front end, run the driver, encode the response. The
// pool is replayed once untraced first, as the server's warm-up.
func serveReplay(t *tracer, pool [][]byte, reqs []request, l *layers) (*corpus.Driver, stats.Counters, [][]byte, error) {
	opts := cliOptions(true)
	d := corpus.NewDriver(opts, 1)
	d.TimeStages = true
	if err := d.SetStore(corpus.NewStore(opts)); err != nil {
		return nil, stats.Counters{}, nil, err
	}
	handle := func(t *tracer, body []byte, l *layers) ([]byte, error) {
		var req wire.AnalyzeRequest
		var err error
		t.call("wire.decode", false, func() { err = json.Unmarshal(body, &req) })
		if err != nil {
			return nil, err
		}
		var units corpus.Mem
		for _, us := range req.Units {
			u, err := t.frontEnd(us.Name, us.Source, l)
			if err != nil {
				return nil, err
			}
			units = append(units, u)
		}
		var urs []corpus.UnitResult
		t.call("corpus.driver.run", false, func() {
			err = d.Run(context.Background(), units, func(ur corpus.UnitResult) error {
				urs = append(urs, ur)
				return nil
			})
		})
		if err != nil {
			return nil, err
		}
		addStages(l, d.Stats)
		var out bytes.Buffer
		t.call("wire.encode", false, func() { err = encodeResponse(&out, urs, d.Stats, stats.Counters{}) })
		l.encodedBytes += out.Len()
		return out.Bytes(), err
	}
	for _, body := range pool {
		if _, err := handle(nil, body, &layers{}); err != nil {
			return nil, stats.Counters{}, nil, err
		}
	}
	base := d.Analyzer().Stats
	outs := make([][]byte, len(reqs))
	for i, r := range reqs {
		if t != nil {
			t.op = i
		}
		out, err := handle(t, r.Body, l)
		if err != nil {
			return nil, stats.Counters{}, nil, err
		}
		outs[i] = out
	}
	return d, counterDelta(d.Analyzer().Stats, base), outs, nil
}

// checkReplay checks the replayed responses against the oracle.
func checkReplay(orc *oracle, reqs []request, outs [][]byte) checkResult {
	var cr checkResult
	for i, out := range outs {
		c, _ := orc.checkOutput(out, []*srcFile{reqs[i].File})
		cr.add(c)
	}
	return cr
}

// counterDelta returns b's counters minus a's for the fields the per-layer
// metrics read.
func counterDelta(b, a stats.Counters) stats.Counters {
	d := b
	d.Pairs -= a.Pairs
	d.Constant -= a.Constant
	d.GCDIndependent -= a.GCDIndependent
	for i := range d.Tests {
		d.DirTests[i] -= a.DirTests[i]
		d.StageConsulted[i] -= a.StageConsulted[i]
		d.StageDecided[i] -= a.StageDecided[i]
		d.StageTimeNs[i] -= a.StageTimeNs[i]
	}
	for i := range d.BudgetTrips {
		d.BudgetTrips[i] -= a.BudgetTrips[i]
	}
	d.FullLookups -= a.FullLookups
	d.FullHits -= a.FullHits
	d.L1Lookups -= a.L1Lookups
	d.L1Hits -= a.L1Hits
	d.L2Lookups -= a.L2Lookups
	d.L2Hits -= a.L2Hits
	d.InflightAdopts -= a.InflightAdopts
	d.DirLookups -= a.DirLookups
	d.DirHits -= a.DirHits
	d.FMDeduped -= a.FMDeduped
	d.Vectors -= a.Vectors
	d.TrailPushes -= a.TrailPushes
	return d
}

func (b *bench) serveMixTraced() (*result, error) {
	// The traced phase is long enough for a p99 with ten requests beyond
	// it.
	n := b.requestsFor()
	if !b.tiny {
		n = max(n, 1000)
	}
	run, _, err := b.serveSetup(n)
	if err != nil {
		return nil, err
	}
	defer run.srv.stop()
	b.prov["flags"] = map[string]any{"depserve": serveFlags(), "GOMAXPROCS": childGOMAXPROCS, "rate_per_s": serveRate,
		"connections": serveConns, "edit_share": serveEditShare,
		"composition": "depserve request path in process", "workers": 1, "memo": true}

	// Untraced and traced replays alternate, as in tracedCLI; each starts
	// from a fresh driver.
	replay := run.reqs[:min(len(run.reqs), replayRequests)]
	var untraced []float64
	var passes []tracedPass
	for i := 0; i < tracePairs; i++ {
		start := time.Now()
		if _, _, _, err := serveReplay(nil, run.bodies, replay, &layers{}); err != nil {
			return nil, err
		}
		untraced = append(untraced, ms(time.Since(start)))
		runtime.GC()
		t := newTracer()
		l := &layers{}
		var rt0, rt1 runtime.MemStats
		runtime.ReadMemStats(&rt0)
		start = time.Now()
		d, counters, outs, err := serveReplay(t, run.bodies, replay, l)
		total := time.Since(start)
		runtime.ReadMemStats(&rt1)
		if err != nil {
			return nil, err
		}
		m := layerMetrics(t, l, counters, d.Analyzer().MemoStats().FullEntries, total, &rt0, &rt1)
		passes = append(passes, tracedPass{t: t, m: m, total: total, outs: outs})
	}
	sort.Slice(passes, func(i, j int) bool { return passes[i].total < passes[j].total })
	t, m := passes[len(passes)/2].t, passes[len(passes)/2].m
	cr := checkReplay(newOracle(), replay, passes[len(passes)/2].outs)

	// The spawned server: the timed phase's schedule with client-side
	// spans and statsz deltas, then the max_rps search.
	st0, err := run.srv.statsz(run.client)
	if err != nil {
		return nil, err
	}
	phaseStart := time.Since(t.t0)
	ph := runPhase(run.client, run.srv.url, run.reqs)
	st1, err := run.srv.statsz(run.client)
	if err != nil {
		return nil, err
	}
	for k, v := range statszDelta(st0, st1) {
		m[k] = v
	}
	for i, o := range ph.Out {
		due := phaseStart + run.reqs[i].Due
		t.spans = append(t.spans, span{Name: "client.request", Start: due, End: due + o.Latency, Parent: -1, Op: len(replay) + i})
	}
	ok, pcr := ph.check(newOracle(), run.reqs)
	cr.add(pcr)
	m["client.late_p99_ms"] = ph.lateP99()
	m["serve.lat_p99_ms"] = quantile(ph.latencies(), 0.99)
	probe := 2 * time.Second
	if b.tiny {
		probe = 200 * time.Millisecond
	}
	if m["serve.max_rps"], err = run.maxRPS(probe); err != nil {
		return nil, err
	}
	for _, mm := range cr.Mismatches {
		fmt.Fprintf(os.Stderr, "perfbench: mismatch: %s\n", mm)
	}
	fmt.Fprintf(os.Stderr, "perfbench: serve p99 %.2f ms at %.0f req/s, max_rps %.1f\n",
		m["serve.lat_p99_ms"], serveRate, m["serve.max_rps"])
	return b.tracedResult("serve_mix", t, m, median(untraced), ok == len(ph.Out) && cr.Exact == cr.Pairs, len(replay)+len(ph.Out))
}
