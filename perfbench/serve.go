package main

// serve_mix: a spawned depserve under an open loop. Arrivals follow a seeded
// Poisson schedule at a fixed rate; each request's latency runs from its
// scheduled send time to the last byte of its response, so a stall is
// charged to every request queued behind it. One generator process holds at
// most serveConns connections.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/maphash"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"exactdep/internal/wire"
)

const (
	// serveRate is the offered load of the timed phase in requests per
	// second: about a third of the highest rate the one-P depserve
	// sustained within serveLatLimit on a 2-CPU host (serve.max_rps, about
	// 56 req/s), and an eighth of it with the default GOMAXPROCS (about
	// 160 req/s). At higher rates queueing amplified the host's speed
	// swings in the median latency.
	serveRate = 20.0
	// serveEditShare is the share of requests that carry a freshly edited
	// unit (a store miss) rather than a repeat (a store hit).
	serveEditShare = 0.2
	// serveLatLimit is the p99 latency the max_rps search holds the server
	// to.
	serveLatLimit = 50 * time.Millisecond
	// lateLimit is how late the generator may start a request (p99, with a
	// connection free) before the run is invalid rather than slow.
	lateLimit = 10 * time.Millisecond
)

// serveConns is the generator's connection count: two, and never more than
// the host's CPUs.
var serveConns = min(2, runtime.NumCPU())

// serveFlags are depserve's flags, all explicit. The store is in-memory
// (no -store path) and never snapshotted, so the warm tier is exactly what
// this run put there.
func serveFlags() []string {
	return []string{"-addr=127.0.0.1:0", "-workers=1", "-executors=2", "-max-batch=8", "-queue=64",
		"-memo=true", "-vectors=true", "-cascade=full", "-class=exhaustive", "-memo-evict=1048576",
		"-snapshot=0", "-max-deadline=60s"}
}

// request is one scheduled call.
type request struct {
	Due  time.Duration // offset from the phase start
	Body []byte
	File *srcFile // the unit the body carries
}

// schedule draws n requests over pool at rate r: seeded Poisson arrivals,
// one in five a fresh edit of a pool unit, the rest repeats.
func schedule(rng *rand.Rand, pool []srcFile, bodies [][]byte, edits map[[2]int]int, n int, r float64) ([]request, error) {
	reqs := make([]request, n)
	var at float64
	for i := range reqs {
		at += rng.ExpFloat64() / r
		fi := rng.Intn(len(pool))
		req := request{Due: time.Duration(at * float64(time.Second)), Body: bodies[fi], File: &pool[fi]}
		if rng.Float64() < serveEditShare {
			ni := rng.Intn(len(pool[fi].Nests))
			edits[[2]int{fi, ni}]++
			g := pool[fi].withEdit(ni, edits[[2]int{fi, ni}])
			body, err := requestBody(&g)
			if err != nil {
				return nil, err
			}
			req.Body, req.File = body, &g
		}
		reqs[i] = req
	}
	return reqs, nil
}

func requestBody(f *srcFile) ([]byte, error) {
	return json.Marshal(wire.AnalyzeRequest{SchemaVersion: wire.SchemaVersion,
		Units: []wire.UnitSource{{Name: f.Name, Source: f.Text()}}})
}

// server is one spawned depserve.
type server struct {
	cmd  *exec.Cmd
	url  string
	done chan error
}

func startServer(bin string, args []string) (*server, error) {
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", childGOMAXPROCS))
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, done: make(chan error, 1)}
	lines := bufio.NewScanner(stdout)
	addr := make(chan string, 1)
	go func() {
		for lines.Scan() {
			if a, ok := strings.CutPrefix(lines.Text(), "depserve: listening on "); ok {
				addr <- a
			}
		}
		io.Copy(io.Discard, stdout)
		s.done <- cmd.Wait()
	}()
	select {
	case a := <-addr:
		s.url = "http://" + a
		return s, nil
	case err := <-s.done:
		return nil, fmt.Errorf("depserve exited before listening: %v", err)
	case <-time.After(30 * time.Second):
		s.stop()
		return nil, errors.New("depserve did not start listening within 30s")
	}
}

// stop drains the server with SIGTERM and waits for it to exit.
func (s *server) stop() error {
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-s.done:
		return err
	case <-time.After(30 * time.Second):
		s.cmd.Process.Kill()
		<-s.done
		return errors.New("depserve did not drain within 30s")
	}
}

// cpu returns the server's user+system time so far.
func (s *server) cpu() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are the
	// 14th and 15th fields overall, in clock ticks of 1/100 s.
	rest := string(b[bytes.LastIndexByte(b, ')')+2:])
	f := strings.Fields(rest)
	ut, _ := strconv.ParseInt(f[11], 10, 64)
	st, _ := strconv.ParseInt(f[12], 10, 64)
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// peakRSSMB returns the server's resident-set high-water mark.
func (s *server) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, l := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(l, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

func (s *server) statsz(c *http.Client) (wire.Statsz, error) {
	var st wire.Statsz
	resp, err := c.Get(s.url + "/v1/statsz")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     serveConns,
		MaxIdleConnsPerHost: serveConns,
		DisableCompression:  true,
		DialContext:         (&net.Dialer{Timeout: 10 * time.Second}).DialContext,
	}, Timeout: 60 * time.Second}
}

// outcome is one request's measurement.
type outcome struct {
	Latency time.Duration // due → last byte
	Late    time.Duration // generator lateness with a connection free
	Status  int
	Body    int // index into phase.Bodies; -1 on transport error
}

// phase is one open-loop run over a schedule.
type phase struct {
	Out    []outcome
	Bodies [][]byte // distinct response bodies
	Wall   time.Duration
}

// runPhase plays reqs against url with serveConns senders and waits for
// every response.
func runPhase(c *http.Client, url string, reqs []request) *phase {
	p := &phase{Out: make([]outcome, len(reqs))}
	var next atomic.Int64
	var mu sync.Mutex
	seen := map[uint64]int{}
	seed := maphash.MakeSeed()
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < serveConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				free := time.Since(start)
				if d := reqs[i].Due - free; d > 0 {
					time.Sleep(d)
				}
				sent := time.Since(start)
				o := outcome{Late: sent - max(reqs[i].Due, free), Body: -1}
				resp, err := c.Post(url+"/v1/analyze", "application/json", bytes.NewReader(reqs[i].Body))
				if err == nil {
					buf.Reset()
					_, err = buf.ReadFrom(resp.Body)
					resp.Body.Close()
					o.Status = resp.StatusCode
				}
				o.Latency = time.Since(start) - reqs[i].Due
				if err == nil {
					h := maphash.Bytes(seed, buf.Bytes())
					mu.Lock()
					idx, ok := seen[h]
					if !ok {
						idx = len(p.Bodies)
						seen[h] = idx
						p.Bodies = append(p.Bodies, bytes.Clone(buf.Bytes()))
					}
					mu.Unlock()
					o.Body = idx
				}
				p.Out[i] = o
			}
		}()
	}
	wg.Wait()
	p.Wall = time.Since(start)
	return p
}

// merge appends q's outcomes to p.
func (p *phase) merge(q *phase) {
	for _, o := range q.Out {
		if o.Body >= 0 {
			o.Body += len(p.Bodies)
		}
		p.Out = append(p.Out, o)
	}
	p.Bodies = append(p.Bodies, q.Bodies...)
	p.Wall += q.Wall
}

func (p *phase) latencies() []float64 {
	out := make([]float64, 0, len(p.Out))
	for _, o := range p.Out {
		out = append(out, ms(o.Latency))
	}
	return out
}

func (p *phase) lateP99() float64 {
	late := make([]float64, 0, len(p.Out))
	for _, o := range p.Out {
		late = append(late, ms(o.Late))
	}
	return quantile(late, 0.99)
}

// check decodes every response after the phase and checks it against the
// oracle: ok counts HTTP 200 answers not degraded by load.
func (p *phase) check(orc *oracle, reqs []request) (ok int, cr checkResult) {
	decoded := map[int]*wireResponse{}
	for i, o := range p.Out {
		files := []*srcFile{reqs[i].File}
		if o.Status != http.StatusOK || o.Body < 0 {
			cr.add(checkResult{Pairs: 2 * len(reqs[i].File.Nests)})
			continue
		}
		resp, done := decoded[o.Body]
		if !done {
			var err error
			if resp, err = decodeResponse(bytes.NewReader(p.Bodies[o.Body])); err != nil {
				resp = &wireResponse{}
			}
			decoded[o.Body] = resp
		}
		if !resp.DegradedByLoad {
			ok++
		}
		cr.add(orc.check(resp, files))
	}
	return ok, cr
}

// serveRun is one serve_mix run: the request pool, the schedule and the
// spawned server. rng and edits keep drawing fresh edits for later
// schedules (the max_rps probes).
type serveRun struct {
	pool   []srcFile
	bodies [][]byte
	reqs   []request
	srv    *server
	client *http.Client
	rng    *rand.Rand
	edits  map[[2]int]int
}

func (b *bench) serveSetup(n int) (*serveRun, []float64, error) {
	var run *serveRun
	setups, err := timeSetups(func() error {
		if run != nil {
			err := run.srv.stop()
			run = nil
			if err != nil {
				return err
			}
		}
		pool, err := servePool()
		if err != nil {
			return err
		}
		if b.tiny {
			pool = pool[:4]
		}
		r := &serveRun{pool: pool, client: newClient(), rng: rand.New(rand.NewSource(b.seed)), edits: map[[2]int]int{}}
		for i := range pool {
			body, err := requestBody(&pool[i])
			if err != nil {
				return err
			}
			r.bodies = append(r.bodies, body)
		}
		if r.reqs, err = schedule(r.rng, pool, r.bodies, r.edits, n, serveRate); err != nil {
			return err
		}
		if r.srv, err = startServer(filepath.Join(b.bin, "depserve"), serveFlags()); err != nil {
			return err
		}
		run = r
		for i := range pool {
			resp, err := r.client.Post(r.srv.url+"/v1/analyze", "application/json", bytes.NewReader(r.bodies[i]))
			if err != nil {
				return err
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("warm-up request: HTTP %d", resp.StatusCode)
			}
		}
		return nil
	})
	if err != nil && run != nil {
		run.srv.stop()
	}
	return run, setups, err
}

// requestsFor is the schedule length of a timed phase.
func (b *bench) requestsFor() int {
	if b.tiny {
		return 20
	}
	return int(math.Ceil(serveRate * b.seconds))
}

// serveSlice is the length of one slice of the timed phase. The reference
// workload runs between slices, with the server idle, and each slice's
// latencies and CPU time are divided by the reference runs around it.
const serveSlice = 5 * time.Second

// sliceSchedule splits reqs into consecutive schedules of about serveSlice
// each, every one rebased to start at zero.
func sliceSchedule(reqs []request) [][]request {
	var out [][]request
	var base time.Duration
	for len(reqs) > 0 {
		n := sort.Search(len(reqs), func(i int) bool { return reqs[i].Due-base > serveSlice })
		n = max(n, 1)
		if len(reqs)-n < n/2 { // fold a short tail into this slice
			n = len(reqs)
		}
		s := append([]request(nil), reqs[:n]...)
		for i := range s {
			s[i].Due -= base
		}
		out = append(out, s)
		base = reqs[n-1].Due
		reqs = reqs[n:]
	}
	return out
}

func (b *bench) serveMix() (*result, error) {
	run, setups, err := b.serveSetup(b.requestsFor())
	if err != nil {
		return nil, err
	}
	defer run.srv.stop()
	b.prov["flags"] = map[string]any{"depserve": serveFlags(), "GOMAXPROCS": childGOMAXPROCS, "rate_per_s": serveRate,
		"connections": serveConns, "edit_share": serveEditShare}

	ref, err := b.newRef()
	if err != nil {
		return nil, err
	}
	ph := &phase{}
	var lat, relLat, refWalls []float64
	var cpu time.Duration
	var relCPU float64 // server CPU ms, each slice's divided by its reference
	for _, reqs := range sliceSchedule(run.reqs) {
		cpu0, err := run.srv.cpu()
		if err != nil {
			return nil, err
		}
		p := runPhase(run.client, run.srv.url, reqs)
		cpu1, err := run.srv.cpu()
		if err != nil {
			return nil, err
		}
		refWall, refCPU, err := ref.next()
		if err != nil {
			return nil, err
		}
		for _, l := range p.latencies() {
			lat = append(lat, l)
			relLat = append(relLat, l/refWall)
		}
		cpu += cpu1 - cpu0
		relCPU += ms(cpu1-cpu0) / refCPU
		refWalls = append(refWalls, refWall)
		ph.merge(p)
	}
	rss, err := run.srv.peakRSSMB()
	if err != nil {
		return nil, err
	}
	orc := newOracle()
	ok, cr := ph.check(orc, run.reqs)
	b.prov["oracle"] = map[string]int{"interp_nests": orc.InterpNests, "fm_only_nests": orc.FMNests}
	b.prov["raw"] = map[string]float64{"lat_p50_ms": median(lat), "cpu_ms_per_op": ms(cpu) / float64(max(ok, 1)),
		"ref_wall_p50_ms": median(refWalls)}
	for _, m := range cr.Mismatches {
		fmt.Fprintf(os.Stderr, "perfbench: mismatch: %s\n", m)
	}
	late := ph.lateP99()
	valid := late <= ms(lateLimit)
	if !valid {
		fmt.Fprintf(os.Stderr, "perfbench: invalid run: generator p99 lateness %.2f ms exceeds %v\n", late, lateLimit)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d requests in %v, p50 %.2f ms, p99 %.2f ms, reference wall p50 %.0f ms, generator late p99 %.3f ms\n",
		len(ph.Out), ph.Wall.Round(time.Millisecond), median(lat), quantile(lat, 0.99), median(refWalls), late)
	return &result{
		Correct:   valid && ok == len(ph.Out) && cr.Exact == cr.Pairs,
		Attempted: len(ph.Out),
		Failed:    len(ph.Out) - ok,
		Metrics: map[string]metric{
			"setup_s":        {median(setups), "s"},
			"lat_p50_rel":    {median(relLat), "ref"},
			"cpu_per_op_rel": {relCPU / float64(max(ok, 1)), "ref"},
			"peak_rss_mb":    {rss, "MB"},
			"ok_frac":        {frac(ok, len(ph.Out)), "fraction"},
			"exact_frac":     {frac(cr.Exact, cr.Pairs), "fraction"},
		},
	}, nil
}

// maxRPS searches for the highest offered rate whose probe keeps p99
// latency within serveLatLimit with no growing backlog: from twice the
// timed rate, step up by 20% until a probe fails (or halve until one
// passes), then bisect the last bracket three times (a final resolution
// under 3%).
func (r *serveRun) maxRPS(probe time.Duration) (float64, error) {
	pass := func(rate float64) bool {
		n := max(1, int(rate*probe.Seconds()))
		reqs, err := schedule(r.rng, r.pool, r.bodies, r.edits, n, rate)
		if err != nil {
			return false
		}
		ph := runPhase(r.client, r.srv.url, reqs)
		for _, o := range ph.Out {
			if o.Status != http.StatusOK {
				return false
			}
		}
		// A backlog that grows makes the phase outlast its schedule.
		backlog := ph.Wall - reqs[len(reqs)-1].Due
		return quantile(ph.latencies(), 0.99) <= ms(serveLatLimit) && backlog <= serveLatLimit
	}
	lo, hi := 0.0, 2*serveRate
	for pass(hi) {
		lo, hi = hi, hi*1.2
		if hi > 20*serveRate {
			return 0, errors.New("max_rps search did not find a failing rate")
		}
	}
	if lo == 0 {
		lo = hi / 2
		for !pass(lo) {
			if lo < 1 {
				return 0, errors.New("max_rps search found no passing rate")
			}
			hi, lo = lo, lo/2
		}
	}
	for i := 0; i < 3; i++ {
		mid := (lo + hi) / 2
		if pass(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, nil
}

// statszDelta turns two statsz snapshots into server.* metrics.
func statszDelta(a, b wire.Statsz) map[string]float64 {
	return map[string]float64{
		"server.batches":                 float64(b.Batches - a.Batches),
		"server.coalesced_jobs":          float64(b.CoalescedJobs - a.CoalescedJobs),
		"server.fingerprint_deduped":     float64(b.FingerprintDeduped - a.FingerprintDeduped),
		"server.cross_request_memo_hits": float64(b.CrossRequestMemoHits - a.CrossRequestMemoHits),
		"server.degraded":                float64(b.Degraded - a.Degraded),
		"server.shed":                    float64(b.Shed - a.Shed),
	}
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
