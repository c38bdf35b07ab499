package main

// The two CLI workloads. Each timed sample is one fresh depanalyze process
// over a generated tree; its wall time runs from process start to exit, its
// CPU time and peak RSS come from the child's rusage. Wall and CPU time are
// reported as multiples of the reference runs around the sample (ref.go).

import (
	"bytes"
	"fmt"
	"hash/maphash"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// cliWorkers is the -workers value of every depanalyze run: one, to match
// childGOMAXPROCS, which gives the program the shape of the reference
// workload, one busy goroutine plus the garbage collector on one CPU.
const cliWorkers = 1

// sample is one measured program invocation.
type sample struct {
	Wall  time.Duration
	CPU   time.Duration
	RSSKB int64
	Out   []byte
}

// childGOMAXPROCS is the GOMAXPROCS of every depanalyze, depserve and
// refwork process.
// With one P a program and its garbage collector share one CPU, so its
// wall time does not depend on how much of the host's second CPU it gets,
// which changes from minute to minute, and the harness keeps that CPU.
const childGOMAXPROCS = 1

// runProgram runs bin with args to completion and reads its standard
// output into out. Standard output and error go to files in work, not to
// pipes, so the harness sleeps while the program runs.
func runProgram(bin string, args []string, work string, out *bytes.Buffer) (sample, error) {
	base := filepath.Join(work, filepath.Base(bin))
	stdout, err := os.Create(base + ".stdout")
	if err != nil {
		return sample{}, err
	}
	defer stdout.Close()
	stderr, err := os.Create(base + ".stderr")
	if err != nil {
		return sample{}, err
	}
	defer stderr.Close()
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", childGOMAXPROCS))
	cmd.Stdout, cmd.Stderr = stdout, stderr
	start := time.Now()
	err = cmd.Run()
	s := sample{Wall: time.Since(start)}
	if cmd.ProcessState != nil {
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			s.CPU = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
			s.RSSKB = ru.Maxrss
		}
	}
	if err != nil {
		msg, _ := os.ReadFile(base + ".stderr")
		return s, fmt.Errorf("%s %v: %w: %s", filepath.Base(bin), args, err, msg)
	}
	out.Reset()
	if _, err := stdout.Seek(0, io.SeekStart); err != nil {
		return s, err
	}
	if _, err := out.ReadFrom(stdout); err != nil {
		return s, err
	}
	s.Out = out.Bytes()
	return s, nil
}

// cliFlags are the depanalyze flags of every timed run, all explicit.
func cliFlags(store string) []string {
	f := []string{"-json", fmt.Sprintf("-workers=%d", cliWorkers), "-memo=false", "-vectors=true", "-cascade=full",
		"-budget-fm=0", "-budget-nodes=0", "-budget-cons=0", "-budget-ms=0", "-timeout=0"}
	if store != "" {
		f = append(f, "-store="+store)
	}
	return f
}

// cliReport accumulates samples and check results into the end-to-end
// metrics.
type cliReport struct {
	walls, cpus, rss  []float64 // raw, ms and MB
	relWalls, relCPUs []float64 // as multiples of the reference
	refWalls, refCPUs []float64 // the reference times divided by, ms
	attempted, ok     int
	check             checkResult
}

// add records one sample with the reference wall and CPU times (ms) around
// it.
func (r *cliReport) add(s sample, err error, check checkResult, refWall, refCPU float64) {
	r.attempted++
	r.check.add(check)
	if err != nil {
		return
	}
	r.ok++
	r.walls = append(r.walls, ms(s.Wall))
	r.cpus = append(r.cpus, ms(s.CPU))
	r.rss = append(r.rss, float64(s.RSSKB)/1024)
	r.relWalls = append(r.relWalls, ms(s.Wall)/refWall)
	r.relCPUs = append(r.relCPUs, ms(s.CPU)/refCPU)
	r.refWalls = append(r.refWalls, refWall)
	r.refCPUs = append(r.refCPUs, refCPU)
}

// raw is the medians before normalisation, for the provenance line.
func (r *cliReport) raw() map[string]float64 {
	return map[string]float64{"wall_p50_ms": median(r.walls), "cpu_p50_ms": median(r.cpus),
		"ref_wall_p50_ms": median(r.refWalls), "ref_cpu_p50_ms": median(r.refCPUs)}
}

func (r *cliReport) result(setups []float64) *result {
	exact := frac(r.check.Exact, r.check.Pairs)
	for _, m := range r.check.Mismatches {
		fmt.Fprintf(os.Stderr, "perfbench: mismatch: %s\n", m)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d samples, wall p25/p50/p75 %.0f/%.0f/%.0f ms, reference wall p50 %.0f ms, %d pairs checked\n",
		len(r.walls), quantile(r.walls, 0.25), median(r.walls), quantile(r.walls, 0.75), median(r.refWalls), r.check.Pairs)
	return &result{
		Correct:   r.ok == r.attempted && r.check.Exact == r.check.Pairs,
		Attempted: r.attempted,
		Failed:    r.attempted - r.ok,
		Metrics: map[string]metric{
			"setup_s":        {median(setups), "s"},
			"lat_p50_rel":    {median(r.relWalls), "ref"},
			"cpu_per_op_rel": {median(r.relCPUs), "ref"},
			"peak_rss_mb":    {median(r.rss), "MB"},
			"ok_frac":        {frac(r.ok, r.attempted), "fraction"},
			"exact_frac":     {exact, "fraction"},
		},
	}
}

// A run repeats its set-up at least setupRepeats times and for at least
// setupTime, so a set-up of a few milliseconds still gets a steady median.
const (
	setupRepeats = 5
	setupTime    = 2 * time.Second
)

// timeSetups runs setup repeatedly and returns each duration in seconds.
// The state the last repetition leaves behind is the one measured.
func timeSetups(setup func() error) ([]float64, error) {
	var out []float64
	start := time.Now()
	for len(out) < setupRepeats || time.Since(start) < setupTime {
		start := time.Now()
		if err := setup(); err != nil {
			return nil, err
		}
		out = append(out, time.Since(start).Seconds())
	}
	return out, nil
}

// filePtrs returns pointers into files.
func filePtrs(files []srcFile) []*srcFile {
	out := make([]*srcFile, len(files))
	for i := range files {
		out[i] = &files[i]
	}
	return out
}

// checkOutput decodes one wire document and checks it against the oracle.
func (o *oracle) checkOutput(out []byte, files []*srcFile) (checkResult, error) {
	resp, err := decodeResponse(bytes.NewReader(out))
	if err != nil {
		var cr checkResult
		for _, f := range files {
			cr.Pairs += 2 * len(f.Nests)
		}
		return cr, err
	}
	return o.check(resp, files), nil
}

// outputCheck checks CLI outputs, decoding each distinct output of an
// input once: depanalyze is deterministic, so an output byte-identical to
// one already checked for the same input carries the same verdicts. This
// keeps a 13 MB JSON decode out of every sample of the loop.
type outputCheck struct {
	orc  *oracle
	seed maphash.Seed
	seen map[[2]uint64]checkResult // (input, output hash) → result
}

func newOutputCheck(orc *oracle) *outputCheck {
	return &outputCheck{orc: orc, seed: maphash.MakeSeed(), seen: map[[2]uint64]checkResult{}}
}

// check checks out, the output for input number input over files.
func (c *outputCheck) check(input int, out []byte, files []*srcFile) (checkResult, error) {
	key := [2]uint64{uint64(input), maphash.Bytes(c.seed, out)}
	if cr, ok := c.seen[key]; ok {
		return cr, nil
	}
	cr, err := c.orc.checkOutput(out, files)
	if err == nil {
		c.seen[key] = cr
	}
	// Collect the decode's garbage now, so the harness's collector does
	// not run beside the next timed program.
	runtime.GC()
	return cr, err
}

// cliSolve: fresh depanalyze processes without a store over the
// solve-heavy tree.
func (b *bench) cliSolve() (*result, error) {
	dir := filepath.Join(b.work, "solve")
	var files []srcFile
	setups, err := timeSetups(func() error {
		var err error
		if files, err = b.solveFiles(); err != nil {
			return err
		}
		return writeTree(dir, files)
	})
	if err != nil {
		return nil, err
	}
	args := append(cliFlags(""), dir)
	b.prov["flags"] = map[string]any{"depanalyze": args, "GOMAXPROCS": childGOMAXPROCS}
	orc := newOracle()
	ptrs := filePtrs(files)
	var out bytes.Buffer
	out.Grow(8 << 20)
	bin := filepath.Join(b.bin, "depanalyze")
	chk := newOutputCheck(orc)
	var rep cliReport
	if _, err := runProgram(bin, args, b.work, &out); err != nil { // warm-up
		return nil, err
	}
	cr, err := chk.check(0, out.Bytes(), ptrs)
	if err != nil {
		return nil, err
	}
	rep.check.add(cr)
	b.prov["oracle"] = map[string]int{"interp_nests": orc.InterpNests, "fm_only_nests": orc.FMNests}

	ref, err := b.newRef()
	if err != nil {
		return nil, err
	}
	deadline := time.Now().Add(b.duration())
	for rep.attempted < b.minSamples() || time.Now().Before(deadline) {
		s, err := runProgram(bin, args, b.work, &out)
		var cr checkResult
		if err == nil {
			cr, err = chk.check(0, s.Out, ptrs)
		}
		refWall, refCPU, rerr := ref.next()
		if rerr != nil {
			return nil, rerr
		}
		rep.add(s, err, cr, refWall, refCPU)
	}
	b.prov["raw"] = rep.raw()
	return rep.result(setups), nil
}

func (b *bench) solveFiles() ([]srcFile, error) {
	files, err := solveTree(b.seed)
	if err != nil || !b.tiny {
		return files, err
	}
	// Self-test size: three programs and one chain of each depth.
	var tiny []srcFile
	seen := map[byte]bool{}
	for _, f := range files {
		if f.Name[0] == 'X' && len(tiny) < 3 || f.Name[0] == 'F' && !seen[f.Name[2]] {
			seen[f.Name[2]] = f.Name[0] == 'F'
			tiny = append(tiny, f)
		}
	}
	return tiny, nil
}

// duration is the timed phase of one run.
func (b *bench) duration() time.Duration {
	if b.tiny {
		return 0
	}
	return time.Duration(b.seconds * float64(time.Second))
}

// minSamples is the least number of samples a CLI run takes.
func (b *bench) minSamples() int {
	if b.tiny {
		return 1
	}
	return 5
}

// editsPerSample is k, the files cli_edit edits before each sample; editSets
// is how many edit sets a run cycles through: enough to edit each of the
// 32 LargeCorpus files once.
const (
	editsPerSample = 3
	editSets       = 11
)

// editState is cli_edit's input between samples: the pristine files plus
// the edit set currently applied on disk.
type editState struct {
	dir      string
	pristine []srcFile
	current  []srcFile
	edited   []int // files differing from pristine on disk
}

// apply restores the files the previous sample edited and writes the edit
// set es.
func (st *editState) apply(es []edit) error {
	for _, fi := range st.edited {
		st.current[fi] = st.pristine[fi]
		if err := os.WriteFile(filepath.Join(st.dir, st.current[fi].Name), []byte(st.current[fi].Text()), 0o644); err != nil {
			return err
		}
	}
	st.edited = st.edited[:0]
	for _, e := range es {
		st.current[e.File] = st.current[e.File].withEdit(e.Nest, e.Delta)
		st.edited = append(st.edited, e.File)
	}
	for _, fi := range st.edited {
		if err := os.WriteFile(filepath.Join(st.dir, st.current[fi].Name), []byte(st.current[fi].Text()), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// seededEdits returns n edit sets of k edits each over the LargeCorpus
// files. Set i edits the files k*i to k*i+k-1 of those files, taken in
// order and wrapping round, and the seed picks the nest and the shift of
// each edit. An edit makes the store re-solve the whole file, so the
// files decide a sample's cost: taking them in a fixed rotation gives
// every seed the same mix of costs, and LG or SR, which would cost several
// times more, are never edited.
func seededEdits(seed int64, files []srcFile, n, k int) [][]edit {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	var targets []int
	for i, f := range files {
		if strings.HasPrefix(f.Name, "X") {
			targets = append(targets, i)
		}
	}
	k = min(k, len(targets))
	sets := make([][]edit, n)
	for i := range sets {
		for j := 0; j < k; j++ {
			fi := targets[(k*i+j)%len(targets)]
			sets[i] = append(sets[i], edit{File: fi, Nest: rng.Intn(len(files[fi].Nests)), Delta: 1 + rng.Intn(3)})
		}
	}
	return sets
}

func (b *bench) editFiles() ([]srcFile, error) {
	files, err := editTree()
	if err != nil || !b.tiny {
		return files, err
	}
	// Self-test size: two small suite programs (one symbolic) and two
	// LargeCorpus programs.
	var tiny []srcFile
	for _, f := range files {
		switch f.Name {
		case "OC.loop", "TI.loop", "X000.loop", "X001.loop":
			tiny = append(tiny, f)
		}
	}
	return tiny, nil
}

// copyFile copies src to dst.
func copyFile(dst, src string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// cliEdit: the re-analysis path. Set-up fills the store with a cold run;
// each sample restores the pristine tree and store, edits k seeded files,
// and times depanalyze against the store.
func (b *bench) cliEdit() (*result, error) {
	dir := filepath.Join(b.work, "edit")
	store := filepath.Join(b.work, "edit.store")
	pristineStore := filepath.Join(b.work, "edit.store.pristine")
	bin := filepath.Join(b.bin, "depanalyze")
	args := append(cliFlags(store), dir)
	b.prov["flags"] = map[string]any{"depanalyze": args, "GOMAXPROCS": childGOMAXPROCS, "edits_per_sample": editsPerSample}

	var files []srcFile
	var out bytes.Buffer
	out.Grow(16 << 20)
	setups, err := timeSetups(func() error {
		var err error
		if files, err = b.editFiles(); err != nil {
			return err
		}
		if err := writeTree(dir, files); err != nil {
			return err
		}
		if err := os.Remove(store); err != nil && !os.IsNotExist(err) {
			return err
		}
		_, err = runProgram(bin, args, b.work, &out)
		return err
	})
	if err != nil {
		return nil, err
	}
	if err := copyFile(pristineStore, store); err != nil {
		return nil, err
	}
	orc := newOracle()
	st := &editState{dir: dir, pristine: files, current: append([]srcFile(nil), files...)}
	ptrs := filePtrs(st.current)
	chk := newOutputCheck(orc)
	var rep cliReport
	// The cold run's output covers the store every sample starts from.
	cr, err := chk.check(-1, out.Bytes(), ptrs)
	if err != nil {
		return nil, err
	}
	rep.check.add(cr)
	sets := seededEdits(b.seed, files, editSets, editsPerSample)
	// Work out the edited nests' truth before the timed loop.
	for _, es := range sets {
		for _, e := range es {
			g := files[e.File].withEdit(e.Nest, e.Delta)
			orc.truth(&g, e.Nest)
		}
	}
	b.prov["oracle"] = map[string]int{"interp_nests": orc.InterpNests, "fm_only_nests": orc.FMNests}

	sampleOnce := func(i int) (sample, checkResult, error) {
		if err := copyFile(store, pristineStore); err != nil {
			return sample{}, checkResult{}, err
		}
		if err := st.apply(sets[i%len(sets)]); err != nil {
			return sample{}, checkResult{}, err
		}
		s, err := runProgram(bin, args, b.work, &out)
		if err != nil {
			return s, checkResult{}, err
		}
		cr, err := chk.check(i%len(sets), s.Out, ptrs)
		return s, cr, err
	}
	_, cr, err = sampleOnce(len(sets) - 1) // warm-up
	if err != nil {
		return nil, err
	}
	rep.check.add(cr)
	ref, err := b.newRef()
	if err != nil {
		return nil, err
	}
	deadline := time.Now().Add(b.duration())
	for i := 0; rep.attempted < b.minSamples() || time.Now().Before(deadline); i++ {
		s, cr, err := sampleOnce(i)
		refWall, refCPU, rerr := ref.next()
		if rerr != nil {
			return nil, rerr
		}
		rep.add(s, err, cr, refWall, refCPU)
	}
	b.prov["raw"] = rep.raw()
	return rep.result(setups), nil
}
