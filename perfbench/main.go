// Command perfbench is the repository benchmark: it runs one workload from a
// seed against freshly built depanalyze and depserve binaries, checks every
// output against an oracle, and prints its metrics as one JSON object on
// the last line of standard output. Run it through run.sh, which builds
// everything first:
//
//	bash perfbench/run.sh --workload cli_solve --seed 7 --seconds 20 --trace 0
//	bash perfbench/run.sh --selftest
//
// --trace 0 measures the end-to-end metrics with no tracing; --trace 1 is a
// separate in-process run over the same inputs that records a span around
// each call into the program's layers and reports per-layer metrics. See
// README.md for the workloads and the metric definitions.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output contract.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench carries one invocation's settings.
type bench struct {
	seed    int64
	seconds float64
	bin     string // directory holding depanalyze and depserve
	work    string // scratch directory for trees, stores and outputs
	tiny    bool   // self-test size
	prov    map[string]any
}

// workloads maps each workload name to its end-to-end and traced runs.
var workloads = map[string]struct {
	e2e, traced func(*bench) (*result, error)
}{
	"cli_solve": {(*bench).cliSolve, (*bench).cliSolveTraced},
	"cli_edit":  {(*bench).cliEdit, (*bench).cliEditTraced},
	"serve_mix": {(*bench).serveMix, (*bench).serveMixTraced},
}

func main() {
	workload := flag.String("workload", "", "workload to run: cli_solve, cli_edit or serve_mix")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 20, "measurement time in seconds")
	trace := flag.Int("trace", 0, "1 = traced per-layer run, 0 = end-to-end run")
	bin := flag.String("bin", ".bench_build/bin", "directory holding the built depanalyze and depserve")
	work := flag.String("work", ".bench_build/work", "scratch directory")
	selftest := flag.Bool("selftest", false, "run every workload once at tiny size and check the reported metrics")
	flag.Parse()

	b := &bench{seed: *seed, seconds: *seconds, bin: *bin, work: *work}
	if *selftest {
		if err := b.selfTest(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: selftest: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "perfbench: selftest passed")
		return
	}
	res, err := b.run(*workload, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// run executes one workload and prints its provenance line.
func (b *bench) run(name string, traced bool) (*result, error) {
	w, ok := workloads[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	for _, p := range []string{"depanalyze", "depserve", "refwork"} {
		if _, err := os.Stat(filepath.Join(b.bin, p)); err != nil {
			return nil, fmt.Errorf("program not built: %w", err)
		}
	}
	if err := os.MkdirAll(b.work, 0o755); err != nil {
		return nil, err
	}
	b.prov = provenance(name, b.seed, b.seconds, traced)
	run := w.e2e
	if traced {
		run = w.traced
	}
	res, err := run(b)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	line, _ := json.Marshal(map[string]any{"provenance": b.prov})
	fmt.Println(string(line))
	return res, nil
}

// provenance records where and how a result was taken. Workloads add the
// exact program flags under "flags".
func provenance(workload string, seed int64, seconds float64, traced bool) map[string]any {
	goVersion := runtime.Version()
	if out, err := exec.Command("go", "env", "GOVERSION").Output(); err == nil {
		goVersion = strings.TrimSpace(string(out))
	}
	return map[string]any{
		"workload":    workload,
		"seed":        seed,
		"seconds":     seconds,
		"trace":       traced,
		"commit":      commit(),
		"source_hash": sourceHash("."),
		"go":          goVersion,
		"nproc":       runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"goos":        runtime.GOOS,
		"goarch":      runtime.GOARCH,
	}
}

// commit is the checkout's git commit, or "" when the working directory is
// not the root of a git repository (source_hash identifies the tree then).
// Git is kept from searching parent directories.
func commit() string {
	if _, err := os.Stat(".git"); err != nil {
		return ""
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(mustAbs(".")))
	out, err := cmd.Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// sourceHash digests every Go source and module file under root, skipping
// build output, so a result names the exact tree it measured.
func sourceHash(root string) string {
	var paths []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(p), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func mustAbs(p string) string {
	a, err := filepath.Abs(p)
	if err != nil {
		return p
	}
	return a
}
