// Command benchmark is the repository's benchmark: one program that
// builds cmd/ceres-serve and cmd/ceres-batch, generates every input from
// a seed, drives the two programs through four workloads, checks their
// outputs and prints every metric BENCHMARK.json names. See README.md
// for what each workload and metric means.
//
//	go run ./benchmark -seed 1                       # all workloads, untraced then traced
//	go run ./benchmark --workload serve-small --seed 3 --seconds 10 --trace 0
//	go run ./benchmark -compare A.json B.json
//
// Every workload runs untraced first (the end-to-end metrics) and then
// traced (the per-layer metrics: spans and the program's own instruments
// on). -trace 0 keeps only the first of the two, -trace 1 only the
// second. The last line of standard output is the result of the last run
// as one JSON object.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"

	"ceres/internal/eval"
	"ceres/internal/fsatomic"
)

// sizes are the dimensions of the generated inputs. The full sizes are
// what BENCHMARK.json's bounds were fixed on; tests shrink them.
type sizes struct {
	serveTrain, serveUnseen int // pages per served site
	crawlScale              float64
	crawlMaxSite            int
	crawlSites              []string // nil: the whole 33-site roster
	minPasses               int      // harvest passes per timed phase, at least
	probePages              int      // pages per site the in-process layer probes touch
	// windowGap and stepGap are how long one speed sample keeps the
	// cores busy: between two windows of a serve phase, and between two
	// passes of a harvest or two steps of set-up, which are longer and
	// fewer.
	windowGap, stepGap time.Duration
	// precisionFloor and recallFloor are the correctness gate on
	// extraction quality: a run below either is not correct. They sit
	// under the lowest value seen over seeds 1-20 at the full sizes.
	precisionFloor, recallFloor float64
}

// The crawl is half of ISSUE 11's in both dimensions (scale 0.1, 3000
// pages a site): about 14k pages over the whole roster, a 12 s cold pass
// and a 2 s warm one on the builder's 2 cores. At the issue's size one
// harvest-cold run takes 55 s, and the 92 runs the acceptance check makes
// do not fit its time cap.
var fullSizes = sizes{
	serveTrain: 60, serveUnseen: 140,
	crawlScale: 0.05, crawlMaxSite: 1500,
	minPasses: 3, probePages: 40,
	windowGap: 50 * time.Millisecond, stepGap: 200 * time.Millisecond,
	precisionFloor: 0.93, recallFloor: 0.60,
}

// A timed serve phase of s seconds follows a warm-up of warmupShare*s
// and is cut into throughputWindows windows with a speed sample between
// each two; throughput is the windows' median.
const (
	warmupShare       = 0.1
	throughputWindows = 20
)

// bench is one invocation's shared state.
type bench struct {
	root  string // checkout root
	spec  *benchSpec
	bin   string // built ceres-serve and ceres-batch
	work  string // scratch space of this invocation, removed at exit
	sz    sizes
	nproc int
}

// judge applies the correctness gate: nothing failed, and precision and
// recall are at or above their floors.
func (b *bench) judge(res *runResult, prf eval.PRF) {
	res.Correct = res.Failed == 0
	if prf.P < b.sz.precisionFloor || prf.R < b.sz.recallFloor {
		res.Correct = false
		res.Problems = append(res.Problems, fmt.Sprintf("precision %.4f / recall %.4f below the floors %.2f / %.2f",
			prf.P, prf.R, b.sz.precisionFloor, b.sz.recallFloor))
	}
}

// timedSetup runs one set-up under a fresh meter, which the set-up
// samples between its steps, and returns its length in seconds scaled by
// the mean speed seen, and the speeds. Sampling time is no part of it.
func (b *bench) timedSetup(setup func(*meter) error) (float64, []float64, error) {
	m := meter{nproc: b.nproc}
	m.sample(b.sz.stepGap)
	before, t0 := m.spent, time.Now()
	if err := setup(&m); err != nil {
		return 0, nil, err
	}
	wall := time.Since(t0) - (m.spent - before)
	m.sample(b.sz.stepGap)
	return wall.Seconds() * mean(m.all), m.all, nil
}

// newBench builds the programs under test and makes the scratch
// directory, all under the checkout's .bench_build.
func newBench(root string, spec *benchSpec, sz sizes) (*bench, error) {
	build := filepath.Join(root, ".bench_build")
	b := &bench{root: root, spec: spec, bin: filepath.Join(build, "bin"), sz: sz, nproc: runtime.NumCPU()}
	if err := os.MkdirAll(b.bin, 0o755); err != nil {
		return nil, err
	}
	cmd := exec.Command("go", "build", "-o", b.bin+string(filepath.Separator), "./cmd/ceres-serve", "./cmd/ceres-batch")
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("building the programs under test: %w", err)
	}
	var err error
	if b.work, err = os.MkdirTemp(build, "w-"); err != nil {
		return nil, err
	}
	return b, nil
}

func (b *bench) close() { os.RemoveAll(b.work) }

// run executes one workload once, traced or not, and returns its result
// and (traced) its spans.
func (b *bench) run(ctx context.Context, workload string, seed int64, seconds float64, traced bool) (*runResult, []span, error) {
	switch workload {
	case serveSmall.name, serveBulk.name:
		spec := serveSmall
		if workload == serveBulk.name {
			spec = serveBulk
		}
		if traced {
			return b.traceServe(ctx, spec, seed, seconds)
		}
		res, err := b.runServe(ctx, spec, seed, seconds)
		return res, nil, err
	case harvestWarm.name, harvestCold.name:
		spec := harvestWarm
		if workload == harvestCold.name {
			spec = harvestCold
		}
		if traced {
			return b.traceHarvest(ctx, spec, seed, seconds)
		}
		res, err := b.runHarvest(spec, seed, seconds)
		return res, nil, err
	}
	return nil, nil, fmt.Errorf("unknown workload %q", workload)
}

func main() {
	if err := realMain(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func realMain() error {
	var (
		workload = flag.String("workload", "all", "workload to run: all, or a comma-separated subset of BENCHMARK.json's workloads")
		seed     = flag.Int64("seed", 1, "seed of every generated input")
		seconds  = flag.Float64("duration", 0, "seconds each timed phase lasts (default: run_seconds of BENCHMARK.json)")
		trace    = flag.Int("trace", 1, "0: only the untraced run (end-to-end metrics); 1: only the traced run (per-layer metrics); not given: both")
		runs     = flag.Int("runs", 1, "repeat everything this many times on the same seed, to measure run-to-run noise")
		outDir   = flag.String("out", "", "directory for result.json and trace-<workload>.jsonl (default: benchmark/out)")
		compare  = flag.Bool("compare", false, "compare two result files: -compare A.json B.json")
	)
	// The benchmark contract's driver spells -duration "--seconds".
	flag.Float64Var(seconds, "seconds", 0, "the same as -duration")
	flag.Parse()

	root, err := findRoot()
	if err != nil {
		return err
	}
	spec, err := loadSpec(root)
	if err != nil {
		return err
	}
	if *compare {
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare takes two result files")
		}
		return compareFiles(os.Stdout, spec, flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %q", flag.Args())
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}
	if *outDir == "" {
		*outDir = filepath.Join(root, "benchmark", "out")
	}
	var workloads []string
	for _, w := range spec.Workloads {
		workloads = append(workloads, w.Name)
	}
	if *workload != "all" {
		wanted := strings.Split(*workload, ",")
		for _, w := range wanted {
			if !slices.Contains(workloads, w) {
				return fmt.Errorf("-workload: BENCHMARK.json lists no workload %q", w)
			}
		}
		workloads = wanted
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1")
	}
	untraced, traced := true, true
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "trace" {
			untraced, traced = *trace == 0, *trace == 1
		}
	})

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	b, err := newBench(root, spec, fullSizes)
	if err != nil {
		return err
	}
	defer b.close()

	file := resultFile{GoVersion: runtime.Version(), NumCPU: b.nproc}
	ok := true
	var last *runResult
	for r := 0; r < *runs; r++ {
		for _, w := range workloads {
			for _, withTrace := range []bool{false, true} {
				if (withTrace && !traced) || (!withTrace && !untraced) {
					continue
				}
				if err := ctx.Err(); err != nil {
					return err
				}
				res, spans, err := b.run(ctx, w, *seed, *seconds, withTrace)
				if err != nil {
					return fmt.Errorf("%s: %w", w, err)
				}
				printResult(os.Stdout, spec, res)
				if spans != nil {
					data, err := jsonl(spans)
					if err != nil {
						return err
					}
					if err := writeOut(*outDir, "trace-"+w+".jsonl", data); err != nil {
						return err
					}
				}
				file.Runs = append(file.Runs, *res)
				ok = ok && res.Correct
				last = res
			}
		}
	}
	data, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return err
	}
	if err := writeOut(*outDir, "result.json", append(data, '\n')); err != nil {
		return err
	}
	line, err := last.line()
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	if !ok {
		return fmt.Errorf("correctness gate failed (see the problems listed above)")
	}
	return nil
}

func hasAnyPrefix(s string, prefixes ...string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

func writeOut(dir, name string, data []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return fsatomic.WriteFile(filepath.Join(dir, name), data)
}

// printResult prints a run's metrics by name with their units, in
// BENCHMARK.json's order.
func printResult(w *os.File, spec *benchSpec, res *runResult) {
	kind, list := "end-to-end, untraced", spec.EndToEnd
	if res.Traced {
		kind, list = "per-layer, traced", spec.PerLayer
	}
	share := 0.0
	if res.Attempted > 0 {
		share = float64(res.Failed) / float64(res.Attempted)
	}
	fmt.Fprintf(w, "\n== %s  seed %d  %gs  (%s)  correct=%v\n", res.Workload, res.Seed, res.Seconds, kind, res.Correct)
	if !res.Traced {
		fmt.Fprintf(w, "  times as on the reference machine; this one ran at %.2f of its speed (raw = reported / speed)\n", res.Speed)
	}
	fmt.Fprintf(w, "  %-44s %14d %s\n", "attempted", res.Attempted, "count")
	fmt.Fprintf(w, "  %-44s %14d %s\n", "failed", res.Failed, "count")
	fmt.Fprintf(w, "  %-44s %14.6f %s\n", "failed_share", share, "share")
	fmt.Fprintf(w, "  %-44s %14d %s\n", "samples", res.Samples, "count")
	for _, m := range list {
		fmt.Fprintf(w, "  %-44s %14.4f %s\n", m.Name, res.Metrics[m.Name].Value, m.Unit)
	}
	for _, p := range res.Problems {
		fmt.Fprintf(w, "  problem: %s\n", p)
	}
}
