package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ceres"
	"ceres/internal/eval"
	"ceres/internal/fsatomic"
	"ceres/pagestore"
)

// harvestSpec is one CLI-level workload: ceres-batch subprocesses over
// a generated long-tail crawl held in a pagestore, each pass running
// pagestore → triples/ → fused.jsonl + stats.json.
type harvestSpec struct {
	name string
	// cold wipes models, shard output, checkpoint and fused output
	// before every pass, so each pass trains every site; otherwise the
	// models of one untimed cold pass stay published and passes only
	// extract and fuse.
	cold bool
}

var (
	harvestWarm = harvestSpec{name: "harvest-warm"}
	harvestCold = harvestSpec{name: "harvest-cold", cold: true}
)

// harvestEnv is a set-up harvest directory.
type harvestEnv struct {
	dir   string
	in    *crawlInput
	store *pagestore.Store
	// fused is the digest of the fused.jsonl the set-up's cold pass
	// wrote (warm workloads); every later pass must reproduce it.
	fused []byte
}

// setupHarvest is everything between the seed and the first timed pass:
// generate the crawl, ingest it into a pagestore, write the seed KB
// and, for a warm workload, publish the models with one cold pass. With
// a meter it samples the machine's speed between those steps.
func (b *bench) setupHarvest(spec harvestSpec, seed int64, dir string, log *spanLog, m *meter) (*harvestEnv, error) {
	root := log.open(nil, "setup")
	defer root.end(0)

	sp := log.open(root, "websim.GenerateCrawl")
	in := genCrawl(seed, b.sz.crawlScale, b.sz.crawlMaxSite, b.sz.crawlSites)
	sp.end(float64(in.pages))
	m.sample(b.sz.stepGap)

	store, err := pagestore.Open(filepath.Join(dir, "pages"))
	if err != nil {
		return nil, err
	}
	sp = log.open(root, "pagestore.Writer")
	for _, site := range in.crawl.Sites {
		w, err := store.Writer(site.Name)
		if err != nil {
			return nil, err
		}
		for _, p := range site.Pages {
			if err := w.Append(ceres.PageSource{ID: p.ID, HTML: p.HTML}); err != nil {
				return nil, err
			}
		}
		if err := w.Close(); err != nil {
			return nil, err
		}
	}
	sp.end(float64(in.pages))

	var kb bytes.Buffer
	if err := in.crawl.SeedKB.Write(&kb); err != nil {
		return nil, err
	}
	if err := fsatomic.WriteFile(filepath.Join(dir, "kb.tsv"), kb.Bytes()); err != nil {
		return nil, err
	}
	env := &harvestEnv{dir: dir, in: in, store: store}
	if !spec.cold {
		m.sample(b.sz.stepGap)
		p, err := b.runPass(env, log, root)
		if err != nil {
			return nil, err
		}
		if p.failure != "" {
			return nil, fmt.Errorf("set-up cold pass: %s", p.failure)
		}
		env.fused = p.fused
	}
	return env, nil
}

// wipe removes everything a harvest pass produced, models included.
func (e *harvestEnv) wipe() error {
	for _, name := range []string{"models", "triples", "checkpoint.json", "fused.jsonl", "stats.json"} {
		if err := os.RemoveAll(filepath.Join(e.dir, name)); err != nil {
			return err
		}
	}
	return nil
}

// batchStats is ceres-batch's stats.json.
type batchStats struct {
	Sites []struct {
		Site    string
		Pages   int
		Trained bool
		Skipped bool
		Err     string
	} `json:"sites"`
	Pages     int   `json:"pages"`
	Triples   int   `json:"triples"`
	ElapsedNs int64 `json:"elapsedNs"`
	Stages    []struct {
		Stage string `json:"stage"`
		Ns    int64  `json:"ns"`
	} `json:"stages"`
}

func (s *batchStats) stage(name string) time.Duration {
	for _, st := range s.Stages {
		if st.Stage == name {
			return time.Duration(st.Ns)
		}
	}
	return 0
}

// passResult is one ceres-batch subprocess run.
type passResult struct {
	wall, cpu time.Duration // process start to exit; the child's user+system time
	rssMB     float64
	stats     batchStats
	fused     []byte // sha256 of fused.jsonl
	siteErrs  int
	failure   string // non-empty: the pass as a whole failed
}

// runPass runs `ceres-batch -dir D -reset -workers nproc` to completion
// and reads back what it wrote. A pass that exits non-zero or leaves no
// readable output is reported in failure, not as an error: it counts
// against failed_share.
func (b *bench) runPass(e *harvestEnv, log *spanLog, parent *openSpan) (*passResult, error) {
	logf, err := os.OpenFile(filepath.Join(e.dir, "batch.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd := exec.Command(filepath.Join(b.bin, "ceres-batch"), "-dir", e.dir, "-reset", "-workers", strconv.Itoa(b.nproc))
	cmd.Stdout, cmd.Stderr = logf, logf
	sp := log.open(parent, "ceres-batch")
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	pid := cmd.Process.Pid
	var (
		exited = make(chan struct{})
		runErr error
	)
	go func() {
		runErr = cmd.Wait()
		close(exited)
	}()
	// The child's ru_maxrss would be wrong here: Linux carries the
	// parent's resident set across fork+exec into it, and this process is
	// the larger of the two. VmHWM belongs to the child's own address
	// space; the last reading before it exits is its peak.
	var rssMB float64
	polled := make(chan struct{})
	go func() {
		defer close(polled)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			if v, err := procPeakRSS(pid); err == nil {
				rssMB = v
			}
			select {
			case <-exited:
				return
			case <-tick.C:
			}
		}
	}()

	<-polled
	p := &passResult{wall: sp.end(0), rssMB: rssMB}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok && ru != nil {
		p.cpu = rusageCPU(ru)
	}
	var exit *exec.ExitError
	if runErr != nil && !errors.As(runErr, &exit) {
		return nil, runErr
	}
	raw, err := os.ReadFile(filepath.Join(e.dir, "stats.json"))
	if err != nil {
		p.failure = fmt.Sprintf("ceres-batch: %v; no stats.json (log: %s)", runErr, logf.Name())
		return p, nil
	}
	if err := json.Unmarshal(raw, &p.stats); err != nil {
		p.failure = "stats.json: " + err.Error()
		return p, nil
	}
	for _, s := range p.stats.Sites {
		if !s.Skipped && s.Err != "" {
			p.siteErrs++
		}
	}
	if runErr != nil && p.siteErrs == 0 {
		p.failure = fmt.Sprintf("ceres-batch: %v (log: %s)", runErr, logf.Name())
	}
	f, err := os.Open(filepath.Join(e.dir, "fused.jsonl"))
	if err != nil {
		p.failure = "no fused.jsonl: " + err.Error()
		return p, nil
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return nil, err
	}
	p.fused = h.Sum(nil)

	// What the process spent outside Runner.Run, and Run's own stages.
	// The report's elapsed time stops before the fusion stage starts.
	if log != nil {
		log.mu.Lock()
		run := log.add(sp, "batch.Runner.Run(reported)", log.spans[sp.id-1].Start,
			time.Duration(p.stats.ElapsedNs)+p.stats.stage("fuse"), float64(p.stats.Pages))
		log.mu.Unlock()
		stageSpans(log, run, p.stats.stage)
	}
	return p, nil
}

// stageSpans attaches a run's reported stage totals under its span, in
// pipeline order, train inside resolve and parse/route/score inside
// extract.
func stageSpans(log *spanLog, run *openSpan, stage func(string) time.Duration) {
	resolve := log.timed(run, "batch.resolve", stage("resolve"), 0)
	log.timed(resolve, "batch.train", stage("train"), 0)
	extract := log.timed(run, "batch.extract", stage("extract"), 0)
	log.timed(extract, "core.parse", stage("parse"), 0)
	log.timed(extract, "core.route", stage("route"), 0)
	log.timed(extract, "core.score", stage("score"), 0)
	log.timed(run, "batch.sink", stage("sink"), 0)
	log.timed(run, "batch.checkpoint", stage("checkpoint"), 0)
	log.timed(run, "batch.fuse", stage("fuse"), 0)
}

// harvested reads back every committed shard file of the harvest
// directory, in file-name order.
func harvested(triplesDir string, fn func(site string, t ceres.Triple)) error {
	ents, err := os.ReadDir(triplesDir)
	if err != nil {
		return err
	}
	for _, ent := range ents {
		// <escaped-site>.<index>.jsonl
		name, ok := strings.CutSuffix(ent.Name(), ".jsonl")
		if !ok || strings.HasPrefix(name, ".") {
			continue
		}
		i := strings.LastIndexByte(name, '.')
		if i < 0 {
			continue
		}
		site, err := url.PathUnescape(name[:i])
		if err != nil {
			return err
		}
		f, err := os.Open(filepath.Join(triplesDir, ent.Name()))
		if err != nil {
			return err
		}
		dec := json.NewDecoder(bufio.NewReaderSize(f, 64<<10))
		for {
			var t ceres.Triple
			if err := dec.Decode(&t); err != nil {
				if errors.Is(err, io.EOF) {
					break
				}
				f.Close()
				return fmt.Errorf("%s: %w", ent.Name(), err)
			}
			fn(site, t)
		}
		f.Close()
	}
	return nil
}

// score compares the harvested triples with the crawl's gold facts over
// the sites the run harvested; a site skipped as untrainable has no
// output to score and its gold facts are left out.
func (e *harvestEnv) score(stats *batchStats) (eval.PRF, error) {
	var predicted, gold []eval.Fact
	err := harvested(filepath.Join(e.dir, "triples"), func(site string, t ceres.Triple) {
		predicted = append(predicted, eval.Fact{Page: site + "/" + t.Page, Predicate: t.Predicate, Value: t.Object})
	})
	if err != nil {
		return eval.PRF{}, err
	}
	for _, s := range stats.Sites {
		if !s.Skipped {
			gold = append(gold, e.in.gold[s.Site]...)
		}
	}
	return eval.Score(predicted, gold), nil
}

// runHarvest measures one harvest workload with tracing off: the
// end-to-end metrics. Passes repeat until the timed phase has lasted
// the requested seconds (and at least minPasses have run); the machine's
// speed is sampled between passes and each pass's times are scaled by
// the speed around it; throughput, latency and CPU are medians over
// passes.
func (b *bench) runHarvest(spec harvestSpec, seed int64, seconds float64) (*runResult, error) {
	dir, err := os.MkdirTemp(b.work, spec.name+"-")
	if err != nil {
		return nil, err
	}
	var env *harvestEnv
	setup, speeds, err := b.timedSetup(func(m *meter) (err error) {
		env, err = b.setupHarvest(spec, seed, dir, nil, m)
		return err
	})
	if err != nil {
		return nil, err
	}
	res := &runResult{Workload: spec.name, Seed: seed, Seconds: seconds}
	var (
		m           = meter{nproc: b.nproc}
		before      = m.sample(b.sz.stepGap)
		walls, cpus []float64
		rss         float64
		last        *passResult
		want        = env.fused
		total       time.Duration
	)
	for total < secondsDur(seconds) || len(walls) < b.sz.minPasses {
		if spec.cold {
			if err := env.wipe(); err != nil {
				return nil, err
			}
		}
		p, err := b.runPass(env, nil, nil)
		if err != nil {
			return nil, err
		}
		after := m.sample(b.sz.stepGap)
		speed := (before + after) / 2
		before = after
		total += p.wall
		res.Attempted += 1 + int64(len(env.in.crawl.Sites))
		res.Failed += int64(p.siteErrs)
		switch {
		case p.failure != "":
			res.Failed++
			res.Problems = append(res.Problems, p.failure)
			if len(res.Problems) >= 3 {
				return nil, fmt.Errorf("%s: passes keep failing: %v", spec.name, res.Problems)
			}
			continue
		case want == nil:
			want = p.fused
		case !bytes.Equal(want, p.fused):
			res.Failed++
			res.Problems = append(res.Problems, fmt.Sprintf("pass %d: fused.jsonl differs from the first pass", len(walls)+1))
		}
		walls = append(walls, ms(p.wall)*speed)
		cpus = append(cpus, us(p.cpu)*speed)
		rss = max(rss, p.rssMB)
		last = p
	}
	if last.stats.Pages == 0 {
		return nil, fmt.Errorf("%s: passes extracted no page", spec.name)
	}
	prf, err := env.score(&last.stats)
	if err != nil {
		return nil, err
	}
	pages := float64(last.stats.Pages)
	sort.Float64s(walls)
	res.Samples, res.Speed = len(walls), mean(append(speeds, m.all...))
	// The contract has every workload report every end-to-end metric, so
	// a harvest reports its operation's latency too: a pass. With fewer
	// than 100 passes the nearest-rank p99 is the slowest pass.
	got := map[string]float64{
		"setup_s":         setup,
		"pages_per_s":     pages / (median(walls) / 1000),
		"latency_p50_ms":  percentile(walls, 0.5),
		"latency_p99_ms":  percentile(walls, 0.99),
		"cpu_us_per_page": median(cpus) / pages,
		"rss_peak_mb":     rss,
		"precision":       prf.P,
		"recall":          prf.R,
	}
	if res.Metrics, err = fill(b.spec.EndToEnd, got, nil); err != nil {
		return nil, err
	}
	b.judge(res, prf)
	return res, nil
}

// openKB reads the harvest directory's seed KB the way ceres-batch does.
func openKB(dir string) (*ceres.KB, error) {
	f, err := os.Open(filepath.Join(dir, "kb.tsv"))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ceres.ReadKB(f)
}
