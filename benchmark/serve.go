package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"ceres"
	"ceres/internal/eval"
)

// serveSpec is one wire-level workload: a real ceres-serve subprocess
// with its store pre-loaded, driven closed-loop over keep-alive
// connections by this process.
type serveSpec struct {
	name        string
	kinds       []string // one demo corpus per served site
	chrome      bool     // wrap every page in ~30 KB of inert site chrome
	pagesPerReq int
	clients     func(nproc int) int
}

var serveSmall = serveSpec{
	name:        "serve-small",
	kinds:       []string{"movies", "imdb-films", "imdb-people", "crawl-czech"},
	pagesPerReq: 1,
	clients: func(nproc int) int {
		if nproc > 4 {
			return 4
		}
		return nproc
	},
}

var serveBulk = serveSpec{
	name:        "serve-bulk",
	kinds:       []string{"imdb-films", "imdb-people"},
	chrome:      true,
	pagesPerReq: 16,
	clients:     func(int) int { return 1 },
}

// The daemon's wire types, restated here so the expected response is
// built by the same encoder from the same field order.
type wirePage struct {
	ID   string `json:"id"`
	HTML string `json:"html"`
}

type wireTriple struct {
	Subject    string  `json:"subject"`
	Predicate  string  `json:"predicate"`
	Object     string  `json:"object"`
	Confidence float64 `json:"confidence"`
	Page       string  `json:"page"`
	Path       string  `json:"path"`
}

// request is one pre-encoded extract request and, once the oracle has
// run, the exact bytes its response's triples array must have.
type request struct {
	site    string
	path    string
	pages   []ceres.PageSource
	body    []byte
	want    []byte
	triples int // in want
}

// serveEnv is a set-up serve workload: generated sites, trained and
// published models, encoded requests and a booted daemon.
type serveEnv struct {
	sites    []*siteInput
	models   map[string]*ceres.SiteModel
	storeDir string
	reqs     []*request
	daemon   *daemon
	bootMs   float64
}

func (e *serveEnv) close() {
	if e != nil && e.daemon != nil {
		e.daemon.stop()
	}
}

// setupServe is everything between the seed and the first timed
// request: generate, train, publish into the store, encode the request
// bodies and boot the daemon on the loaded store. With a span log it
// also records a span around each call into a layer; with a meter it
// samples the machine's speed after each site.
func (b *bench) setupServe(ctx context.Context, spec serveSpec, seed int64, dir string, log *spanLog, traced bool, speed *meter) (*serveEnv, error) {
	env := &serveEnv{models: make(map[string]*ceres.SiteModel), storeDir: filepath.Join(dir, "models")}
	root := log.open(nil, "setup")
	defer root.end(0)
	store, err := ceres.NewDirStore(env.storeDir)
	if err != nil {
		return nil, err
	}
	for _, kind := range spec.kinds {
		gsp := log.open(root, "websim.generate")
		in, err := genServeSite(seed, kind, b.sz.serveTrain, b.sz.serveUnseen, spec.chrome)
		if err != nil {
			return nil, err
		}
		gsp.end(float64(len(in.train) + len(in.unseen)))
		env.sites = append(env.sites, in)

		m, err := b.trainSite(ctx, in, log, root)
		if err != nil {
			return nil, fmt.Errorf("training %s: %w", kind, err)
		}
		env.models[kind] = m

		psp := log.open(root, "ceres.DirStore.Publish")
		if _, err := store.Publish(kind, m); err != nil {
			return nil, err
		}
		psp.end(1)
		speed.sample(b.sz.stepGap)
	}
	env.reqs, err = encodeRequests(env.sites, spec.pagesPerReq)
	if err != nil {
		return nil, err
	}
	bsp := log.open(root, "ceres-serve.boot")
	env.daemon, err = startDaemon(b.bin, env.storeDir, filepath.Join(dir, "serve.log"), len(spec.kinds), traced)
	if err != nil {
		return nil, err
	}
	env.bootMs = ms(bsp.end(1))
	return env, nil
}

// trainSite trains one site. Under a span log the training runs below a
// span of the program's own tracer, whose parse / cluster / annotate /
// fit children are copied into the log.
func (b *bench) trainSite(ctx context.Context, in *siteInput, log *spanLog, parent *openSpan) (*ceres.SiteModel, error) {
	p := ceres.NewPipeline(in.kb)
	if log == nil {
		return p.Train(ctx, in.train)
	}
	tr := ceres.NewTracer(ceres.TracerOptions{SampleEvery: 1})
	tsp := tr.StartRoot("ceres.Pipeline.Train")
	m, err := p.Train(ceres.ContextWithSpan(ctx, tsp), in.train)
	tsp.End()
	if err != nil {
		return nil, err
	}
	log.adopt(parent, nodeOf(tsp.JSON()), trainNames, float64(len(in.train)))
	return m, nil
}

// trainNames maps the pipeline's training span names onto layers.
var trainNames = map[string]string{
	"parse":    "core.train.parse_pages",
	"cluster":  "cluster.ClusterPages",
	"annotate": "core.train.annotate",
	"fit":      "core.train.fit",
}

// encodeRequests groups every site's unseen pages pagesPerReq to a
// request and interleaves the sites, so consecutive requests go round
// the sites.
func encodeRequests(sites []*siteInput, pagesPerReq int) ([]*request, error) {
	perSite := make([][]*request, len(sites))
	most := 0
	for si, in := range sites {
		for lo := 0; lo < len(in.unseen); lo += pagesPerReq {
			hi := lo + pagesPerReq
			if hi > len(in.unseen) {
				hi = len(in.unseen)
			}
			wire := struct {
				Pages []wirePage `json:"pages"`
			}{}
			for _, p := range in.unseen[lo:hi] {
				wire.Pages = append(wire.Pages, wirePage{ID: p.ID, HTML: p.HTML})
			}
			// As a client that is not a Go program would send it: "<"
			// and ">" left alone, not \u-escaped to 6 bytes each.
			var body bytes.Buffer
			enc := json.NewEncoder(&body)
			enc.SetEscapeHTML(false)
			if err := enc.Encode(wire); err != nil {
				return nil, err
			}
			perSite[si] = append(perSite[si], &request{
				site: in.name, path: "/v1/sites/" + in.name + "/extract", pages: in.unseen[lo:hi], body: body.Bytes(),
			})
		}
		if len(perSite[si]) > most {
			most = len(perSite[si])
		}
	}
	var out []*request
	for i := 0; i < most; i++ {
		for si := range sites {
			if i < len(perSite[si]) {
				out = append(out, perSite[si][i])
			}
		}
	}
	return out, nil
}

// oracle computes, in this process through SiteModel.Extract, the
// triples every request must return, and scores them against the gold
// facts of the unseen pages.
func (e *serveEnv) oracle(ctx context.Context) (eval.PRF, []siteTriple, error) {
	var predicted, gold []eval.Fact
	var all []siteTriple
	for _, r := range e.reqs {
		res, err := e.models[r.site].Extract(ctx, r.pages)
		if err != nil {
			return eval.PRF{}, nil, fmt.Errorf("oracle %s: %w", r.site, err)
		}
		wire := make([]wireTriple, len(res.Triples))
		for i, t := range res.Triples {
			wire[i] = wireTriple{t.Subject, t.Predicate, t.Object, t.Confidence, t.Page, t.Path}
			predicted = append(predicted, eval.Fact{Page: r.site + "/" + t.Page, Predicate: t.Predicate, Value: t.Object})
			all = append(all, siteTriple{r.site, t})
		}
		r.triples = len(wire)
		if r.want, err = json.Marshal(wire); err != nil {
			return eval.PRF{}, nil, err
		}
	}
	for _, in := range e.sites {
		gold = append(gold, in.gold...)
	}
	return eval.Score(predicted, gold), all, nil
}

// siteTriple is a triple with the site that asserted it.
type siteTriple struct {
	site string
	ceres.Triple
}

// daemon is a running ceres-serve subprocess.
type daemon struct {
	cmd  *exec.Cmd
	wait chan error // receives cmd.Wait's result once
	logf *os.File
	base string
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon boots ceres-serve with its default flags plus -pprof
// (and -trace-sample 1 for a traced run) and waits until /readyz
// reports every site loaded. Its log goes to a file, as a deployed
// daemon's would.
func startDaemon(binDir, storeDir, logPath string, sites int, traced bool) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	args := []string{"-addr", addr, "-store", storeDir, "-pprof"}
	if traced {
		args = append(args, "-trace-sample", "1")
	}
	cmd := exec.Command(filepath.Join(binDir, "ceres-serve"), args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	start := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	d := &daemon{cmd: cmd, logf: logf, base: "http://" + addr}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	d.wait = exited
	deadline := start.Add(20 * time.Second)
	for {
		var ready struct {
			Sites int `json:"sites"`
		}
		resp, err := http.Get(d.base + "/readyz")
		if err == nil {
			ok := resp.StatusCode == http.StatusOK && json.NewDecoder(resp.Body).Decode(&ready) == nil && ready.Sites == sites
			resp.Body.Close()
			if ok {
				return d, nil
			}
		}
		select {
		case werr := <-exited:
			logf.Close()
			return nil, fmt.Errorf("ceres-serve exited during boot: %v (log: %s)", werr, logPath)
		default:
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("ceres-serve not ready within 20s (last error: %v, log: %s)", err, logPath)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// stop drains the daemon with SIGTERM and waits for it to exit.
func (d *daemon) stop() {
	if d.cmd == nil {
		return
	}
	d.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // already exited is fine
	select {
	case <-d.wait:
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill() //nolint:errcheck // already exited is fine
		<-d.wait
	}
	d.logf.Close()
	d.cmd = nil
}

func (d *daemon) get(path string) ([]byte, error) {
	resp, err := http.Get(d.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return body, nil
}

// sample is one completed request.
type sample struct {
	at    float64 // completion, seconds since the phase started
	latMs float64 // client-observed
	srvMs float64 // stats.latencyMs of the response (traced phases only)
	pages int
	req   int
}

// loadResult is one closed-loop load phase.
type loadResult struct {
	samples             []sample
	started             time.Time // when the clock started (sample.at counts from here)
	elapsed             float64
	cpu                 time.Duration // the daemon's user+system CPU over the phase
	attempted, failed   int64
	http429, http5xx    int64
	reqBytes, respBytes int64
	problems            []string
}

func (lr *loadResult) pages() (n int) {
	for _, s := range lr.samples {
		n += s.pages
	}
	return n
}

var (
	triplesKey = []byte(`"triples":`)
	statsKey   = []byte(`,"stats":`)
	latencyKey = []byte(`"latencyMs":`)
)

// loader drives one daemon closed-loop: each of its clients owns one
// keep-alive connection and sends its next request as soon as the
// previous response has been read and checked.
type loader struct {
	d           *daemon
	reqs        []*request
	clients     []*http.Client
	next        atomic.Int64 // requests handed out, over all phases
	parseServer bool         // read stats.latencyMs out of each response
}

func newLoader(d *daemon, reqs []*request, clients int, parseServer bool) *loader {
	l := &loader{d: d, reqs: reqs, parseServer: parseServer}
	for c := 0; c < clients; c++ {
		l.clients = append(l.clients, &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}})
	}
	return l
}

func (l *loader) close() {
	for _, c := range l.clients {
		c.CloseIdleConnections()
	}
}

// run is one load phase of length dur. A refused, failed or wrong
// response counts as failed and adds no sample.
func (l *loader) run(dur time.Duration) (*loadResult, error) {
	var (
		mu       sync.Mutex
		out      = &loadResult{}
		finished sync.WaitGroup
	)
	cpu0, err := procCPU(l.d.pid())
	if err != nil {
		return nil, err
	}
	start := time.Now()
	deadline := start.Add(dur)
	out.started = start
	finished.Add(len(l.clients))
	for _, client := range l.clients {
		go func() {
			defer finished.Done()
			var (
				local loadResult
				buf   bytes.Buffer
			)
			for time.Now().Before(deadline) {
				l.do(client, &buf, &local, start)
			}
			mu.Lock()
			merge(out, &local)
			mu.Unlock()
		}()
	}
	finished.Wait()
	out.elapsed = time.Since(start).Seconds()
	cpu1, err := procCPU(l.d.pid())
	if err != nil {
		return nil, err
	}
	out.cpu = cpu1 - cpu0
	sort.Slice(out.samples, func(i, j int) bool { return out.samples[i].at < out.samples[j].at })
	return out, nil
}

// do sends the next request and checks the response: every 200
// response's triples array must equal the oracle's byte for byte. With a
// zero start the request is not timed.
func (l *loader) do(client *http.Client, buf *bytes.Buffer, out *loadResult, start time.Time) {
	i := int(l.next.Add(1)-1) % len(l.reqs)
	r := l.reqs[i]
	out.attempted++
	fail := func(format string, a ...any) {
		out.failed++
		if len(out.problems) < 3 {
			out.problems = append(out.problems, fmt.Sprintf(format, a...))
		}
	}
	t0 := time.Now()
	resp, err := client.Post(l.d.base+r.path, "application/json", bytes.NewReader(r.body))
	if err != nil {
		fail("%s: %v", r.path, err)
		return
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	done := time.Now()
	out.reqBytes += int64(len(r.body))
	out.respBytes += int64(buf.Len())
	if err != nil || resp.StatusCode != http.StatusOK {
		switch {
		case resp.StatusCode == http.StatusTooManyRequests:
			out.http429++
		case resp.StatusCode >= 500:
			out.http5xx++
		}
		fail("%s: status %d, read error %v", r.path, resp.StatusCode, err)
		return
	}
	body := buf.Bytes()
	lo, hi := bytes.Index(body, triplesKey), bytes.LastIndex(body, statsKey)
	if lo < 0 || hi < lo || !bytes.Equal(body[lo+len(triplesKey):hi], r.want) {
		fail("%s request %d: triples differ from the in-process SiteModel.Extract result", r.site, i)
		return
	}
	s := sample{at: done.Sub(start).Seconds(), latMs: ms(done.Sub(t0)), pages: len(r.pages), req: i}
	if l.parseServer {
		s.srvMs = floatAfter(body[hi:], latencyKey)
	}
	out.samples = append(out.samples, s)
}

// floatAfter parses the JSON number following key in b, 0 if absent.
func floatAfter(b, key []byte) float64 {
	i := bytes.Index(b, key)
	if i < 0 {
		return 0
	}
	b = b[i+len(key):]
	j := 0
	for j < len(b) && (b[j] == '.' || b[j] == '-' || b[j] == 'e' || b[j] == '+' || (b[j] >= '0' && b[j] <= '9')) {
		j++
	}
	f, _ := strconv.ParseFloat(string(b[:j]), 64)
	return f
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// runServe measures one serve workload with tracing off: the end-to-end
// metrics. The timed phase is cut into windows; between two windows the
// clients wait while the machine's speed is sampled, and every window's
// times are scaled by the speed around it (see calib.go).
func (b *bench) runServe(ctx context.Context, spec serveSpec, seed int64, seconds float64) (*runResult, error) {
	dir, err := os.MkdirTemp(b.work, spec.name+"-")
	if err != nil {
		return nil, err
	}
	var env *serveEnv
	setup, speeds, err := b.timedSetup(func(m *meter) (err error) {
		env, err = b.setupServe(ctx, spec, seed, dir, nil, false, m)
		return err
	})
	if err != nil {
		return nil, err
	}
	defer env.close()
	prf, _, err := env.oracle(ctx)
	if err != nil {
		return nil, err
	}
	ld := newLoader(env.daemon, env.reqs, spec.clients(b.nproc), false)
	defer ld.close()
	if _, err := ld.run(secondsDur(seconds * warmupShare)); err != nil {
		return nil, err
	}

	res := &runResult{Workload: spec.name, Seed: seed, Seconds: seconds}
	var (
		m            = meter{nproc: b.nproc}
		rates, lats  []float64
		cpuUs, pages float64
		window       = secondsDur(seconds / throughputWindows)
		before       = m.sample(b.sz.windowGap)
	)
	for w := 0; w < throughputWindows; w++ {
		lr, err := ld.run(window)
		if err != nil {
			return nil, err
		}
		after := m.sample(b.sz.windowGap)
		speed := (before + after) / 2
		before = after
		res.Attempted += lr.attempted
		res.Failed += lr.failed
		res.Problems = append(res.Problems, lr.problems...)
		rates = append(rates, float64(lr.pages())/lr.elapsed/speed)
		for _, s := range lr.samples {
			lats = append(lats, s.latMs*speed)
		}
		cpuUs += us(lr.cpu) * speed
		pages += float64(lr.pages())
	}
	if len(lats) == 0 {
		return nil, fmt.Errorf("%s: no request succeeded: %v", spec.name, res.Problems)
	}
	rss, err := procPeakRSS(env.daemon.pid())
	if err != nil {
		return nil, err
	}
	res.Samples, res.Speed = len(lats), mean(append(speeds, m.all...))
	sort.Float64s(lats)
	got := map[string]float64{
		"setup_s":         setup,
		"pages_per_s":     median(rates),
		"latency_p50_ms":  percentile(lats, 0.5),
		"latency_p99_ms":  percentile(lats, 0.99),
		"cpu_us_per_page": cpuUs / pages,
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

func secondsDur(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
