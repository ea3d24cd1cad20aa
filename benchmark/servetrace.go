package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"ceres"
)

// serviceNames maps the daemon's request span names (/debug/traces)
// onto layers.
var serviceNames = map[string]string{
	"service.extract": "ceres.Service.Extract(daemon)",
	"admission":       "ceres.service.admission",
	"lookup":          "ceres.service.lookup",
	"extract":         "ceres.service.extract",
	"fuse":            "ceres.service.fuse",
	"parse":           "core.parse",
	"route":           "core.route",
	"score":           "core.score",
}

// traceServe is the traced run of a serve workload: the per-layer
// metrics. It boots the daemon twice on one store, once as the
// end-to-end run does and once with -trace-sample 1, and alternates
// load windows between the two so that machine drift hits both alike;
// the throughput difference is the tracing overhead. From the traced
// daemon it collects /debug/traces, the responses' stats.latencyMs and
// MemStats deltas; around that it records its own spans for set-up and
// for direct calls into each layer.
func (b *bench) traceServe(ctx context.Context, spec serveSpec, seed int64, seconds float64) (*runResult, []span, error) {
	log := newSpanLog()
	dir, err := os.MkdirTemp(b.work, spec.name+"-trace-")
	if err != nil {
		return nil, nil, err
	}
	env, err := b.setupServe(ctx, spec, seed, dir, log, true, nil)
	if err != nil {
		return nil, nil, err
	}
	defer env.close()
	traced := env.daemon
	plain, err := startDaemon(b.bin, env.storeDir, filepath.Join(dir, "serve-untraced.log"), len(spec.kinds), false)
	if err != nil {
		return nil, nil, err
	}
	defer plain.stop()

	prf, triples, err := env.oracle(ctx)
	if err != nil {
		return nil, nil, err
	}
	annotated := make(map[string]int)
	for _, in := range env.sites {
		res, err := env.models[in.name].Extract(ctx, in.unseen[:1])
		if err != nil {
			return nil, nil, err
		}
		annotated[in.name] = res.AnnotatedPages
	}

	if err := publishOverWire(traced, env, log); err != nil {
		return nil, nil, err
	}

	clients := spec.clients(b.nproc)
	plainLd := newLoader(plain, env.reqs, clients, false)
	defer plainLd.close()
	tracedLd := newLoader(traced, env.reqs, clients, true)
	defer tracedLd.close()
	for _, ld := range []*loader{plainLd, tracedLd} {
		if _, err := ld.run(secondsDur(seconds * warmupShare)); err != nil {
			return nil, nil, err
		}
	}

	// Untraced and traced windows alternate U T T U U T T U, so that
	// neither side always follows the other or a pause.
	const windows = 8
	var (
		plainLoad loadResult
		tw        = tracedWindows{daemon: traced, ld: tracedLd, log: log, reqs: env.reqs, seen: make(map[int64]bool)}
	)
	for w := 0; w < windows; w++ {
		if w%4 == 1 || w%4 == 2 {
			if err := tw.run(secondsDur(seconds / windows)); err != nil {
				return nil, nil, err
			}
			continue
		}
		lr, err := plainLd.run(secondsDur(seconds / windows))
		if err != nil {
			return nil, nil, err
		}
		merge(&plainLoad, lr)
	}
	tracedLoad := &tw.load

	err = probeLayers(ctx, log, probeInput{
		sites: spec.kinds, pages: b.samplePages(env), models: env.models, kbs: kbsOf(env.sites),
		storeDir: env.storeDir, scratch: dir, pagesPerReq: spec.pagesPerReq,
		triples: func(yield func(string, ceres.Triple)) error {
			for _, t := range triples {
				yield(t.site, t.Triple)
			}
			return nil
		},
	})
	if err != nil {
		return nil, nil, err
	}

	spans := log.snapshot()
	a := aggregate(spans)
	got := make(map[string]float64)
	layerMetrics(a, got)
	modelShares(env.models, annotated, got)

	const usec, msec = 1e3, 1e6
	tp := float64(tracedLoad.pages())
	reqs := float64(len(tracedLoad.samples))
	if tp == 0 || plainLoad.pages() == 0 {
		return nil, nil, fmt.Errorf("%s traced run: no request succeeded: %v %v", spec.name, plainLoad.problems, tracedLoad.problems)
	}
	overheadNs := float64(a["loadgen.request"].selfDur)
	got["ceres-serve.requests"] = float64(tracedLoad.attempted)
	got["ceres-serve.http_429"] = float64(tracedLoad.http429)
	got["ceres-serve.http_5xx"] = float64(tracedLoad.http5xx)
	got["ceres-serve.overhead_us_per_req"] = overheadNs / usec / reqs
	got["ceres-serve.overhead_us_per_kb"] = overheadNs / usec / (a["loadgen.request"].n / 1024)
	got["ceres-serve.req_bytes_per_page"] = float64(tracedLoad.reqBytes) / tp
	got["ceres-serve.resp_bytes_per_page"] = float64(tracedLoad.respBytes) / tp
	got["ceres-serve.allocs_per_page"] = float64(tw.mallocs) / tp
	got["ceres-serve.alloc_kb_per_page"] = float64(tw.allocBytes) / 1024 / tp
	got["ceres-serve.gc_pause_ms_per_s"] = ms(tw.gcPause) / tracedLoad.elapsed
	got["ceres-serve.boot_ms"] = env.bootMs
	got["ceres-serve.publish_ms"] = a["ceres-serve.publish"].per(msec, float64(a["ceres-serve.publish"].count))
	got["loadgen.cpu_us_per_req"] = us(tw.loadgenCPU) / float64(tracedLoad.attempted)

	root := a["ceres.Service.Extract(daemon)"]
	if root == nil || root.n == 0 {
		return nil, nil, fmt.Errorf("%s traced run: /debug/traces returned no request", spec.name)
	}
	sampled := float64(root.count)
	got["ceres.service.admission_us"] = a["ceres.service.admission"].per(usec, sampled)
	got["ceres.service.lookup_us"] = a["ceres.service.lookup"].per(usec, sampled)
	got["ceres.service.extract_us_per_page"] = a["ceres.service.extract"].per(usec, root.n)
	got["ceres.service.fuse_us_per_page"] = a["ceres.service.fuse"].per(usec, root.n)
	got["ceres.service.self_us_per_req"] = float64(root.selfDur) / usec / sampled
	got["core.parse_us_per_page"] = a["core.parse"].per(usec, root.n)
	got["core.route_us_per_page"] = a["core.route"].per(usec, root.n)
	got["core.score_us_per_page"] = a["core.score"].per(usec, root.n)
	served := 0
	for _, s := range tracedLoad.samples {
		served += env.reqs[s.req].triples
	}
	got["core.triples_per_page"] = float64(served) / tp

	plainRate := float64(plainLoad.pages()) / plainLoad.elapsed
	got["trace.overhead_pct"] = (plainRate - tp/tracedLoad.elapsed) / plainRate * 100

	res := &runResult{Workload: spec.name, Seed: seed, Seconds: seconds, Traced: true,
		Attempted: plainLoad.attempted + tracedLoad.attempted, Failed: plainLoad.failed + tracedLoad.failed,
		Samples: len(tracedLoad.samples), Problems: append(plainLoad.problems, tracedLoad.problems...)}
	res.Metrics, err = fill(b.spec.PerLayer, got, harvestOnly)
	if err != nil {
		return nil, nil, err
	}
	b.judge(res, prf)
	return res, spans, nil
}

// publishOverWire PUTs every model to the daemon again (it becomes
// version 2 of the same model), timing each request.
func publishOverWire(d *daemon, env *serveEnv, log *spanLog) error {
	for _, in := range env.sites {
		var buf bytes.Buffer
		if _, err := env.models[in.name].WriteBinary(&buf); err != nil {
			return err
		}
		sp := log.open(nil, "ceres-serve.publish")
		req, err := http.NewRequest(http.MethodPut, d.base+"/v1/sites/"+in.name+"/model", &buf)
		if err != nil {
			return err
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return err
		}
		resp.Body.Close()
		sp.end(1)
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("PUT model %s: %s", in.name, resp.Status)
		}
	}
	return nil
}

// tracedWindows accumulates the load windows run against the traced
// daemon and what is collected around each: MemStats deltas, this
// process's own CPU, the daemon's retained traces, and one span per
// request.
type tracedWindows struct {
	daemon *daemon
	ld     *loader
	log    *spanLog
	reqs   []*request
	seen   map[int64]bool // traces already copied, by start time

	load                loadResult
	mallocs, allocBytes uint64
	gcPause, loadgenCPU time.Duration
}

func (tw *tracedWindows) run(dur time.Duration) error {
	before, err := heapStats(tw.daemon)
	if err != nil {
		return err
	}
	self0 := selfCPU()
	// The daemon retains its last 64 traces; poll while the load runs so
	// that a sample of the whole window is kept, not just its end.
	stop := make(chan struct{})
	polled := make(chan error, 1)
	go func() {
		tick := time.NewTicker(250 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				polled <- collectTraces(tw.daemon, tw.log, tw.seen)
				return
			case <-tick.C:
				if err := collectTraces(tw.daemon, tw.log, tw.seen); err != nil {
					polled <- err
					return
				}
			}
		}
	}()
	lr, err := tw.ld.run(dur)
	close(stop)
	if pollErr := <-polled; err == nil {
		err = pollErr
	}
	if err != nil {
		return err
	}
	tw.loadgenCPU += selfCPU() - self0
	after, err := heapStats(tw.daemon)
	if err != nil {
		return err
	}
	tw.mallocs += after.mallocs - before.mallocs
	tw.allocBytes += after.totalAlloc - before.totalAlloc
	tw.gcPause += after.pauseSince(before)

	base := lr.started.Sub(tw.log.t0)
	tw.log.mu.Lock()
	for _, s := range lr.samples {
		lat := time.Duration(s.latMs * float64(time.Millisecond))
		start := int64(base + time.Duration(s.at*float64(time.Second)) - lat)
		o := tw.log.add(nil, "loadgen.request", start, lat, float64(len(tw.reqs[s.req].body)))
		// The response says how long the Service call took, not when it
		// began; centre it in the request.
		srv := time.Duration(s.srvMs * float64(time.Millisecond))
		tw.log.add(o, "ceres.Service.Extract(reported)", start+int64(lat-srv)/2, srv, float64(s.pages))
	}
	tw.log.mu.Unlock()
	merge(&tw.load, lr)
	return nil
}

// harvestOnly and serveOnly name the layers one kind of workload never
// enters; their metrics read 0 there.
func harvestOnly(name string) bool {
	return hasAnyPrefix(name, "pagestore.", "batch.", "ceres-batch.")
}

func merge(into *loadResult, lr *loadResult) {
	into.samples = append(into.samples, lr.samples...)
	into.elapsed += lr.elapsed
	into.attempted += lr.attempted
	into.failed += lr.failed
	into.http429 += lr.http429
	into.http5xx += lr.http5xx
	into.reqBytes += lr.reqBytes
	into.respBytes += lr.respBytes
	into.problems = append(into.problems, lr.problems...)
}

func heapStats(d *daemon) (memStats, error) {
	body, err := d.get("/debug/pprof/heap?debug=1")
	if err != nil {
		return memStats{}, err
	}
	return parseMemStats(body)
}

// collectTraces copies the request span trees the daemon currently
// retains into the log, skipping the ones an earlier poll already took.
func collectTraces(d *daemon, log *spanLog, seen map[int64]bool) error {
	body, err := d.get("/debug/traces")
	if err != nil {
		return err
	}
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var t traceNode
		if err := json.Unmarshal(sc.Bytes(), &t); err != nil {
			return fmt.Errorf("/debug/traces: %w", err)
		}
		key := t.Start.UnixNano()
		if t.Name != "service.extract" || seen[key] {
			continue
		}
		seen[key] = true
		log.adopt(nil, t, serviceNames, t.num("pages"))
	}
	return sc.Err()
}

// samplePages picks the pages the layer probes run on: the first
// probePages unseen pages of every site.
func (b *bench) samplePages(env *serveEnv) map[string][]ceres.PageSource {
	out := make(map[string][]ceres.PageSource)
	for _, in := range env.sites {
		out[in.name] = in.unseen[:min(b.sz.probePages, len(in.unseen))]
	}
	return out
}

func kbsOf(sites []*siteInput) []*ceres.KB {
	out := make([]*ceres.KB, len(sites))
	for i, in := range sites {
		out[i] = in.kb
	}
	return out
}
