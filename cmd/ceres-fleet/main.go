// Command ceres-fleet is an end-to-end fleet harness: it stands up N
// ceres-serve replicas sharing one model store, drives concurrent
// extraction load through a round-robin client, performs a rolling model
// publish mid-load, and proves the fleet contract:
//
//   - no request is dropped or misrouted: every response is a 200 from
//     the requested site (or an explicit 429 shed), never a 5xx;
//   - every replica converges on the new model version without a
//     restart (verified by scraping ceres_model_version from /metrics);
//   - every replica exposes the drift and trace metric families
//     (extraction confidence, empty-page and routing-miss counters,
//     trace span counters) with load recorded in them;
//   - serving the load leaks no goroutines: each replica's pprof
//     goroutine profile returns to its pre-load baseline once the load
//     drains;
//   - replicas shut down cleanly on SIGTERM.
//
// It exits nonzero on any violation, so `make fleet` is a CI gate.
//
//	ceres-fleet -serve-bin bin/ceres-serve -replicas 2 -load 3s
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"ceres"
	"ceres/internal/obs/obstest"
)

type siteFixture struct {
	name  string
	model *ceres.SiteModel
	serve []ceres.PageSource
	// topicOf maps a served page ID to its topic-entity name; a triple
	// whose subject disagrees was extracted by the wrong site's model.
	topicOf map[string]string
}

// trainSite builds a distinguishable demo site: different seeds generate
// disjoint film worlds, so a misrouted extraction is visible in the
// subjects it returns.
func trainSite(name string, seed int64) (*siteFixture, error) {
	c, err := ceres.DemoCorpus("movies", seed, 40)
	if err != nil {
		return nil, err
	}
	var train, serve []ceres.PageSource
	for i, p := range c.Pages {
		if i%2 == 0 {
			train = append(train, p)
		} else {
			serve = append(serve, p)
		}
	}
	model, err := ceres.NewPipeline(c.KB).Train(context.Background(), train)
	if err != nil {
		return nil, fmt.Errorf("training %s: %w", name, err)
	}
	return &siteFixture{name: name, model: model, serve: serve, topicOf: c.TopicOf}, nil
}

type replica struct {
	index int
	url   string
	cmd   *exec.Cmd
}

// freePort reserves an ephemeral port and releases it for the replica to
// bind. The tiny window between close and bind is fine for a harness.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	port := l.Addr().(*net.TCPAddr).Port
	l.Close()
	return port, nil
}

func scrape(client *http.Client, url string) (map[string]float64, error) {
	resp, err := client.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != 200 {
		return nil, fmt.Errorf("GET /metrics = %d", resp.StatusCode)
	}
	return obstest.Parse(string(raw))
}

// waitMetric polls every replica's /metrics until series reaches want.
func waitMetric(client *http.Client, replicas []*replica, series string, want float64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		converged := true
		for _, r := range replicas {
			samples, err := scrape(client, r.url)
			if err != nil || samples[series] != want {
				converged = false
				break
			}
		}
		if converged {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("fleet did not converge on %s = %v within %s", series, want, timeout)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

type loadStats struct {
	ok        atomic.Int64
	shed      atomic.Int64
	errored   atomic.Int64
	misrouted atomic.Int64
	empty     atomic.Int64
}

func main() {
	var (
		serveBin = flag.String("serve-bin", "bin/ceres-serve", "path to the ceres-serve binary")
		replicaN = flag.Int("replicas", 2, "number of serving replicas")
		clients  = flag.Int("clients", 8, "concurrent load clients")
		loadFor  = flag.Duration("load", 3*time.Second, "load duration (the rolling publish happens mid-load)")
		watch    = flag.Duration("watch", 100*time.Millisecond, "replica model-store poll interval")
	)
	flag.Parse()
	if err := run(*serveBin, *replicaN, *clients, *loadFor, *watch); err != nil {
		fmt.Fprintln(os.Stderr, "ceres-fleet: FAIL:", err)
		os.Exit(1)
	}
	fmt.Println("ceres-fleet: PASS")
}

func run(serveBin string, replicaN, clients int, loadFor, watch time.Duration) error {
	if replicaN < 2 {
		return errors.New("a fleet needs at least 2 replicas")
	}
	fmt.Printf("training 2 demo sites...\n")
	siteA, err := trainSite("films-a.example", 7)
	if err != nil {
		return err
	}
	siteB, err := trainSite("films-b.example", 99)
	if err != nil {
		return err
	}
	sites := []*siteFixture{siteA, siteB}

	storeDir, err := os.MkdirTemp("", "ceres-fleet-store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(storeDir)

	// Stand up the replicas around the shared store, watcher on.
	replicas := make([]*replica, replicaN)
	defer func() {
		for _, r := range replicas {
			if r != nil && r.cmd.Process != nil {
				r.cmd.Process.Kill()
				r.cmd.Wait()
			}
		}
	}()
	for i := range replicas {
		port, err := freePort()
		if err != nil {
			return err
		}
		addr := "127.0.0.1:" + strconv.Itoa(port)
		cmd := exec.Command(serveBin,
			"-addr", addr,
			"-store", storeDir,
			"-watch", watch.String(),
			"-admission-wait", "2s",
			"-max-inflight", "64",
			"-trace-sample", "1",
			"-pprof",
			"-log-level", "warn",
		)
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			return fmt.Errorf("starting replica %d: %w", i, err)
		}
		replicas[i] = &replica{index: i, url: "http://" + addr, cmd: cmd}
	}
	client := &http.Client{Timeout: 30 * time.Second}
	for _, r := range replicas {
		if err := waitReady(client, r.url, 15*time.Second); err != nil {
			return fmt.Errorf("replica %d: %w", r.index, err)
		}
	}
	fmt.Printf("%d replicas ready on shared store %s\n", replicaN, storeDir)

	// Pre-load goroutine baseline per replica, measured through the same
	// client and profile endpoint as the post-load check so the
	// measurement overhead cancels out.
	client.CloseIdleConnections()
	baselines := make([]int, replicaN)
	for i, r := range replicas {
		if baselines[i], err = goroutineTotal(client, r.url); err != nil {
			return fmt.Errorf("replica %d goroutine baseline: %w", i, err)
		}
	}

	// Publish v1 of both sites to replica 0 (binary wire format); every
	// other replica must converge through its store watcher.
	for _, s := range sites {
		if err := publish(client, replicas[0].url, s); err != nil {
			return err
		}
	}
	for _, s := range sites {
		series := `ceres_model_version{site="` + s.name + `"}`
		if err := waitMetric(client, replicas, series, 1, 15*time.Second); err != nil {
			return err
		}
	}
	fmt.Println("fleet converged on v1 of both sites")

	// Round-robin concurrent load across replicas and sites.
	var stats loadStats
	var rr atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				n := rr.Add(1)
				r := replicas[int(n)%len(replicas)]
				s := sites[(c+i)%len(sites)]
				extractOnce(client, r, s, &stats)
			}
		}(c)
	}

	// Mid-load rolling publish: a new version of site A lands on replica
	// 1 (any replica accepts publishes), and the whole fleet must pick it
	// up while serving — zero non-429 failures allowed throughout.
	time.Sleep(loadFor / 3)
	if err := publish(client, replicas[1].url, siteA); err != nil {
		close(stop)
		wg.Wait()
		return fmt.Errorf("rolling publish: %w", err)
	}
	seriesA := `ceres_model_version{site="` + siteA.name + `"}`
	if err := waitMetric(client, replicas, seriesA, 2, 15*time.Second); err != nil {
		close(stop)
		wg.Wait()
		return err
	}
	fmt.Println("rolling publish: fleet converged on v2 under load")
	time.Sleep(loadFor / 3)
	close(stop)
	wg.Wait()

	total := stats.ok.Load() + stats.shed.Load() + stats.errored.Load()
	fmt.Printf("load: %d requests, %d ok, %d shed (429), %d errors, %d misrouted, %d empty\n",
		total, stats.ok.Load(), stats.shed.Load(), stats.errored.Load(),
		stats.misrouted.Load(), stats.empty.Load())
	if stats.ok.Load() == 0 {
		return errors.New("no request succeeded")
	}
	if n := stats.errored.Load(); n > 0 {
		return fmt.Errorf("%d non-429 request failures during rolling publish", n)
	}
	if n := stats.misrouted.Load(); n > 0 {
		return fmt.Errorf("%d misrouted responses", n)
	}
	if n := stats.empty.Load(); n > 0 {
		return fmt.Errorf("%d empty extractions", n)
	}

	// Every replica took load, so every replica must expose the drift
	// signals for both sites and the trace counters — scraped through the
	// strict exposition parser, so a malformed family fails here too.
	for _, r := range replicas {
		samples, err := scrape(client, r.url)
		if err != nil {
			return fmt.Errorf("replica %d: %w", r.index, err)
		}
		for _, s := range sites {
			if samples[`ceres_extraction_confidence_count{site="`+s.name+`"}`] <= 0 {
				return fmt.Errorf("replica %d recorded no extraction confidences for %s", r.index, s.name)
			}
			for _, family := range []string{"ceres_empty_pages_total", "ceres_routing_miss_total", "ceres_fields_total", "ceres_context_misses_total"} {
				if _, ok := samples[family+`{site="`+s.name+`"}`]; !ok {
					return fmt.Errorf("replica %d missing drift family %s for %s", r.index, family, s.name)
				}
			}
		}
		if samples["ceres_trace_spans_total"] <= 0 || samples["ceres_trace_roots_sampled_total"] <= 0 {
			return fmt.Errorf("replica %d traced nothing: spans=%v sampled=%v", r.index,
				samples["ceres_trace_spans_total"], samples["ceres_trace_roots_sampled_total"])
		}
	}
	fmt.Println("drift and trace families present on every replica")

	// With the load drained and the client's keep-alive connections shut,
	// every replica must fall back to its pre-load goroutine count — a
	// bounded surplus allows for connection teardown still in flight.
	client.CloseIdleConnections()
	for i, r := range replicas {
		if err := waitGoroutinesBelow(client, r.url, baselines[i]+8, 15*time.Second); err != nil {
			return fmt.Errorf("replica %d: %w", i, err)
		}
	}
	fmt.Println("no goroutine leak across the load cycle")

	// Clean shutdown: SIGTERM drains and exits 0.
	for _, r := range replicas {
		if err := r.cmd.Process.Signal(syscall.SIGTERM); err != nil {
			return fmt.Errorf("signaling replica %d: %w", r.index, err)
		}
	}
	for _, r := range replicas {
		done := make(chan error, 1)
		go func(c *exec.Cmd) { done <- c.Wait() }(r.cmd)
		select {
		case err := <-done:
			if err != nil {
				return fmt.Errorf("replica %d exited: %w", r.index, err)
			}
		case <-time.After(30 * time.Second):
			return fmt.Errorf("replica %d did not exit after SIGTERM", r.index)
		}
	}
	fmt.Println("all replicas drained and exited cleanly")
	return nil
}

// goroutineTotal reads a replica's pprof goroutine profile (debug=1
// text form) and returns the leading "goroutine profile: total N".
func goroutineTotal(client *http.Client, url string) (int, error) {
	resp, err := client.Get(url + "/debug/pprof/goroutine?debug=1")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != 200 {
		return 0, fmt.Errorf("GET /debug/pprof/goroutine = %d", resp.StatusCode)
	}
	first, _, _ := strings.Cut(string(raw), "\n")
	var n int
	if _, err := fmt.Sscanf(first, "goroutine profile: total %d", &n); err != nil {
		return 0, fmt.Errorf("unrecognized goroutine profile header %q", first)
	}
	return n, nil
}

// waitGoroutinesBelow polls the replica's goroutine profile until the
// total drops to at most limit.
func waitGoroutinesBelow(client *http.Client, url string, limit int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	n, err := goroutineTotal(client, url)
	for {
		if err == nil && n <= limit {
			return nil
		}
		if time.Now().After(deadline) {
			if err != nil {
				return err
			}
			return fmt.Errorf("goroutine leak: %d goroutines still running, want <= %d", n, limit)
		}
		time.Sleep(50 * time.Millisecond)
		n, err = goroutineTotal(client, url)
	}
}

func waitReady(client *http.Client, url string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := client.Get(url + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == 200 {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("not ready within %s (last error: %v)", timeout, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// publish PUTs the site's model in the binary wire format.
func publish(client *http.Client, url string, s *siteFixture) error {
	var buf bytes.Buffer
	if _, err := s.model.WriteBinary(&buf); err != nil {
		return err
	}
	req, err := http.NewRequest("PUT", url+"/v1/sites/"+s.name+"/model", &buf)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		body, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("publish %s = %d: %s", s.name, resp.StatusCode, body)
	}
	return nil
}

// extractOnce sends one extraction and classifies the outcome. A 200
// must come from the requested site with subjects belonging to that
// site's world — anything else is a misroute.
func extractOnce(client *http.Client, r *replica, s *siteFixture, stats *loadStats) {
	page := s.serve[int(stats.ok.Load())%len(s.serve)]
	body := []byte(`{"pages":[{"id":` + strconv.Quote(page.ID) + `,"html":` + strconv.Quote(page.HTML) + `}]}`)
	req, err := http.NewRequest("POST", r.url+"/v1/sites/"+s.name+"/extract", bytes.NewReader(body))
	if err != nil {
		stats.errored.Add(1)
		return
	}
	resp, err := client.Do(req)
	if err != nil {
		stats.errored.Add(1)
		return
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusTooManyRequests:
		stats.shed.Add(1)
		return
	case http.StatusOK:
	default:
		raw, _ := io.ReadAll(resp.Body)
		fmt.Fprintf(os.Stderr, "replica %d: %s extract = %d: %s\n", r.index, s.name, resp.StatusCode, raw)
		stats.errored.Add(1)
		return
	}
	var out struct {
		Site    string `json:"site"`
		Triples []struct {
			Subject string `json:"subject"`
			Page    string `json:"page"`
		} `json:"triples"`
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		stats.errored.Add(1)
		return
	}
	if err := json.Unmarshal(raw, &out); err != nil {
		stats.errored.Add(1)
		return
	}
	if out.Site != s.name {
		stats.misrouted.Add(1)
		return
	}
	if len(out.Triples) == 0 {
		stats.empty.Add(1)
		return
	}
	for _, tr := range out.Triples {
		if want, ok := s.topicOf[tr.Page]; ok && tr.Subject != want {
			stats.misrouted.Add(1)
			return
		}
	}
	stats.ok.Add(1)
}
