package main

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"

	"ceres"
	"ceres/internal/binmodel"
	"ceres/internal/dom"
)

// probeInput is what the in-process layer probes of a traced run work
// on: the workload's own pages, models, seed KBs and extracted triples.
type probeInput struct {
	sites       []string
	pages       map[string][]ceres.PageSource // a sample per site
	models      map[string]*ceres.SiteModel
	kbs         []*ceres.KB
	storeDir    string // a DirStore holding the models, for the registry boot
	scratch     string // a directory the probes may write into
	pagesPerReq int
	triples     func(yield func(site string, t ceres.Triple)) error
}

// probeLayers calls each layer's public entry points directly on the
// workload's inputs, one span per call, so a layer's cost can be read
// without the layers above it. Sites whose model is missing (skipped by
// the harvest) contribute to the lexer probes only.
func probeLayers(ctx context.Context, log *spanLog, in probeInput) error {
	root := log.open(nil, "probe")
	defer root.end(0)

	for _, site := range in.sites {
		for _, p := range in.pages[site] {
			raw := []byte(p.HTML)
			sp := log.open(root, "dom.StreamFields")
			dom.StreamFields(raw, func(*dom.StreamField) {})
			sp.end(float64(len(raw)))

			sp = log.open(root, "dom.Parse")
			dom.Parse(p.HTML).Release()
			sp.end(float64(len(raw)))
		}
	}

	reg := ceres.NewRegistry()
	for _, site := range in.sites {
		if m := in.models[site]; m != nil {
			reg.Publish(site, 1, m)
		}
	}
	svc := ceres.NewService(reg)
	for _, site := range in.sites {
		pages := in.pages[site]
		if in.models[site] == nil || len(pages) == 0 {
			continue
		}
		for lo := 0; lo < len(pages); lo += in.pagesPerReq {
			hi := min(lo+in.pagesPerReq, len(pages))
			sp := log.open(root, "ceres.Service.Extract")
			if _, err := svc.Extract(ctx, ceres.ExtractRequest{Site: site, Pages: pages[lo:hi]}); err != nil {
				return fmt.Errorf("probe Service.Extract %s: %w", site, err)
			}
			sp.end(float64(hi - lo))
		}
		raw := make([][]byte, len(pages))
		for i, p := range pages {
			raw[i] = []byte(p.HTML)
		}
		sp := log.open(root, "ceres.Service.ExtractScan")
		_, err := svc.ExtractScan(ctx, site, ceres.RequestOptions{}, func(yield func(id string, html []byte) error) error {
			for i, p := range pages {
				if err := yield(p.ID, raw[i]); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("probe Service.ExtractScan %s: %w", site, err)
		}
		sp.end(float64(len(pages)))
	}

	scratch, err := ceres.NewDirStore(filepath.Join(in.scratch, "probe-store"))
	if err != nil {
		return err
	}
	for _, site := range in.sites {
		m := in.models[site]
		if m == nil {
			continue
		}
		var buf bytes.Buffer
		sp := log.open(root, "binmodel.Write")
		if _, err := m.WriteBinary(&buf); err != nil {
			return err
		}
		sp.end(float64(buf.Len()))
		sp = log.open(root, "binmodel.Decode")
		if _, _, err := binmodel.Decode(buf.Bytes()); err != nil {
			return err
		}
		sp.end(float64(buf.Len()))
		sp = log.open(root, "ceres.DirStore.Publish")
		if _, err := scratch.Publish(site, m); err != nil {
			return err
		}
		sp.end(1)
	}

	store, err := ceres.NewDirStore(in.storeDir)
	if err != nil {
		return err
	}
	sp := log.open(root, "ceres.OpenRegistry")
	booted, err := ceres.OpenRegistry(ctx, store)
	if err != nil {
		return err
	}
	sp.end(float64(booted.Len()))

	for _, k := range in.kbs {
		// BuildIndex caches on the KB, and training has already built
		// it; a round trip through the TSV form gives a cold copy.
		var buf bytes.Buffer
		if err := k.Write(&buf); err != nil {
			return err
		}
		cold, err := ceres.ReadKB(&buf)
		if err != nil {
			return err
		}
		sp := log.open(root, "kb.BuildIndex")
		ix := cold.BuildIndex()
		sp.end(float64(ix.NumTriples()))
	}

	fuser := ceres.NewFuser(ceres.FusionOptions{})
	triples := 0
	sp = log.open(root, "fusion.Observe")
	err = in.triples(func(site string, t ceres.Triple) {
		fuser.ObserveTriple(site, t)
		triples++
	})
	sp.end(float64(triples))
	if err != nil {
		return err
	}
	sp = log.open(root, "fusion.Facts")
	facts := fuser.Facts()
	sp.end(float64(len(facts)))
	return nil
}

// ratio is a/b, 0 when there is nothing to divide by.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// per returns a's summed duration in unit (ns per unit) per count.
func (a *agg) per(unit float64, count float64) float64 {
	if a == nil || count == 0 {
		return 0
	}
	return float64(a.dur) / unit / count
}

// layerMetrics turns the aggregated spans that every traced workload
// records — the probes and the training spans — into per-layer metrics.
func layerMetrics(a map[string]*agg, got map[string]float64) {
	const usec, msec = 1e3, 1e6
	count := func(name string) float64 {
		if a[name] == nil {
			return 0
		}
		return float64(a[name].count)
	}
	n := func(name string) float64 {
		if a[name] == nil {
			return 0
		}
		return a[name].n
	}
	mbPerS := func(name string) float64 {
		if a[name] == nil {
			return 0
		}
		return ratio(a[name].n/(1<<20), float64(a[name].dur)/1e9)
	}
	got["dom.stream_us_per_page"] = a["dom.StreamFields"].per(usec, count("dom.StreamFields"))
	got["dom.stream_mb_per_s"] = mbPerS("dom.StreamFields")
	got["dom.parse_us_per_page"] = a["dom.Parse"].per(usec, count("dom.Parse"))
	got["dom.parse_mb_per_s"] = mbPerS("dom.Parse")

	got["ceres.service.extract_inproc_us_per_page"] = a["ceres.Service.Extract"].per(usec, n("ceres.Service.Extract"))
	got["ceres.service.scan_inproc_us_per_page"] = a["ceres.Service.ExtractScan"].per(usec, n("ceres.Service.ExtractScan"))
	got["ceres.registry.boot_ms"] = a["ceres.OpenRegistry"].per(msec, count("ceres.OpenRegistry"))
	got["ceres.store.publish_ms"] = a["ceres.DirStore.Publish"].per(msec, count("ceres.DirStore.Publish"))

	got["binmodel.encode_us_per_model"] = a["binmodel.Write"].per(usec, count("binmodel.Write"))
	got["binmodel.decode_us_per_model"] = a["binmodel.Decode"].per(usec, count("binmodel.Decode"))
	got["binmodel.bytes_per_model"] = ratio(n("binmodel.Write"), count("binmodel.Write"))
	got["kb.build_index_ms"] = a["kb.BuildIndex"].per(msec, count("kb.BuildIndex"))

	got["fusion.observe_ns_per_triple"] = a["fusion.Observe"].per(1, n("fusion.Observe"))
	got["fusion.facts_ms"] = a["fusion.Facts"].per(msec, count("fusion.Facts"))
	got["fusion.facts_per_triple"] = ratio(n("fusion.Facts"), n("fusion.Observe"))

	// Training: one ceres.Pipeline.Train span per site the workload
	// trained, with the pipeline's own stage spans below it.
	sites := count("ceres.Pipeline.Train")
	got["core.train_site_ms"] = a["ceres.Pipeline.Train"].per(msec, sites)
	got["core.parse_pages_ms"] = a["core.train.parse_pages"].per(msec, sites)
	got["core.annotate_ms"] = a["core.train.annotate"].per(msec, sites)
	got["core.fit_ms"] = a["core.train.fit"].per(msec, 1)
	got["cluster.cluster_ms_per_site"] = a["cluster.ClusterPages"].per(msec, sites)
	got["mlr.fit_ms_per_site"] = a["core.train.fit"].per(msec, sites)
}

// modelShares reports how much of the training input the models could
// use: pages the seed KB annotated over pages trained on, and clusters
// with an extractor over template clusters found.
func modelShares(models map[string]*ceres.SiteModel, annotated map[string]int, got map[string]float64) {
	var trainPages, annPages, clusters, trained int
	for site, m := range models {
		if m == nil {
			continue
		}
		trainPages += m.TrainPages()
		annPages += annotated[site]
		clusters += m.TemplateClusters()
		trained += m.TrainedClusters()
	}
	got["core.annotated_pages_share"] = ratio(float64(annPages), float64(trainPages))
	got["core.trained_clusters_share"] = ratio(float64(trained), float64(clusters))
}
