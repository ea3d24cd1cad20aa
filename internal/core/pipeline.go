package core

import (
	"context"
	"errors"
	"runtime"
	"time"

	"ceres/internal/cluster"
	"ceres/internal/kb"
	"ceres/internal/mlr"
	"ceres/internal/obs/trace"
	"ceres/internal/par"
)

// Sentinel errors of the training/serving lifecycle. The public ceres
// package re-exports them; errors.Is works through either name.
var (
	// ErrNoPages reports an empty page set.
	ErrNoPages = errors.New("ceres: no pages")
	// ErrNotTrained reports a SiteModel with no trained cluster extractor.
	ErrNotTrained = errors.New("ceres: site model has no trained extractor")
	// ErrNoAnnotations reports that distant supervision produced too few
	// annotations to train any cluster extractor.
	ErrNoAnnotations = errors.New("ceres: no cluster produced enough annotations to train")
)

// PageSource is one raw input page.
type PageSource struct {
	ID   string
	HTML string
}

// Config assembles the options of every pipeline stage.
type Config struct {
	Topic    TopicOptions
	Relation RelationOptions
	Features FeatureOptions
	Train    TrainOptions
	Extract  ExtractOptions
	// PageCluster configures template clustering (§2.1); set
	// DisablePageClustering to treat the whole site as one template.
	PageCluster           cluster.PageClusterOptions
	DisablePageClustering bool
	// MinAnnotatedPages is the smallest number of annotated pages worth
	// training a cluster model on (default 2; the paper extracted from
	// sites with "only a few tens" of annotated pages and produced
	// nothing on sites with 1-2).
	MinAnnotatedPages int
	// Workers bounds parsing/annotation/extraction parallelism (default:
	// NumCPU, capped at 8).
	Workers int
}

func (c Config) withDefaults() Config {
	if c.MinAnnotatedPages == 0 {
		c.MinAnnotatedPages = 2
	}
	if c.Workers == 0 {
		c.Workers = defaultWorkers()
	}
	// Resolve extraction options up front so the SiteModel stores — and
	// serializes — resolved values, the same convention the featurizer
	// follows. This is what lets an Explicit() zero survive a WriteBinary/
	// RestoreSiteModel round trip.
	c.Extract = c.Extract.withDefaults()
	return c
}

func defaultWorkers() int {
	w := runtime.NumCPU()
	if w > 8 {
		w = 8
	}
	return w
}

// ClusterResult is the pipeline output for one template cluster.
type ClusterResult struct {
	// PageIdxs indexes into Result.Pages.
	PageIdxs   []int
	Annotation *AnnotationResult
	// Model is nil when the cluster had too few annotated pages.
	Model *Model
	// Trained reports whether extraction ran for this cluster.
	Trained bool
	// Fit reports how the classifier fit went (zero when untrained); the
	// same counters ride on the trace's fit span.
	Fit mlr.FitStats
}

// Result is the full pipeline output for one site.
type Result struct {
	Pages    []*Page
	Clusters []*ClusterResult
	// Extractions pools all clusters' extractions, unthresholded.
	Extractions []Extraction
}

// NumAnnotations counts positive labels across clusters.
func (r *Result) NumAnnotations() int {
	n := 0
	for _, c := range r.Clusters {
		if c.Annotation != nil {
			n += len(c.Annotation.Annotations)
		}
	}
	return n
}

// NumAnnotatedPages counts pages that produced annotations.
func (r *Result) NumAnnotatedPages() int {
	n := 0
	for _, c := range r.Clusters {
		if c.Annotation != nil {
			n += c.Annotation.NumAnnotatedPages()
		}
	}
	return n
}

// Run executes the CERES pipeline on one site: parse, cluster templates,
// annotate, train, extract (Figure 3's architecture). It is TrainSite
// followed by extraction over the same pages, with each page served by the
// cluster it was assigned to during training.
func Run(ctx context.Context, sources []PageSource, K *kb.KB, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	sm, res, err := TrainSite(ctx, sources, K, cfg)
	if err != nil {
		return nil, err
	}
	for ci, cr := range res.Clusters {
		exts, err := extractGroup(ctx, res.Pages, cr.PageIdxs, sm.Clusters[ci].Model, cfg.Extract, cfg.Workers)
		if err != nil {
			return nil, err
		}
		res.Extractions = append(res.Extractions, exts...)
	}
	return res, nil
}

// TrainSite runs the training phase only — parse, cluster, annotate, train
// — and returns both the serving artifact (the SiteModel) and the full
// training trace (parsed pages, per-cluster annotations). Untrainable
// clusters still appear in the SiteModel so serve-time routing can send
// their pages somewhere deterministic. It is PrepareSite and Prepared.Fit
// back to back with everything kept; a caller that wants only the model
// drops the Result between the two (ceres.Pipeline.Train).
func TrainSite(ctx context.Context, sources []PageSource, K *kb.KB, cfg Config) (*SiteModel, *Result, error) {
	prep, res, err := PrepareSite(ctx, sources, K, cfg)
	if err != nil {
		return nil, nil, err
	}
	if err := prep.Fit(ctx); err != nil {
		return nil, nil, err
	}
	for _, f := range prep.Fits {
		cr := res.Clusters[f.Cluster]
		cr.Model, cr.Trained, cr.Fit = prep.Site.Clusters[f.Cluster].Model, true, f.Stats
	}
	return prep.Site, res, nil
}

// Prepared is a site between the two halves of training. Everything that
// reads pages is done: Site has every cluster's exemplar and statistics,
// and Fits has, per trainable cluster, what its optimizer still has to
// run over. Nothing reachable from a Prepared references a *Page, a
// *dom.Node or an mlr.Dataset, so a caller that drops the Result — the
// parsed pages, by far the largest thing training builds — before Fit
// fits in the memory of the distinct training rows.
type Prepared struct {
	Site *SiteModel
	// Fits lists the trainable clusters in cluster order.
	Fits []*ClusterFit
}

// ClusterFit is one trainable cluster's pending fit.
type ClusterFit struct {
	// Cluster indexes Prepared.Site.Clusters (and Result.Clusters).
	Cluster int
	// Stats reports how the fit went, once Prepared.Fit has run it.
	Stats mlr.FitStats

	pending *PendingModel
	build   time.Duration // featurizer and example building, in PrepareSite
}

// PrepareSite is the page-holding half of training: parse, cluster, and
// per cluster annotate, build the featurizer and the examples and collapse
// them to the rows the classifier is fitted on. The Result is the training
// trace; its clusters' Model, Trained and Fit are not filled in (TrainSite
// does that after fitting).
func PrepareSite(ctx context.Context, sources []PageSource, K *kb.KB, cfg Config) (*Prepared, *Result, error) {
	cfg = cfg.withDefaults()
	if len(sources) == 0 {
		return nil, nil, ErrNoPages
	}
	// Training is traced through the caller's context: a span installed
	// there (batch model resolution, an instrumented CLI) gets children
	// for each pipeline stage; an untraced context costs one Value read.
	tsp := trace.FromContext(ctx)
	psp := tsp.StartChild("parse")
	pages, err := ParsePages(ctx, sources, cfg.Workers)
	psp.EndErr(err)
	if err != nil {
		return nil, nil, err
	}

	csp := tsp.StartChild("cluster")
	var sigs []cluster.PageSignature
	var groups [][]int
	if cfg.DisablePageClustering {
		all := make([]int, len(pages))
		for i := range all {
			all[i] = i
		}
		groups = [][]int{all}
		// Only the single group's exemplar signature is needed.
		sigs = []cluster.PageSignature{cluster.Signature(pages[0].Doc)}
	} else {
		sigs = make([]cluster.PageSignature, len(pages))
		if err := par.For(ctx, len(pages), cfg.Workers, func(_, i int) {
			sigs[i] = cluster.Signature(pages[i].Doc)
		}); err != nil {
			csp.EndErr(err)
			return nil, nil, err
		}
		groups = cluster.ClusterPages(sigs, cfg.PageCluster)
	}
	csp.SetInt("clusters", int64(len(groups)))
	csp.End()

	prep := &Prepared{Site: &SiteModel{
		Extract:    cfg.Extract,
		TrainPages: len(pages),
	}}
	res := &Result{Pages: pages}
	for ci, group := range groups {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		cr, fit, err := prepareCluster(ctx, pages, group, K, cfg)
		if err != nil {
			return nil, nil, err
		}
		res.Clusters = append(res.Clusters, cr)
		prep.Site.Clusters = append(prep.Site.Clusters, &ClusterModel{
			// ClusterPages founds each cluster on its first member, so
			// that page's signature is the cluster exemplar.
			Exemplar:       sigs[group[0]],
			Pages:          len(group),
			AnnotatedPages: cr.Annotation.NumAnnotatedPages(),
			Annotations:    len(cr.Annotation.Annotations),
		})
		if fit != nil {
			fit.Cluster = ci
			prep.Fits = append(prep.Fits, fit)
		}
	}
	probeTraining("prepared")
	return prep, res, nil
}

// Fit is the page-free half of training: it runs the pending fits in
// cluster order and gives each trainable cluster of Site its model. Only
// a cancelled ctx makes it fail — everything a fit can reject was checked
// when it was prepared. Each fit is traced as a "fit" child of ctx's span
// whose duration is the cluster's example building plus its optimizer run,
// wherever in the training the two happened.
func (p *Prepared) Fit(ctx context.Context) error {
	tsp := trace.FromContext(ctx)
	for _, f := range p.Fits {
		if err := ctx.Err(); err != nil {
			return err
		}
		start := time.Now()
		model, stats := f.pending.Fit()
		f.Stats, f.pending = stats, nil
		cm := p.Site.Clusters[f.Cluster]
		cm.Model, cm.Trained = model, true
		fsp := tsp.AddTimed("fit", f.build+time.Since(start))
		fsp.SetInt("examples", int64(stats.Examples))
		fsp.SetInt("rows", int64(stats.Rows))
		fsp.SetInt("iters", int64(stats.Iters))
		fsp.SetInt("evals", int64(stats.Evals))
		if stats.Converged {
			fsp.SetInt("converged", 1)
		} else {
			fsp.SetInt("converged", 0)
		}
	}
	return nil
}

// ParsePages parses page sources on up to workers goroutines (0 or 1: on
// the caller's), preserving order. A cancelled ctx stops it with
// ctx.Err().
func ParsePages(ctx context.Context, sources []PageSource, workers int) ([]*Page, error) {
	pages := make([]*Page, len(sources))
	err := par.For(ctx, len(sources), workers, func(_, i int) {
		pages[i] = PreparePage(sources[i].ID, sources[i].HTML)
	})
	if err != nil {
		return nil, err
	}
	return pages, nil
}

// prepareCluster annotates one template cluster and, when enough of its
// pages were annotated to train on, builds what its fit needs. A nil fit
// with a nil error is an untrainable cluster.
func prepareCluster(ctx context.Context, pages []*Page, group []int, K *kb.KB, cfg Config) (*ClusterResult, *ClusterFit, error) {
	sub := make([]*Page, len(group))
	for i, pi := range group {
		sub[i] = pages[pi]
	}
	actx, asp := trace.StartSpan(ctx, "annotate")
	asp.SetInt("pages", int64(len(sub)))
	ann, err := Annotate(actx, sub, K, cfg.Topic, cfg.Relation, cfg.Workers)
	asp.EndErr(err)
	if err != nil {
		return nil, nil, err
	}
	cr := &ClusterResult{PageIdxs: group, Annotation: ann}
	if ann.NumAnnotatedPages() < cfg.MinAnnotatedPages {
		return cr, nil, nil
	}
	start := time.Now()
	fz := NewFeaturizer(sub, cfg.Features)
	ds, classes := BuildExamples(sub, ann, fz, cfg.Train)
	if classes.Len() < 2 || ds.Len() == 0 {
		trace.FromContext(ctx).AddTimed("fit", time.Since(start))
		return cr, nil, nil
	}
	fz.Freeze()
	pending, err := PrepareModel(ds, classes, fz, cfg.Train)
	if err != nil {
		trace.FromContext(ctx).AddTimed("fit", time.Since(start)).SetErr(err)
		return nil, nil, err
	}
	return cr, &ClusterFit{pending: pending, build: time.Since(start)}, nil
}

// extractGroup applies one cluster's model to the listed pages, pooling
// extractions in page order. A nil model (untrained cluster) yields none.
func extractGroup(ctx context.Context, pages []*Page, group []int, m *Model, opts ExtractOptions, workers int) ([]Extraction, error) {
	if m == nil {
		return nil, nil
	}
	perPage := make([][]Extraction, len(group))
	if err := par.For(ctx, len(group), workers, func(_, i int) {
		perPage[i] = ExtractPage(pages[group[i]], m, opts)
	}); err != nil {
		return nil, err
	}
	var out []Extraction
	for _, exts := range perPage {
		out = append(out, exts...)
	}
	return out, nil
}
