package core

import (
	"context"
	"errors"
	"runtime"
	"strconv"
	"time"

	"ceres/internal/cluster"
	"ceres/internal/dom"
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
	// ErrInvalidPage reports a malformed page, such as one with an empty
	// ID.
	ErrInvalidPage = errors.New("ceres: invalid page")
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

// TrainSite runs the training phase — parse, cluster, annotate, train —
// and returns the serving artifact. Untrainable clusters still appear in
// the SiteModel so serve-time routing can send their pages somewhere
// deterministic; a site with none trainable returns a model with no
// trained cluster and no error. It is PrepareSite and Prepared.Fit back to
// back: ceres.Pipeline.Train without the one-site prepare gate.
func TrainSite(ctx context.Context, sources []PageSource, ix *kb.Index, cfg Config) (*SiteModel, error) {
	prep, err := PrepareSite(ctx, sources, ix, cfg)
	if err != nil {
		return nil, err
	}
	if err := prep.Fit(ctx); err != nil {
		return nil, err
	}
	return prep.Site, nil
}

// Prepared is a site between the two halves of training. Everything that
// reads pages is done: Site has every cluster's exemplar and statistics,
// and Fits has, per trainable cluster, what its optimizer still has to
// run over. Nothing reachable from a Prepared references a *Page or an
// mlr.Dataset: the prepared pages, by far the largest thing training
// builds, are garbage once PrepareSite returns, and Fit runs in the
// memory of the distinct training rows.
type Prepared struct {
	Site *SiteModel
	// Fits lists the trainable clusters in cluster order.
	Fits []*ClusterFit
}

// ClusterFit is one trainable cluster's pending fit: its class space, the
// frozen featurizer and the training rows, and nothing of the dataset or
// the pages they came from.
type ClusterFit struct {
	// Cluster indexes Prepared.Site.Clusters.
	Cluster int
	// Stats reports how the fit went, once Prepared.Fit has run it.
	Stats mlr.FitStats

	model *Model        // Classes and Featurizer set; naive Bayes already counted
	lr    *mlr.Fit      // nil for naive Bayes, and once the fit has run
	build time.Duration // featurizer and example building, in PrepareSite
}

// PrepareSite is the page-holding half of training: parse, cluster, and
// per cluster annotate, build the featurizer and the examples and collapse
// them to the rows the classifier is fitted on.
func PrepareSite(ctx context.Context, sources []PageSource, ix *kb.Index, cfg Config) (*Prepared, error) {
	cfg = cfg.withDefaults()
	if len(sources) == 0 {
		return nil, ErrNoPages
	}
	// Training is traced through the caller's context: a span installed
	// there (batch model resolution, an instrumented CLI) gets children
	// for each pipeline stage; an untraced context costs one Value read.
	tsp := trace.FromContext(ctx)
	psp := tsp.StartChild("parse")
	pages, err := ParsePages(ctx, sources, cfg.Workers)
	psp.EndErr(err)
	if err != nil {
		return nil, err
	}

	csp := tsp.StartChild("cluster")
	// Signatures key elements by tag and class; they read no text.
	streamers := newStreamers(cfg.Workers, dom.StreamOptions{Attrs: []string{"class"}, Signature: true})
	var sigs []cluster.PageSignature
	var groups [][]int
	if cfg.DisablePageClustering {
		all := make([]int, len(pages))
		for i := range all {
			all[i] = i
		}
		groups = [][]int{all}
		// Only the single group's exemplar signature is needed.
		sigs = []cluster.PageSignature{streamers[0].signature(pages[0])}
	} else {
		sigs = make([]cluster.PageSignature, len(pages))
		if err := par.For(ctx, len(pages), cfg.Workers, func(w, i int) {
			sigs[i] = streamers[w].signature(pages[i])
		}); err != nil {
			csp.EndErr(err)
			return nil, err
		}
		groups = cluster.ClusterPages(sigs, cfg.PageCluster)
	}
	csp.SetInt("clusters", int64(len(groups)))
	csp.End()
	probeTraining("parsed", pages)

	prep := &Prepared{Site: &SiteModel{
		Extract:    cfg.Extract,
		TrainPages: len(pages),
	}}
	for ci, group := range groups {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		ann, fit, err := prepareCluster(ctx, pages, group, ix, cfg)
		if err != nil {
			return nil, err
		}
		prep.Site.Clusters = append(prep.Site.Clusters, &ClusterModel{
			// ClusterPages founds each cluster on its first member, so
			// that page's signature is the cluster exemplar.
			Exemplar:       sigs[group[0]],
			Pages:          len(group),
			AnnotatedPages: ann.NumAnnotatedPages(),
			Annotations:    len(ann.Annotations),
		})
		if fit != nil {
			fit.Cluster = ci
			prep.Fits = append(prep.Fits, fit)
		}
	}
	return prep, nil
}

// Fit is the page-free half of training: it runs the pending fits in
// cluster order and gives each trainable cluster of Site its model. Only
// a cancelled ctx makes it fail — everything a fit can reject was checked
// when it was prepared. Each fit is traced as a "fit" child of ctx's span
// whose duration is the cluster's example building plus its optimizer run,
// wherever in the training the two happened; its attributes are the fit's
// FitStats, the final ‖g‖∞ (grad_inf) written exactly as a decimal.
func (p *Prepared) Fit(ctx context.Context) error {
	tsp := trace.FromContext(ctx)
	for _, f := range p.Fits {
		if err := ctx.Err(); err != nil {
			return err
		}
		start := time.Now()
		cm := p.Site.Clusters[f.Cluster]
		cm.Model, cm.Trained = f.fit(), true
		fsp := tsp.AddTimed("fit", f.build+time.Since(start))
		fsp.SetInt("examples", int64(f.Stats.Examples))
		fsp.SetInt("rows", int64(f.Stats.Rows))
		fsp.SetInt("columns", int64(f.Stats.Columns))
		fsp.SetInt("iters", int64(f.Stats.Iters))
		fsp.SetInt("evals", int64(f.Stats.Evals))
		fsp.SetInt("hess_vecs", int64(f.Stats.HessVecs))
		fsp.SetStr("grad_inf", strconv.FormatFloat(f.Stats.GradNorm, 'g', -1, 64))
		if f.Stats.Converged {
			fsp.SetInt("converged", 1)
		} else {
			fsp.SetInt("converged", 0)
		}
	}
	return nil
}

// ParsePages prepares page sources on up to workers goroutines (0 or 1:
// on the caller's), preserving order. A cancelled ctx stops it with
// ctx.Err().
func ParsePages(ctx context.Context, sources []PageSource, workers int) ([]*Page, error) {
	pages := make([]*Page, len(sources))
	streamers := newStreamers(workers, dom.StreamOptions{})
	err := par.For(ctx, len(sources), workers, func(w, i int) {
		pages[i] = streamers[w].prepare(sources[i].ID, sources[i].HTML)
	})
	if err != nil {
		return nil, err
	}
	return pages, nil
}

// prepareCluster annotates one template cluster and, when enough of its
// pages were annotated to train on, builds what its fit needs. A nil fit
// with a nil error is an untrainable cluster.
func prepareCluster(ctx context.Context, pages []*Page, group []int, ix *kb.Index, cfg Config) (*AnnotationResult, *ClusterFit, error) {
	sub := make([]*Page, len(group))
	for i, pi := range group {
		sub[i] = pages[pi]
	}
	actx, asp := trace.StartSpan(ctx, "annotate")
	asp.SetInt("pages", int64(len(sub)))
	ann, err := Annotate(actx, sub, ix, cfg.Topic, cfg.Relation, cfg.Workers)
	asp.EndErr(err)
	if err != nil {
		return nil, nil, err
	}
	if ann.NumAnnotatedPages() < cfg.MinAnnotatedPages {
		return ann, nil, nil
	}
	start := time.Now()
	fz := NewFeaturizer(sub, cfg.Features)
	ds, classes := BuildExamples(sub, ann, fz, cfg.Train)
	if classes.Len() < 2 || ds.Len() == 0 {
		trace.FromContext(ctx).AddTimed("fit", time.Since(start))
		return ann, nil, nil
	}
	fz.Freeze()
	fit, err := newClusterFit(ds, classes, fz, cfg.Train)
	if err != nil {
		trace.FromContext(ctx).AddTimed("fit", time.Since(start)).SetErr(err)
		return nil, nil, err
	}
	fit.build = time.Since(start)
	return ann, fit, nil
}
