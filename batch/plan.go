package batch

import (
	"fmt"

	"ceres"
)

// Job specifies one batch harvest.
type Job struct {
	// Sites restricts the harvest to these provider sites, in the given
	// order; empty harvests every provider site in sorted order. The site
	// order is the plan order: shards execute roughly in it, and the
	// fusion stage replays it exactly.
	Sites []string
	// ShardPages is the page count of one shard — the unit of
	// parallelism, checkpointing and memory (default 64). A worker holds
	// at most one shard's pages and triples.
	ShardPages int
	// Workers bounds how many shards run, or sites resolve, at once
	// (default 4); the pages of one shard are extracted in order.
	Workers int
	// TrainPages caps how many of a site's leading pages feed training
	// when the site has no published model (0 = all of the site's pages).
	TrainPages int
	// Fuse enables the streaming fusion stage after the last shard; it
	// requires the sink to implement Replayer.
	Fuse bool
	// Fusion tunes the fusion stage.
	Fusion ceres.FusionOptions
}

func (j Job) shardPages() int {
	if j.ShardPages > 0 {
		return j.ShardPages
	}
	return 64
}

func (j Job) workers() int {
	if j.Workers > 0 {
		return j.Workers
	}
	return 4
}

// Shard is one contiguous page range of one site — the unit of execution
// and checkpointing.
type Shard struct {
	// Site is the site the pages belong to.
	Site string
	// Index is the shard's ordinal within the site, from 0.
	Index int
	// Start is the first page offset; Pages is the range length.
	Start, Pages int
}

// SitePlan summarizes one site of a plan.
type SitePlan struct {
	Site   string
	Pages  int
	Shards int
}

// Plan is the sharded layout of a job over a provider: every site's page
// range cut into ShardPages-sized shards. Plans are deterministic — same
// job over the same corpus, same plan — which is what lets a checkpoint
// manifest name shards by (site, index) across process restarts.
type Plan struct {
	ShardPages int
	Sites      []SitePlan
	Shards     []Shard
}

// PlanJob shards every site of the job over the provider. Duplicate
// sites in Job.Sites are rejected, and every named site must exist in the
// provider.
func PlanJob(job Job, provider PageProvider) (*Plan, error) {
	sites := job.Sites
	if len(sites) == 0 {
		var err error
		sites, err = provider.Sites()
		if err != nil {
			return nil, fmt.Errorf("batch: planning job: %w", err)
		}
	} else {
		seen := make(map[string]bool, len(sites))
		for _, s := range sites {
			if seen[s] {
				return nil, fmt.Errorf("batch: planning job: duplicate site %q", s)
			}
			seen[s] = true
		}
	}
	plan := &Plan{ShardPages: job.shardPages()}
	for _, site := range sites {
		n, err := provider.PageCount(site)
		if err != nil {
			return nil, fmt.Errorf("batch: planning job: %w", err)
		}
		sp := SitePlan{Site: site, Pages: n}
		for off := 0; off < n; off += plan.ShardPages {
			pages := plan.ShardPages
			if off+pages > n {
				pages = n - off
			}
			plan.Shards = append(plan.Shards, Shard{Site: site, Index: sp.Shards, Start: off, Pages: pages})
			sp.Shards++
		}
		plan.Sites = append(plan.Sites, sp)
	}
	return plan, nil
}
