// Command ceres-bench regenerates the tables and figures of the paper's
// evaluation section over the synthetic corpora (see DESIGN.md §1 for the
// data substitutions).
//
// Usage:
//
//	ceres-bench                  # run everything at the default scale
//	ceres-bench table3 figure6   # run specific experiments
//	ceres-bench -quick table5    # reduced scale
//	ceres-bench -list
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ceres/internal/bench"
)

func main() {
	quick := flag.Bool("quick", false, "reduced corpus scale")
	list := flag.Bool("list", false, "list experiments and exit")
	seed := flag.Int64("seed", 1, "generator seed")
	flag.Parse()

	if *list {
		for _, e := range bench.Experiments {
			fmt.Printf("%-9s %s\n", e.ID, e.Desc)
		}
		return
	}
	cfg := bench.DefaultConfig()
	if *quick {
		cfg = bench.QuickConfig()
	}
	cfg.Seed = *seed

	// Experiments at full scale run for minutes; ^C cancels the worker
	// pools inside the pipeline instead of leaving them to finish.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	ids := flag.Args()
	if len(ids) == 0 {
		ids = bench.IDs()
	}
	for _, id := range ids {
		e, ok := bench.Lookup(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (try -list)\n", id)
			os.Exit(2)
		}
		start := time.Now()
		r := e.Run(ctx, cfg)
		if ctx.Err() != nil {
			fmt.Fprintln(os.Stderr, "ceres-bench: interrupted")
			os.Exit(130)
		}
		fmt.Print(bench.FormatReport(r))
		fmt.Printf("(%s in %.1fs)\n\n", id, time.Since(start).Seconds())
	}
}
