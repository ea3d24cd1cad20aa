package lib

import (
	"context"

	fan "ceres/internal/par"
)

// ParFor fans out through ceres/internal/par, imported under another
// name, with no way to cancel the fan-out.
func ParFor(n int) { // want "no context.Context parameter"
	_ = fan.For(bg, n, 2, func(_, _ int) {})
}

// ParOrdered threads its context into par.Ordered and stays silent.
func ParOrdered(ctx context.Context, n int) error {
	return fan.Ordered(ctx, n, 2, func(_, _ int, _ *int) {}, func(int, *int) error { return nil })
}

// ParOrderedDropped instantiates par.Ordered explicitly and hands it a
// context other than its own.
func ParOrderedDropped(ctx context.Context, n int) error { // want "never uses its context.Context parameter"
	return fan.Ordered[int](bg, n, 2, func(_, _ int, _ *int) {}, func(int, *int) error { return nil })
}

// bg stands in for a context the caller did not pass.
var bg context.Context
