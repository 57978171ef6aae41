// Package det (clean fixture): deterministic code the analyzer must
// not flag — slice ranges, single-binding selects, sorted map keys.
package det

import (
	"context"
	"sort"
)

func sum(xs []int) int {
	s := 0
	for _, x := range xs {
		s += x
	}
	return s
}

func one(a chan int, done chan struct{}) int {
	select {
	case v := <-a:
		return v
	case <-done:
		return 0
	}
}

// oneOrCancel is the stream stages' shape: one value-binding receive
// against the call's cancellation.
func oneOrCancel(ctx context.Context, a chan int) (int, error) {
	select {
	case v := <-a:
		return v, nil
	case <-ctx.Done():
		return 0, context.Cause(ctx)
	}
}

func sortedKeys(m map[int]int) []int {
	keys := make([]int, 0, len(m))
	//hdvlint:allow determinism -- key order is fixed by the sort below
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}
