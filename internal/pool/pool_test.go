package pool

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestSize(t *testing.T) {
	for _, c := range []struct{ par, n, want int }{
		{1, 10, 1}, {4, 10, 4}, {4, 2, 2}, {4, 0, 1}, {0, 1 << 20, runtime.NumCPU()}, {-3, 1 << 20, runtime.NumCPU()},
	} {
		if got := Size(c.par, c.n); got != c.want {
			t.Errorf("Size(%d, %d) = %d, want %d", c.par, c.n, got, c.want)
		}
	}
}

// TestRunVisitsEveryIndexOnce checks that every index runs exactly once,
// on a worker below Size, inline and in order at size 1.
func TestRunVisitsEveryIndexOnce(t *testing.T) {
	for _, par := range []int{1, 2, 4} {
		const n = 1000
		var hits [n]atomic.Int32
		var order []int
		Run(par, n, func(w, i int) {
			if w < 0 || w >= Size(par, n) {
				t.Errorf("par %d: worker %d out of range", par, w)
			}
			hits[i].Add(1)
			if par == 1 {
				order = append(order, i)
			}
		})
		for i := range hits {
			if h := hits[i].Load(); h != 1 {
				t.Fatalf("par %d: index %d ran %d times", par, i, h)
			}
		}
		for i, x := range order {
			if x != i {
				t.Fatalf("par 1: task %d ran at position %d", x, i)
			}
		}
	}
	Run(4, 0, func(int, int) { t.Fatal("task ran for n = 0") })
}
