package stencil

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"stencilabft/internal/grid"
	"stencilabft/internal/num"
)

// TestPoolPersistentWorkers pins the pool's lifecycle: the workers are
// spawned once on first use (at most Workers-1 of them — the caller runs
// the final chunk) and reused across calls, and Close releases them.
func TestPoolPersistentWorkers(t *testing.T) {
	const workers = 4
	before := runtime.NumGoroutine()
	p := &Pool{Workers: workers}
	for call := 0; call < 50; call++ {
		var n int64
		p.ForEachChunk(64, func(lo, hi int) { atomic.AddInt64(&n, int64(hi-lo)) })
		if n != 64 {
			t.Fatalf("call %d covered %d of 64", call, n)
		}
	}
	during := runtime.NumGoroutine()
	if spawned := during - before; spawned > workers-1 {
		t.Fatalf("pool spawned %d goroutines over 50 calls, want at most %d persistent workers", spawned, workers-1)
	}
	p.Close()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("after Close: %d goroutines, was %d before first use", after, before)
	}
}

// TestPoolCloseUnused verifies Close on a never-used pool is a no-op.
func TestPoolCloseUnused(t *testing.T) {
	p := &Pool{Workers: 8}
	p.Close()
	p.Close() // double Close must not panic either
}

// TestPoolUseAfterClosePanics verifies a parallel call on a closed pool
// fails fast with a panic instead of hanging on a dead job channel.
func TestPoolUseAfterClosePanics(t *testing.T) {
	p := &Pool{Workers: 4}
	p.ForEachChunk(8, func(lo, hi int) {})
	p.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("ForEachChunk after Close did not panic")
		}
	}()
	p.ForEachChunk(8, func(lo, hi int) {})
}

// TestPoolSharedConcurrently drives one pool from several goroutines at
// once — the sharing pattern of dist ranks — and checks every call's
// indices are each covered exactly once.
func TestPoolSharedConcurrently(t *testing.T) {
	p := &Pool{Workers: 4}
	defer p.Close()
	const callers, n = 6, 97
	var wg sync.WaitGroup
	errs := make(chan string, callers)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 20; iter++ {
				covered := make([]int32, n)
				p.ForEachChunk(n, func(lo, hi int) {
					for i := lo; i < hi; i++ {
						atomic.AddInt32(&covered[i], 1)
					}
				})
				for i := range covered {
					if covered[i] != 1 {
						errs <- "index covered wrong number of times"
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestPoolCallerRunsFinalChunk verifies the calling goroutine executes the
// final chunk itself: with every persistent worker wedged, a call whose
// chunk count fits in the job buffer still makes progress on the caller's
// own chunk before blocking on the others.
func TestPoolCallerRunsFinalChunk(t *testing.T) {
	p := &Pool{Workers: 2} // one persistent worker + the caller
	defer p.Close()
	block := make(chan struct{})
	started := make(chan struct{})
	callerRan := make(chan int, 1)
	go func() {
		p.ForEachChunk(2, func(lo, hi int) {
			if lo == 1 { // final chunk: must run on the caller, even while the worker is wedged
				callerRan <- lo
			} else { // chunk [0,1) goes to the lone persistent worker
				close(started)
				<-block
			}
		})
	}()
	<-started
	select {
	case <-callerRan:
		// the caller made progress while the lone worker was blocked
	case <-time.After(2 * time.Second):
		t.Fatal("final chunk did not run while the persistent worker was blocked")
	}
	close(block)
}

// TestPoolSweepGrain: a pooled sweep writes the nil-pool sweep's cells and
// fused checksums bit for bit on either side of the grain — a 2-D
// rectangle and a 3-D box, each with injection sites — and only a sweep of
// at least two grains, what a pool of two splits, wakes the pool: one a
// row under starts no worker goroutine on a fresh pool.
func TestPoolSweepGrain(t *testing.T) {
	const nx = 256
	rows := 2 * sweepGrain / nx // the fewest 256-cell rows a pool of two splits
	rng := rand.New(rand.NewSource(47))
	for _, h := range []int{rows - 1, rows, rows + 1} {
		split := h >= rows

		// 2-D: rows [1, 1+h) of an (h+2)-row float64 domain.
		op := &Op2D[float64]{St: Laplace5(0.2), BC: grid.Clamp}
		src := grid.New[float64](nx, h+2)
		src.FillFunc(func(x, y int) float64 { return rng.Float64()*200 - 100 })
		sites := []Site[float64]{{X: 3, Y: 1, Mutate: func(v float64) float64 { return v + 1e3 }},
			{X: nx - 1, Y: h, Mutate: func(v float64) float64 { return -v }}}
		sweep2 := func(p *Pool) ([]float64, []float64) {
			dst, b := grid.New[float64](nx, h+2), make([]float64, h)
			dst.Fill(-7)
			op.SweepRectParallel(p, dst, src, 0, 1, nx, 1+h, b, sites)
			return dst.Data(), b
		}
		grainCase(t, fmt.Sprintf("2-D %dx%d", nx, h), split, sweep2)

		// 3-D: a 128-wide box over rows [1, 1+h) of layers [1, 3) of a
		// four-layer float32 stack, so as many cells as the 2-D rectangle.
		op3 := &Op3D[float32]{St: SevenPoint3D[float32](0.4, 0.1, 0.1, 0.1, 0.1, 0.05, 0.15), BC: grid.Periodic}
		src3 := grid.New3D[float32](nx/2, h+2, 4)
		src3.FillFunc(func(x, y, z int) float32 { return float32(rng.Float64()) })
		sites3 := []Site[float32]{{X: 5, Y: h, Z: 2, Mutate: func(v float32) float32 { return v * 3 }}}
		sweep3 := func(p *Pool) ([]float32, []float32) {
			dst := grid.New3D[float32](nx/2, h+2, 4)
			dst.Fill(-7)
			bs := [][]float32{nil, make([]float32, h+2), make([]float32, h+2), nil}
			op3.SweepLayersInject(p, dst, src3, 0, 1, 1, nx/2, 1+h, 3, bs, sites3)
			return dst.Data(), slices.Concat(bs...)
		}
		grainCase(t, fmt.Sprintf("3-D %dx%dx2", nx/2, h), split, sweep3)
	}
}

// grainCase runs sweep on the calling goroutine and on a fresh pool of two,
// requires the same bits from both, and that the pool started its worker
// exactly when split.
func grainCase[T num.Float](t *testing.T, what string, split bool, sweep func(p *Pool) (cells, b []T)) {
	t.Helper()
	wantCells, wantB := sweep(nil)
	pool := &Pool{Workers: 2}
	t.Cleanup(pool.Close)
	before := runtime.NumGoroutine()
	cells, b := sweep(pool)
	if started := pool.jobs != nil; started != split {
		t.Fatalf("%s: pool started = %v, want %v", what, started, split)
	}
	if now := runtime.NumGoroutine(); !split && now > before {
		t.Fatalf("%s: a sweep under the grain left %d goroutines, was %d", what, now, before)
	}
	for i := range wantCells {
		if !num.SameBits(cells[i], wantCells[i]) {
			t.Fatalf("%s: pooled cell %d = %v, the caller's sweep wrote %v", what, i, cells[i], wantCells[i])
		}
	}
	for i := range wantB {
		if !num.SameBits(b[i], wantB[i]) {
			t.Fatalf("%s: pooled checksum %d = %v, the caller's sweep wrote %v", what, i, b[i], wantB[i])
		}
	}
}
