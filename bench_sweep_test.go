package eend_test

import (
	"context"
	"fmt"
	"testing"

	"eend/sweep"
)

// BenchmarkSweepWarmPass is an unchanged grid re-run: one op is a full pass
// of the 120-point paper grid (six stacks, 20 and 50 nodes, ten seeds)
// through a new sweep.Runner over a warm on-disk cache, every point a hit.
// The workers pair shows the cache pass fanning out; it lives in the
// external test package because sweep imports eend.
func BenchmarkSweepWarmPass(b *testing.B) {
	const spec = "stack=dsr/active,dsr/odpm,mtpr+/odpm,dsrh/odpm,dsdvh/odpm,titan-pc/odpm nodes=20,50 flows=4 dur=40s seed=1..10"
	ctx := context.Background()
	dir := b.TempDir()
	pass := func(workers int) sweep.Progress {
		grid, err := sweep.ParseGrid(spec)
		if err != nil {
			b.Fatal(err)
		}
		_, prog, err := sweep.Runner{Workers: workers, CacheDir: dir}.Run(ctx, grid)
		if err != nil || prog.Errors > 0 {
			b.Fatalf("sweep: %v, progress %+v", err, prog)
		}
		return prog
	}
	fill := pass(0)
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if prog := pass(workers); prog.CacheHits != fill.Total {
					b.Fatalf("warm pass answered %d of %d points from the cache", prog.CacheHits, fill.Total)
				}
			}
			b.ReportMetric(float64(fill.Total*b.N)/b.Elapsed().Seconds(), "points/s")
		})
	}
}
