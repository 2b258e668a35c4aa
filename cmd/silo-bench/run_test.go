package main

import (
	"sync/atomic"
	"testing"
	"time"
)

func TestRunCountsOps(t *testing.T) {
	r := run("test", 2, 10*time.Millisecond, 50*time.Millisecond,
		func(wid int, stop *atomic.Bool, ops, aborts *atomic.Uint64) {
			for !stop.Load() {
				ops.Add(1)
				if wid == 1 {
					aborts.Add(1)
				}
				// run measures a wall-clock window; the sleep paces
				// the fake workers so the counters stay small, not to
				// wait for anything.
				time.Sleep(100 * time.Microsecond)
			}
		})
	if r.ops == 0 {
		t.Fatal("no ops counted")
	}
	if r.aborts == 0 {
		t.Fatal("no aborts counted")
	}
	if r.tps() <= 0 {
		t.Fatal("rates non-positive")
	}
	if r.String() == "" {
		t.Fatal("empty String")
	}
}

func TestMedianPicksMiddle(t *testing.T) {
	i := 0
	tps := []uint64{100, 300, 200}
	r := median(3, func() result {
		res := result{ops: tps[i], duration: time.Second}
		i++
		return res
	})
	if r.ops != 200 {
		t.Fatalf("median ops=%d", r.ops)
	}
	one := median(1, func() result { return result{ops: 7, duration: time.Second} })
	if one.ops != 7 {
		t.Fatal("n=1 short-circuit")
	}
}
