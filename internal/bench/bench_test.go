package bench

import (
	"sync/atomic"
	"testing"
	"time"
)

func TestRunCountsOps(t *testing.T) {
	r := Run("test", 2, 10*time.Millisecond, 50*time.Millisecond,
		func(wid int, stop *atomic.Bool, ops, aborts *atomic.Uint64) {
			for !stop.Load() {
				ops.Add(1)
				if wid == 1 {
					aborts.Add(1)
				}
				time.Sleep(100 * time.Microsecond)
			}
		})
	if r.Ops == 0 {
		t.Fatal("no ops counted")
	}
	if r.Aborts == 0 {
		t.Fatal("no aborts counted")
	}
	if r.TPS() <= 0 || r.PerCore() <= 0 {
		t.Fatal("rates non-positive")
	}
	if r.String() == "" {
		t.Fatal("empty String")
	}
}

func TestMedianPicksMiddle(t *testing.T) {
	i := 0
	tps := []uint64{100, 300, 200}
	r := Median(3, func() Result {
		res := Result{Ops: tps[i], Duration: time.Second}
		i++
		return res
	})
	if r.Ops != 200 {
		t.Fatalf("median ops=%d", r.Ops)
	}
	one := Median(1, func() Result { return Result{Ops: 7, Duration: time.Second} })
	if one.Ops != 7 {
		t.Fatal("n=1 short-circuit")
	}
}
