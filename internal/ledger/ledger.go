// Package ledger checks the repository's count ledger. A row is one count
// a claim rests on — allocations, heap bytes, write syscalls, dispatches,
// leaf fill, demand-closed epochs — measured on a fixed, seeded shape with
// no wall clock in it, and held to a bound. Each package that pays such a
// count measures its rows in a TestLedger and hands them to Check, so
//
//	go test -run Ledger -v ./...
//
// prints the whole table and a row outside its bound fails tier-1.
package ledger

import (
	"fmt"
	"math"
	"testing"

	"silo/internal/race"
)

// Row is one count and the bound it is held to.
type Row struct {
	Layer string // the package that pays the count
	Count string // the unit, then the shape it is measured on
	Bound Bound
	Claim string // the claim the bound checks
	How   string // how Got measures the count
	// Race marks a count the race detector's instrumentation changes
	// (allocations, heap bytes): under -race the row is printed, not
	// measured.
	Race bool
	Got  func() float64
}

// Bound is the closed range a count must fall in.
type Bound struct{ Min, Max float64 }

func AtMost(v float64) Bound  { return Bound{math.Inf(-1), v} }
func AtLeast(v float64) Bound { return Bound{v, math.Inf(1)} }
func Exactly(v float64) Bound { return Bound{v, v} }

func (b Bound) String() string {
	switch {
	case b.Min == b.Max:
		return fmt.Sprintf("= %g", b.Min)
	case math.IsInf(b.Min, -1):
		return fmt.Sprintf("≤ %g", b.Max)
	}
	return fmt.Sprintf("≥ %g", b.Min)
}

// Check measures the rows in order on t's goroutine, logs each as layer,
// count, measured value, bound and claim, under how it was measured
// whenever that changes, and fails t for every row outside its bound.
func Check(t testing.TB, rows ...Row) {
	t.Helper()
	how := ""
	for _, r := range rows {
		if r.How != how {
			how = r.How
			t.Logf("measured by %s:", how)
		}
		got, ok := "skipped", true
		if !r.Race || !race.Enabled {
			v := r.Got()
			got, ok = fmt.Sprintf("%.4g", v), v >= r.Bound.Min && v <= r.Bound.Max
		}
		t.Logf("  %-8s %-50s %9s %-7s %s", r.Layer, r.Count, got, r.Bound, r.Claim)
		if !ok {
			t.Errorf("%s %s = %s, outside %s: %s", r.Layer, r.Count, got, r.Bound, r.Claim)
		}
	}
}

// Once returns a function that runs measure on its first call and returns
// that result on every call, so that several rows can read one run. It is
// for Check's single goroutine only.
func Once[T any](measure func() T) func() T {
	var v T
	done := false
	return func() T {
		if !done {
			v, done = measure(), true
		}
		return v
	}
}
