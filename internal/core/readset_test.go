package core

import (
	"encoding/binary"
	"reflect"
	"testing"
	"unsafe"

	"silo/internal/race"
	"silo/internal/record"
)

// pointerWords counts the words of t the garbage collector must scan: one
// per pointer, slice, string, map, channel or function, two per interface.
func pointerWords(t reflect.Type) int {
	switch t.Kind() {
	case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.String,
		reflect.Map, reflect.Chan, reflect.Func:
		return 1
	case reflect.Interface:
		return 2
	case reflect.Array:
		return t.Len() * pointerWords(t.Elem())
	case reflect.Struct:
		n := 0
		for i := 0; i < t.NumField(); i++ {
			n += pointerWords(t.Field(i).Type)
		}
		return n
	}
	return 0
}

// TestTrackingEntryLayout pins the per-read and per-version costs: a
// read-set or node-set entry is the record or leaf it observed plus three
// words of integers (§4.4's read-set is a record and its TID), a snapshot
// version's GC item is four words, and an unhook item's one pointer is its
// record.
func TestTrackingEntryLayout(t *testing.T) {
	for _, c := range []struct {
		name     string
		typ      reflect.Type
		size     uintptr
		max      uintptr
		pointers int
	}{
		{"readEntry", reflect.TypeFor[readEntry](), unsafe.Sizeof(readEntry{}), 24, 1},
		{"nodeEntry", reflect.TypeFor[nodeEntry](), unsafe.Sizeof(nodeEntry{}), 24, 1},
		{"snapItem", reflect.TypeFor[snapItem](), unsafe.Sizeof(snapItem{}), 32, 2},
		{"unhookItem", reflect.TypeFor[unhookItem](), unsafe.Sizeof(unhookItem{}), 40, 1},
	} {
		if c.size > c.max {
			t.Errorf("%s is %d bytes, want at most %d", c.name, c.size, c.max)
		}
		if n := pointerWords(c.typ); n != c.pointers {
			t.Errorf("%s holds %d pointer words, want %d", c.name, n, c.pointers)
		}
	}
}

// TestDeliveryShapedReadSetAllocatesNothing: a TPC-C Delivery walks the
// tombstones in front of each district's oldest new order, thousands of
// 12-byte keys in one transaction, then updates a row. Re-run on one
// worker, such a transaction must find its key arena and read-set where
// the last run left them.
func TestDeliveryShapedReadSetAllocatesNothing(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const tombstones, live = 6000, 16
	// No reaping: at a standing epoch the collector would unhook the
	// tombstones at once, where in TPC-C they wait for the snapshot horizon.
	s := manualStore(t, 1, func(o *Options) { o.GC = false })
	newOrder, order := s.CreateTable("new_order"), s.CreateTable("order")
	w := s.Worker(0)
	key := func(i int) []byte {
		k := make([]byte, 12)
		binary.BigEndian.PutUint32(k[0:], 1)
		binary.BigEndian.PutUint32(k[4:], 1)
		binary.BigEndian.PutUint32(k[8:], uint32(i))
		return k
	}
	for lo := 0; lo < tombstones+live; lo += 500 {
		if err := w.Run(func(tx *Tx) error {
			for i := lo; i < min(lo+500, tombstones+live); i++ {
				if err := tx.Insert(newOrder, key(i), []byte("new-order")); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	for lo := 0; lo < tombstones; lo += 500 {
		if err := w.Run(func(tx *Tx) error {
			for i := lo; i < lo+500; i++ {
				if err := tx.Delete(newOrder, key(i)); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	orderKey := []byte("order-1")
	if err := w.Run(func(tx *Tx) error { return tx.Insert(order, orderKey, []byte("carrier=0")) }); err != nil {
		t.Fatal(err)
	}

	lo, hi := key(0), key(tombstones+live)
	var val, oldest []byte
	reads := 0
	delivery := func() {
		reads = 0
		if err := w.Run(func(tx *Tx) error {
			if err := tx.Scan(newOrder, lo, hi, func(k, _ []byte) bool {
				oldest = append(oldest[:0], k...)
				return false
			}); err != nil {
				return err
			}
			reads = len(tx.reads)
			var err error
			if val, err = tx.GetAppend(order, orderKey, val[:0]); err != nil {
				return err
			}
			val[len(val)-1]++
			return tx.Put(order, orderKey, val)
		}); err != nil {
			t.Fatal(err)
		}
	}
	delivery()
	if reads < tombstones {
		t.Fatalf("the scan read %d records, want the %d tombstones and more", reads, tombstones)
	}
	if n := testing.AllocsPerRun(20, delivery); n != 0 {
		t.Errorf("%v allocations per Delivery-shaped transaction in steady state, want 0", n)
	}
}

// TestWideSetsGivenBack: a worker keeps a key arena and read-set within
// their bounds for the next transaction and gives back ones grown past
// them, so one wide transaction does not pin its sets.
func TestWideSetsGivenBack(t *testing.T) {
	s := manualStore(t, 1, nil)
	tbl := s.CreateTable("t")
	w := s.Worker(0)
	rec, key := record.NewAbsent(), make([]byte, 16)
	read := func(n int) {
		tx := w.Begin()
		for i := 0; i < n; i++ {
			tx.addRead(tbl, key, rec, rec.Word())
		}
		tx.Abort()
	}
	read(1000)
	entries, keys := &w.tx.reads[:1][0], &w.tx.keys[:1][0]
	read(1000)
	if &w.tx.reads[:1][0] != entries || &w.tx.keys[:1][0] != keys {
		t.Error("a transaction within the bounds re-grew the previous one's sets")
	}
	read(2 * maxReadSet) // and 2 × maxKeyArena of keys
	if cap(w.tx.reads) > maxReadSet || cap(w.tx.keys) > maxKeyArena {
		t.Errorf("a wide transaction left %d entries and %d key bytes of capacity", cap(w.tx.reads), cap(w.tx.keys))
	}
}
