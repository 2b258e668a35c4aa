package catalog

import (
	"encoding/binary"
	"fmt"
	"maps"
	"reflect"
	"slices"
	"strings"
	"testing"

	"silo/internal/core"
	"silo/internal/index"
)

// refSeg, refRecord and refDecode are a second, deliberately plain reading
// of the catalog row format (see Record.Encode) for FuzzCatalogRecord to
// compare DecodeRecord with: they share no code with it. ok is false for a
// row the format does not allow.
type refSeg struct {
	fromValue bool
	xform     uint8
	off, len  uint32
}

type refRecord struct {
	kind          byte
	id            uint32
	name, on      string
	unique        bool
	spec, include []refSeg
	covering, ok  bool
}

// refCursor consumes a row field by field; a field that runs past the end
// poisons it, and every later read yields zeros.
type refCursor struct {
	p   []byte
	bad bool
}

func (c *refCursor) take(n int) []byte {
	if c.bad || n > len(c.p) {
		c.bad = true
		return make([]byte, n)
	}
	b := c.p[:n]
	c.p = c.p[n:]
	return b
}

func (c *refCursor) segs() []refSeg {
	n := int(c.take(1)[0])
	if n > 16 {
		c.bad = true
	}
	var out []refSeg
	for ; n > 0 && !c.bad; n-- {
		b := c.take(10)
		out = append(out, refSeg{b[0] != 0, b[1], binary.LittleEndian.Uint32(b[2:]), binary.LittleEndian.Uint32(b[6:])})
	}
	return out
}

func refDecode(val []byte) (r refRecord) {
	if len(val) < 8 || val[0] != 1 {
		return r
	}
	c := &refCursor{p: val[8:]}
	r.kind, r.id = val[1], binary.LittleEndian.Uint32(val[2:])
	r.name = string(c.take(int(binary.LittleEndian.Uint16(val[6:]))))
	switch r.kind {
	case KindCreateTable, KindIndexReady, KindDropIndex:
	case KindCreateIndex:
		r.on = string(c.take(int(binary.LittleEndian.Uint16(c.take(2)))))
		flags := c.take(1)[0]
		if flags&2 != 0 {
			return r // a Go key function: nothing to rebuild the index from
		}
		r.unique, r.covering = flags&1 != 0, flags&4 != 0
		r.spec, r.include = c.segs(), c.segs()
		if r.covering != (len(r.include) > 0) {
			return r
		}
	default:
		return r
	}
	r.ok = !c.bad && len(c.p) == 0
	return r
}

// asRef renders a decoded Record in refDecode's terms.
func asRef(rec Record) refRecord {
	conv := func(segs []index.Seg) []refSeg {
		var out []refSeg
		for _, s := range segs {
			out = append(out, refSeg{s.FromValue, s.Xform, uint32(s.Off), uint32(s.Len)})
		}
		return out
	}
	return refRecord{kind: rec.Kind, id: rec.ID, name: rec.Name, on: rec.On, unique: rec.Unique,
		spec: conv(rec.Spec), include: conv(rec.Include), covering: rec.Include != nil, ok: true}
}

// refIndex is one index as the reference replay holds it.
type refIndex struct {
	name, on      string
	unique        bool
	spec, include []refSeg
}

// refCatalog is a second, plain reading of what replaying catalog rows
// does to a store's schema (see ApplyCatalogRow): tables by id, indexes in
// registration order, creates awaiting their ready record, names whose
// latest record is a drop, and creates that did not construct.
type refCatalog struct {
	next    uint64
	tables  []string
	indexes []refIndex
	pending []string
	dropped map[string]bool
	broken  map[string]bool
}

// refSpecOK is the shape a key spec or include list must have to compile.
func refSpecOK(segs []refSeg) bool {
	for _, s := range segs {
		if s.len == 0 || s.xform > 3 {
			return false
		}
	}
	return len(segs) > 0
}

// apply replays one row; ok is false when replay must stop with an error.
func (m *refCatalog) apply(seq uint64, val []byte) (ok bool) {
	if seq < m.next {
		return true
	}
	r := refDecode(val)
	if seq != m.next || !r.ok {
		return false
	}
	id := slices.Index(m.tables, r.name)
	fresh := id < 0 && int(r.id) == len(m.tables)
	switch r.kind {
	case KindCreateTable:
		if !fresh {
			return false
		}
		m.tables = append(m.tables, r.name)
	case KindCreateIndex:
		if r.name == TableName || !slices.Contains(m.tables, r.on) || !(fresh || (id >= 0 && m.dropped[r.name] && uint32(id) == r.id)) {
			return false
		}
		if fresh {
			m.tables = append(m.tables, r.name)
		}
		if !refSpecOK(r.spec) || (r.include != nil && !refSpecOK(r.include)) {
			m.broken[r.name] = true
			break
		}
		m.indexes = append(m.indexes, refIndex{r.name, r.on, r.unique, r.spec, r.include})
		m.pending = append(m.pending, r.name)
		delete(m.dropped, r.name)
	case KindIndexReady:
		m.unpend(r.name)
	case KindDropIndex:
		m.indexes = slices.DeleteFunc(m.indexes, func(ix refIndex) bool { return ix.name == r.name })
		m.unpend(r.name)
		delete(m.broken, r.name)
		m.dropped[r.name] = true
	}
	m.next++
	return true
}

func (m *refCatalog) unpend(name string) {
	if i := slices.Index(m.pending, name); i >= 0 {
		m.pending = slices.Delete(m.pending, i, i+1)
	}
}

// catalogRows splits a fuzz input into rows: an 8-byte key, then a u16
// value length and the value (the last row takes whatever bytes are left).
func catalogRows(in []byte) (keys, vals [][]byte) {
	for len(in) >= 10 {
		n := min(int(binary.LittleEndian.Uint16(in[8:])), len(in)-10)
		keys, vals = append(keys, in[:8]), append(vals, in[10:10+n])
		in = in[10+n:]
	}
	return keys, vals
}

func appendRow(dst []byte, seq uint64, val []byte) []byte {
	dst = binary.BigEndian.AppendUint64(dst, seq)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(val)))
	return append(dst, val...)
}

// liveRows runs real DDL on a catalog and returns its rows in fuzz-input
// form: tables, a unique transform index, a covering index, a drop, and a
// re-create that adopts the dropped index's entry table.
func liveRows(tb testing.TB) []byte {
	opts := core.DefaultOptions(1)
	opts.ManualEpochs = true
	s := core.NewStore(opts)
	defer s.Close()
	c := New(s)
	w := s.Worker(0)
	users, _ := c.CreateTable("users")
	c.CreateTable("orders")
	spec := []index.Seg{{FromValue: true, Off: 0, Len: 4, Xform: index.XformReverse | index.XformInvert}, {Off: 0, Len: 2}}
	include := []index.Seg{{FromValue: true, Off: 4, Len: 8}}
	if _, err := c.CreateIndex(w, users, "users_ix", true, spec, nil); err != nil {
		tb.Fatal(err)
	}
	if _, err := c.CreateIndex(w, users, "users_cov", false, spec[1:], include); err != nil {
		tb.Fatal(err)
	}
	if err := c.DropIndex("users_ix"); err != nil {
		tb.Fatal(err)
	}
	if _, err := c.CreateIndex(w, users, "users_ix", false, spec, nil); err != nil {
		tb.Fatal(err)
	}
	var in []byte
	if err := w.Run(func(tx *core.Tx) error {
		in = in[:0]
		return tx.Scan(c.Table(), []byte{0}, nil, func(k, v []byte) bool {
			in = appendRow(in, binary.BigEndian.Uint64(k), v)
			return true
		})
	}); err != nil {
		tb.Fatal(err)
	}
	return in
}

// FuzzCatalogRecord fuzzes the catalog row format every Open replays. An
// input is a sequence of catalog rows. Every row's value must decode with
// DecodeRecord exactly as the plain reading (refDecode) says — the same
// rows rejected, the same fields for the rest, and a re-encoding that
// decodes back to them. The rows are then applied in order with
// ApplyCatalogRow, as recovery would, and replay must stop at the row the
// plain reading of replay (refCatalog) stops at, leave the same tables at
// the same ids, the same indexes with the same declarations and the same
// creates pending; FinishRecovery must then fail, naming the index, exactly
// when a create that did not construct was never dropped, and otherwise
// finish or roll back every pending create.
func FuzzCatalogRecord(f *testing.F) {
	live := liveRows(f)
	f.Add(live)
	f.Add(live[:len(live)/2])
	f.Add(appendRow(nil, 1, (&Record{Kind: KindCreateTable, Name: "t", ID: 1}).Encode(nil)))

	f.Fuzz(func(t *testing.T, in []byte) {
		keys, vals := catalogRows(in)
		for _, val := range vals {
			want := refDecode(val)
			rec, err := DecodeRecord(val)
			if (err == nil) != want.ok {
				t.Fatalf("DecodeRecord(%x): err %v, the format says ok=%v", val, err, want.ok)
			}
			if err != nil {
				continue
			}
			if got := asRef(rec); !reflect.DeepEqual(got, want) {
				t.Fatalf("DecodeRecord(%x) = %+v, the format holds %+v", val, got, want)
			}
			if again, err := DecodeRecord(rec.Encode(nil)); err != nil || !reflect.DeepEqual(again, rec) {
				t.Fatalf("%+v re-encoded decodes as %+v (%v)", rec, again, err)
			}
		}

		opts := core.DefaultOptions(1)
		opts.ManualEpochs = true
		s := core.NewStore(opts)
		defer s.Close()
		c := New(s)
		m := &refCatalog{next: 1, tables: []string{TableName}, dropped: map[string]bool{}, broken: map[string]bool{}}
		for i := range keys {
			seq := binary.BigEndian.Uint64(keys[i])
			err := c.ApplyCatalogRow(keys[i], vals[i])
			if ok := m.apply(seq, vals[i]); ok != (err == nil) {
				t.Fatalf("row %d (seq %d, %x): ApplyCatalogRow err %v, the plain replay says ok=%v", i, seq, vals[i], err, ok)
			}
			if err != nil {
				return // recovery stops at the first bad row
			}
		}

		var tables []string
		for _, tbl := range s.Tables() {
			tables = append(tables, tbl.Name)
		}
		if !slices.Equal(tables, m.tables) {
			t.Fatalf("tables %q, the plain replay has %q", tables, m.tables)
		}
		var indexes []refIndex
		for _, ix := range c.Indexes() {
			r := asRef(Record{On: ix.On.Name, Spec: ix.Spec, Include: ix.Include})
			indexes = append(indexes, refIndex{ix.Name, r.on, ix.Unique, r.spec, r.include})
		}
		if len(indexes)+len(m.indexes) > 0 && !reflect.DeepEqual(indexes, m.indexes) {
			t.Fatalf("indexes %+v, the plain replay has %+v", indexes, m.indexes)
		}
		if got := c.Pending(); !slices.Equal(got, m.pending) {
			t.Fatalf("pending %q, the plain replay has %q", got, m.pending)
		}

		completed, rolledBack, err := c.FinishRecovery(nil)
		broken := err != nil && strings.Contains(err.Error(), "no longer constructs")
		if broken != (len(m.broken) > 0) {
			t.Fatalf("FinishRecovery: %v; unresolved broken creates %v", err, m.broken)
		}
		if broken && !slices.ContainsFunc(slices.Collect(maps.Keys(m.broken)), func(name string) bool {
			return strings.Contains(err.Error(), fmt.Sprintf("%q", name))
		}) {
			t.Fatalf("FinishRecovery: %v names none of %v", err, m.broken)
		}
		if err == nil {
			done := slices.Sorted(slices.Values(append(completed, rolledBack...)))
			if want := slices.Sorted(slices.Values(m.pending)); !slices.Equal(done, want) {
				t.Fatalf("FinishRecovery finished %q and rolled back %q; pending were %q", completed, rolledBack, m.pending)
			}
		}
	})
}
