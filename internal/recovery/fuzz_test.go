package recovery

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"silo/internal/btree"
	"silo/internal/catalog"
	"silo/internal/core"
	"silo/internal/vfs"
)

// cursor consumes a byte slice field by field; a field that runs past the
// end poisons it, and every later read yields zero.
type cursor struct {
	p   []byte
	bad bool
}

func (c *cursor) take(n int) []byte {
	if c.bad || n > len(c.p) {
		c.bad = true
		return nil
	}
	b := c.p[:n]
	c.p = c.p[n:]
	return b
}

func (c *cursor) u16() int {
	if b := c.take(2); b != nil {
		return int(binary.LittleEndian.Uint16(b))
	}
	return 0
}

func (c *cursor) u32() uint32 {
	if b := c.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (c *cursor) u64() uint64 {
	if b := c.take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// refBody checks a checkpoint file's magic and CRC footer and returns a
// cursor over what lies between them.
func refBody(data []byte, magic string) (*cursor, bool) {
	if len(data) < len(magic)+5 || string(data[:len(magic)]) != magic {
		return nil, false
	}
	body, foot := data[:len(data)-5], data[len(data)-5:]
	if foot[0] != 'E' || crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(foot[1:]) {
		return nil, false
	}
	return &cursor{p: body[len(magic):]}, true
}

type refKV struct{ key, val string }

// refManifestFile is what a MANIFEST holds according to refManifest.
type refManifestFile struct {
	epoch  uint64
	parts  uint32
	schema []refKV
}

// refManifest and refPart are a second, deliberately plain reading of the
// checkpoint format (see the package comment) for the fuzz target to compare
// readManifest and loadPart with: they copy everything and share no code
// with them. ok is false for a file the format does not allow.
func refManifest(data []byte) (m refManifestFile, ok bool) {
	c, ok := refBody(data, "SPM2")
	if !ok {
		return m, false
	}
	m.epoch = c.u64()
	m.parts = c.u32()
	for n := c.u32(); n > 0 && !c.bad; n-- {
		c.u32()         // a table id and
		c.take(c.u16()) // its name, from an older writer: not used
	}
	c.u64() // total rows: informational
	for n := c.u32(); n > 0 && !c.bad; n-- {
		key := string(c.take(c.u16()))
		m.schema = append(m.schema, refKV{key, string(c.take(int(c.u32())))})
	}
	return m, !c.bad && len(c.p) == 0 && m.parts >= 1 && m.parts <= 64
}

type refRow struct {
	table    uint32
	key, val string
}

func refPart(data []byte, wantEpoch uint64) (rows []refRow, ok bool) {
	c, ok := refBody(data, "SPC1")
	if !ok {
		return nil, false
	}
	epoch := c.u64()
	c.u32() // part number: informational
	if c.bad || epoch != wantEpoch {
		return nil, false
	}
	for len(c.p) > 0 {
		if marker := c.take(1); marker[0] != 'R' {
			return nil, false
		}
		r := refRow{table: c.u32()}
		klen := c.u16()
		r.key = string(c.take(klen))
		c.take(8) // reserved TID slot
		r.val = string(c.take(int(c.u32())))
		if c.bad || klen < 1 || klen > btree.MaxKeyLen {
			return nil, false
		}
		// The ordering rule inside a part: a table's rows are one run, and
		// its keys ascend strictly.
		if n := len(rows); n > 0 && rows[n-1].table == r.table && rows[n-1].key >= r.key {
			return nil, false
		} else if n > 0 && rows[n-1].table != r.table {
			for _, prev := range rows {
				if prev.table == r.table {
					return nil, false
				}
			}
		}
		rows = append(rows, r)
	}
	return rows, true
}

// refAscendsAcrossParts is the ordering rule between parts: each table's
// keys go on ascending from one part to the next.
func refAscendsAcrossParts(parts [][]refRow) bool {
	last := map[uint32]string{}
	for _, rows := range parts {
		for _, r := range rows {
			if l, seen := last[r.table]; seen && l >= r.key {
				return false
			}
			last[r.table] = r.key
		}
	}
	return true
}

// readOnlyFS serves the files of one checkpoint set from memory.
type readOnlyFS struct {
	vfs.FS
	files map[string][]byte
}

// Map hands out a copy and poisons it on release, as the simulation's FS
// does, so a decoder that keeps a mapped byte past release is caught.
func (f readOnlyFS) Map(path string) ([]byte, func(), error) {
	data, ok := f.files[path]
	if !ok {
		return nil, nil, os.ErrNotExist
	}
	data = append([]byte(nil), data...)
	return data, func() {
		for i := range data {
			data[i] = 0xDB
		}
	}, nil
}

// schemaLog is a SchemaApplier that records what it is fed.
type schemaLog []refKV

func (l *schemaLog) ApplyCatalogRow(key, val []byte) error {
	*l = append(*l, refKV{string(key), string(val)})
	return nil
}

// fuzzTables are the tables of the store FuzzCheckpointSet stages into:
// the catalog's and the two realSet creates through it.
var fuzzTables = []string{catalog.TableName, "a", "b"}

// realSet checkpoints a small catalogStore of two tables into two parts
// and returns the set's files. The tables hold 20 rows each, under
// keys[ti], keys[ti+4], …, so each spans two leaves and each part holds a
// run of both; the catalog's two rows are the schema section, and a run
// of part 0.
func realSet(tb testing.TB, keys [][]byte) (manifest, part0, part1 []byte) {
	s, _ := catalogStore(tb, manualOpts(), fuzzTables[1:]...)
	defer s.Close()
	for ti, tbl := range s.Tables()[1:] {
		for i := 0; i < 20; i++ {
			val := []byte(fmt.Sprintf("%s-%d", tbl.Name, i))
			if i == 3 {
				val = nil
			}
			if err := s.Worker(0).Run(func(tx *core.Tx) error { return tx.Insert(tbl, keys[4*i+ti], val) }); err != nil {
				tb.Fatal(err)
			}
		}
	}
	for i := 0; i < 10; i++ {
		s.AdvanceEpoch()
	}
	res, err := WriteCheckpoint(nil, s, s.Maintenance(), tb.TempDir(), 2)
	if err != nil {
		tb.Fatal(err)
	}
	var files [3][]byte
	for i, name := range []string{manifestName, "part.0", "part.1"} {
		if files[i], err = os.ReadFile(filepath.Join(res.Path, name)); err != nil {
			tb.Fatal(err)
		}
		if len(files[i]) < 64 {
			tb.Fatalf("%s is %d bytes: the keys should spread over both parts", name, len(files[i]))
		}
	}
	return files[0], files[1], files[2]
}

// Bits of FuzzCheckpointSet's flags argument: leave the file's footer as
// the fuzzer made it. The other bits mean nothing (some corpus entries set
// them).
const (
	fuzzRawManifest = 1 << iota
	fuzzRawPart0
	fuzzRawPart1
)

// FuzzCheckpointSet fuzzes the checkpoint decoders, readManifest and
// stagePart, through loadCheckpointSet and the build of what it staged. An
// input is the three files of a two-part set; unless flags says otherwise
// the harness recomputes each file's CRC footer, so mutations reach the
// table-list, schema and row parsers instead of dying at the checksum. For
// any input the decoders must not panic or read out of bounds, must accept
// exactly the sets the plain reading of the format (refManifest, refPart,
// refAscendsAcrossParts) accepts — ordering rule included, and telling a
// torn set, which recovery falls back from, from one whose part names a
// table the store does not hold, which it must not — must feed the applier
// exactly the manifest's schema rows, and must install all the rows of an
// accepted set and none of a rejected one. The seeds include the real set
// with the table list the writer once filled in (withTableList).
func FuzzCheckpointSet(f *testing.F) {
	manifest, part0, part1 := realSet(f, binKeys(80))
	f.Add(manifest, part0, part1, uint8(0))
	f.Add(manifest, part0, part1, uint8(fuzzRawManifest|fuzzRawPart0|fuzzRawPart1))
	f.Add(withTableList(manifest, fuzzTables), part0, part1, uint8(0))
	for _, cut := range []int{5, 12, 21, 30, len(manifest) / 2, len(manifest) - 6} {
		f.Add(manifest[:cut], part0, part1, uint8(0))
	}
	for _, cut := range []int{5, 16, 21, 24, 40, len(part0) / 2, len(part0) - 6} {
		f.Add(manifest, part0[:cut], part1, uint8(0))
		f.Add(manifest, part1, part0[:cut], uint8(fuzzRawPart1))
	}
	// Sets whose keys the words do not order alone (keyShapes).
	for i, sh := range keyShapes {
		m, p0, p1 := realSet(f, sh.keys(rand.New(rand.NewSource(int64(i))), 80))
		f.Add(m, p0, p1, uint8(0))
	}

	f.Fuzz(func(t *testing.T, manifest, part0, part1 []byte, flags uint8) {
		files := [][]byte{manifest, part0, part1}
		for i, data := range files {
			if flags&(1<<i) == 0 && len(data) >= 5 {
				data = append([]byte(nil), data...)
				foot := data[len(data)-5:]
				foot[0] = 'E'
				binary.LittleEndian.PutUint32(foot[1:], crc32.ChecksumIEEE(data[:len(data)-5]))
				files[i] = data
			}
		}

		// What the format says.
		const (
			accepted = iota
			torn
			undeclared
		)
		want := accepted
		m, ok := refManifest(files[0])
		if !ok {
			want = torn
		}
		var parts [][]refRow
		if want == accepted {
			parts = make([][]refRow, m.parts)
			for k := int(m.parts) - 1; k >= 0; k-- { // the first part to fail names the error
				partOK := false
				if k < 2 {
					parts[k], partOK = refPart(files[1+k], m.epoch)
				}
				if !partOK {
					want = torn
				}
				for _, r := range parts[k] {
					if partOK && int(r.table) >= len(fuzzTables) {
						want = undeclared
					}
				}
			}
		}
		if want == accepted && !refAscendsAcrossParts(parts) {
			want = torn
		}
		// All rows of an accepted set, none of a rejected one.
		install := map[refRow]bool{}
		if want == accepted {
			for _, rows := range parts {
				for _, r := range rows {
					install[r] = true
				}
			}
		}

		// What the decoders do. The applier only records, so the store
		// holds the tables already, created directly.
		s := core.NewStore(manualOpts())
		for _, name := range fuzzTables {
			s.CreateTable(name)
		}
		fs := readOnlyFS{files: map[string][]byte{
			filepath.Join("ck", manifestName): files[0],
			filepath.Join("ck", "part.0"):     files[1],
			filepath.Join("ck", "part.1"):     files[2],
		}}
		var fed schemaLog
		ck, err := loadCheckpointSet(fs, s, "ck", 2, &fed)
		if err == nil {
			build(s, &ck, nil, nil, 2, &Result{})
			ck.release()
		}
		epoch, rows := ck.epoch, ck.rows
		got := accepted
		switch {
		case errors.Is(err, errTorn):
			got = torn
		case err != nil:
			got = undeclared
		}
		if got != want {
			t.Fatalf("loadCheckpointSet: outcome %d (err %v), the format says %d", got, err, want)
		}
		if ok {
			if len(fed) != len(m.schema) {
				t.Fatalf("applier fed %d schema rows, the manifest holds %d", len(fed), len(m.schema))
			}
			for i := range fed {
				if fed[i] != m.schema[i] {
					t.Fatalf("schema row %d: applier fed %q, the manifest holds %q", i, fed[i], m.schema[i])
				}
			}
		} else if len(fed) != 0 {
			t.Fatalf("applier fed %d schema rows of a rejected manifest", len(fed))
		}
		keys := map[refRow]bool{}
		for r := range install {
			keys[refRow{table: r.table, key: r.key}] = true
		}
		held := 0
		for ti, tbl := range s.Tables() {
			for k, v := range dump(t, s, tbl) {
				held++
				if !install[refRow{uint32(ti), k, v}] {
					t.Fatalf("table %d holds %x=%x, which no accepted part does", ti, k, v)
				}
			}
		}
		if held != len(keys) {
			t.Fatalf("store holds %d rows, the accepted parts hold %d distinct keys", held, len(keys))
		}
		if want == accepted && (epoch != m.epoch || rows != held) {
			t.Fatalf("loaded epoch %d with %d rows, want %d with %d", epoch, rows, m.epoch, held)
		}
	})
}

// withTableList returns manifest, as the writer makes it, with the table
// list filled in as older writers filled it — each of tables at its index
// as id — and its footer recomputed.
func withTableList(manifest []byte, tables []string) []byte {
	const at = 4 + 8 + 4 // magic, CE, nparts
	out := append([]byte(nil), manifest[:at]...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(tables)))
	for id, name := range tables {
		out = binary.LittleEndian.AppendUint32(out, uint32(id))
		out = binary.LittleEndian.AppendUint16(out, uint16(len(name)))
		out = append(out, name...)
	}
	out = append(out, manifest[at+4:len(manifest)-5]...)
	out = append(out, 'E')
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out[:len(out)-1]))
}
