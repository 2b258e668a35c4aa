package wire

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

// streamScan frames rows (Pairs or Entries of r) through a ScanEncoder
// appended to dst, the way the server's scan visitor does.
func streamScan(dst []byte, r *Response, max int) ([]byte, error) {
	var e ScanEncoder
	e.Begin(dst, r.Kind, max)
	feedScan(&e, r)
	return e.Finish()
}

func feedScan(e *ScanEncoder, r *Response) {
	for _, p := range r.Pairs {
		if !e.Pair(p.Key, p.Value) {
			return
		}
	}
	for _, en := range r.Entries {
		if !e.Entry(en.SK, en.PK, en.Value) {
			return
		}
	}
}

func randBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}

// scanPages generates SCANR and ISCANR row sets: the empty page, 0-length
// keys and values, keys at the 255-byte limit, and random pages.
func scanPages(rng *rand.Rand) []Response {
	pages := []Response{
		{Kind: KindScanR},
		{Kind: KindIScanR},
		{Kind: KindScanR, Pairs: []KV{{Key: nil, Value: nil}, {Key: []byte{}, Value: []byte("v")}, {Key: []byte("k"), Value: []byte{}}}},
		{Kind: KindIScanR, Entries: []IndexEntry{{}, {SK: []byte("s")}, {PK: []byte("p")}, {Value: []byte("v")}}},
		{Kind: KindScanR, Pairs: []KV{{Key: bytes.Repeat([]byte{7}, 255), Value: []byte("edge")}}},
		{Kind: KindIScanR, Entries: []IndexEntry{{SK: bytes.Repeat([]byte{1}, 255), PK: bytes.Repeat([]byte{2}, 255), Value: []byte("edge")}}},
	}
	for i := 0; i < 40; i++ {
		n := rng.Intn(120)
		p := Response{Kind: KindScanR}
		x := Response{Kind: KindIScanR}
		for j := 0; j < n; j++ {
			p.Pairs = append(p.Pairs, KV{Key: randBytes(rng, rng.Intn(63)), Value: randBytes(rng, rng.Intn(300))})
			x.Entries = append(x.Entries, IndexEntry{
				SK: randBytes(rng, rng.Intn(40)), PK: randBytes(rng, rng.Intn(63)), Value: randBytes(rng, rng.Intn(300))})
		}
		pages = append(pages, p, x)
	}
	return pages
}

// TestScanEncoderMatchesAppendResponse: for the same rows the streamed
// frame is AppendResponse's, byte for byte — behind a prefix already in
// the buffer too — and decodes back to the rows.
func TestScanEncoderMatchesAppendResponse(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for i, page := range scanPages(rng) {
		prefix := randBytes(rng, rng.Intn(9))
		want, err := AppendResponse(append([]byte(nil), prefix...), &page)
		if err != nil {
			t.Fatalf("page %d: AppendResponse: %v", i, err)
		}
		got, err := streamScan(append([]byte(nil), prefix...), &page, 0)
		if err != nil {
			t.Fatalf("page %d: streamed encode: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("page %d (%v, %d rows): streamed frame differs from AppendResponse\n got %x\nwant %x",
				i, page.Kind, len(page.Pairs)+len(page.Entries), got, want)
		}
		dec, err := DecodeResponse(frameThrough(t, got[len(prefix):]))
		if err != nil {
			t.Fatalf("page %d: DecodeResponse: %v", i, err)
		}
		if dec.Kind != page.Kind || len(dec.Pairs) != len(page.Pairs) || len(dec.Entries) != len(page.Entries) {
			t.Fatalf("page %d: decoded %v with %d pairs, %d entries", i, dec.Kind, len(dec.Pairs), len(dec.Entries))
		}
		for j, p := range page.Pairs {
			if !bytes.Equal(dec.Pairs[j].Key, p.Key) || !bytes.Equal(dec.Pairs[j].Value, p.Value) {
				t.Fatalf("page %d pair %d: decoded %x=%x", i, j, dec.Pairs[j].Key, dec.Pairs[j].Value)
			}
		}
		for j, en := range page.Entries {
			d := dec.Entries[j]
			if !bytes.Equal(d.SK, en.SK) || !bytes.Equal(d.PK, en.PK) || !bytes.Equal(d.Value, en.Value) {
				t.Fatalf("page %d entry %d: decoded %x/%x=%x", i, j, d.SK, d.PK, d.Value)
			}
		}
	}
}

// TestScanEncoderReset is the retried-transaction case: rows framed by an
// abandoned attempt (including one that tripped a row error) leave no
// trace, and the encoder reuses one buffer frame after frame.
func TestScanEncoderReset(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	pages := scanPages(rng)
	var e ScanEncoder
	var buf []byte
	for i := range pages {
		page, junk := &pages[i], &pages[rng.Intn(len(pages))] // junk rows may be of either shape
		e.Begin(buf[:0], page.Kind, 0)
		feedScan(&e, junk)
		if i%3 == 0 {
			e.Pair(bytes.Repeat([]byte{1}, 256), nil) // poison the attempt
		}
		e.Reset()
		if e.Rows() != 0 {
			t.Fatalf("page %d: %d rows after Reset", i, e.Rows())
		}
		feedScan(&e, page)
		if got, want := e.Rows(), len(page.Pairs)+len(page.Entries); got != want {
			t.Fatalf("page %d: Rows() = %d, want %d", i, got, want)
		}
		got, err := e.Finish()
		if err != nil {
			t.Fatalf("page %d: %v", i, err)
		}
		want, _ := AppendResponse(nil, page)
		if !bytes.Equal(got, want) {
			t.Fatalf("page %d: frame after Reset differs from AppendResponse", i)
		}
		buf = got
	}
}

// TestScanEncoderRowErrors: a 256-byte key is AppendResponse's error, a
// page past the cap wraps ErrFrameTooLarge; both stop the scan, stick
// until Reset, and hand the buffer back truncated.
func TestScanEncoderRowErrors(t *testing.T) {
	long := bytes.Repeat([]byte{1}, 256)
	for _, page := range []Response{
		{Kind: KindScanR, Pairs: []KV{{Key: []byte("ok"), Value: []byte("v")}, {Key: long}}},
		{Kind: KindIScanR, Entries: []IndexEntry{{SK: []byte("ok")}, {SK: long}}},
		{Kind: KindIScanR, Entries: []IndexEntry{{SK: []byte("ok")}, {PK: long}}},
	} {
		_, want := AppendResponse(nil, &page)
		if want == nil {
			t.Fatalf("AppendResponse accepted a 256-byte key in %v", page.Kind)
		}
		prefix := []byte("kept")
		got, err := streamScan(prefix, &page, 0)
		if err == nil || err.Error() != want.Error() {
			t.Errorf("%v: streamed error %v, AppendResponse's %v", page.Kind, err, want)
		}
		if !bytes.Equal(got, prefix) {
			t.Errorf("%v: failed Finish returned %q, want the %q it was given", page.Kind, got, prefix)
		}
	}

	// Rows of 1+1+4+10 = 16 payload bytes behind the 5-byte kind+count
	// header: a cap of 5+3×16 holds exactly three.
	const max = 5 + 3*16
	var e ScanEncoder
	e.Begin(nil, KindScanR, max)
	row := func() bool { return e.Pair([]byte("k"), bytes.Repeat([]byte{2}, 10)) }
	for i := 0; i < 3; i++ {
		if !row() {
			t.Fatalf("row %d refused below the cap", i)
		}
	}
	if row() || row() {
		t.Fatal("row past the cap accepted")
	}
	if _, err := e.Finish(); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("Finish past the cap: %v, want ErrFrameTooLarge", err)
	}
	e.Reset()
	for i := 0; i < 3; i++ {
		row()
	}
	frame, err := e.Finish()
	if err != nil || len(frame) != 4+max {
		t.Fatalf("three rows at the cap: %d-byte frame, %v; want %d", len(frame), err, 4+max)
	}
	if _, err := ReadFrame(bytes.NewReader(frame), max); err != nil {
		t.Fatalf("a reader with the same cap rejects the frame: %v", err)
	}
}
