package kvstore

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

func TestBasicOps(t *testing.T) {
	s := New()
	if v := s.Get([]byte("missing")); v != nil {
		t.Fatal("found missing key")
	}
	s.Put([]byte("k"), []byte("v1"))
	if v := s.Get([]byte("k")); string(v) != "v1" {
		t.Fatalf("got %q", v)
	}
	s.Put([]byte("k"), []byte("v2"))
	if v := s.Get([]byte("k")); string(v) != "v2" {
		t.Fatalf("got %q", v)
	}
}

func TestGetInto(t *testing.T) {
	s := New()
	s.Put([]byte("k"), []byte("hello"))
	buf := make([]byte, 0, 16)
	v, ok := s.GetInto(buf, []byte("k"))
	if !ok || string(v) != "hello" {
		t.Fatalf("got %q %v", v, ok)
	}
	if _, ok := s.GetInto(nil, []byte("zz")); ok {
		t.Fatal("found missing key")
	}
}

func TestReadModifyWrite(t *testing.T) {
	s := New()
	s.Put([]byte("n"), []byte{0})
	if s.ReadModifyWrite([]byte("missing"), func([]byte) {}) {
		t.Fatal("RMW on missing key succeeded")
	}
	for i := 0; i < 10; i++ {
		s.ReadModifyWrite([]byte("n"), func(v []byte) { v[0]++ })
	}
	if v := s.Get([]byte("n")); v[0] != 10 {
		t.Fatalf("counter=%d", v[0])
	}
}

func TestScan(t *testing.T) {
	s := New()
	for i := 0; i < 20; i++ {
		s.Put([]byte(fmt.Sprintf("k%02d", i)), []byte{byte(i)})
	}
	var got []string
	s.Scan([]byte("k05"), []byte("k10"), func(k, v []byte) bool {
		got = append(got, string(k))
		return true
	})
	want := []string{"k05", "k06", "k07", "k08", "k09"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("got %v", got)
	}
}

func TestConcurrentRMW(t *testing.T) {
	s := New()
	key := []byte("counter")
	s.Put(key, make([]byte, 8))
	const (
		goroutines = 8
		per        = 5000
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				s.ReadModifyWrite(key, func(v []byte) {
					// 64-bit little-endian increment
					for j := 0; j < 8; j++ {
						v[j]++
						if v[j] != 0 {
							break
						}
					}
				})
			}
		}()
	}
	wg.Wait()
	v := s.Get(key)
	var n uint64
	for j := 7; j >= 0; j-- {
		n = n<<8 | uint64(v[j])
	}
	if n != goroutines*per {
		t.Fatalf("counter=%d want %d (lost updates)", n, goroutines*per)
	}
}

func TestConcurrentPutGet(t *testing.T) {
	s := New()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := []byte(fmt.Sprintf("g%d-%04d", g, i))
				s.Put(k, bytes.Repeat([]byte{byte(g)}, 10))
				if v := s.Get(k); v == nil {
					t.Errorf("just-written key %s missing", k)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	n := 0
	s.Scan([]byte{0}, nil, func(_, _ []byte) bool { n++; return true })
	if n != 8000 {
		t.Fatalf("scanned %d keys", n)
	}
}
