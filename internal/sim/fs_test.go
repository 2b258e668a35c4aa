package sim

import (
	"bytes"
	"errors"
	"os"
	"testing"
)

// TestMapReleasePoisons: Map hands out the file's bytes, and release
// overwrites exactly that copy with poison — a key or value kept past
// release reads poison, while the file and a later Map are untouched.
func TestMapReleasePoisons(t *testing.T) {
	fs := NewFS()
	want := []byte("log frame bytes")
	h, err := fs.Create("d/log.0")
	if err != nil {
		t.Fatal(err)
	}
	h.Write(want)
	data, release, err := fs.Map("d/log.0")
	if err != nil || !bytes.Equal(data, want) {
		t.Fatalf("Map: %q, err %v; want %q", data, err, want)
	}
	kept := data[4:9] // an alias, as a decoded key would be
	release()
	if !bytes.Equal(data, bytes.Repeat([]byte{poison}, len(want))) || kept[0] != poison {
		t.Fatalf("after release the mapped bytes read %q", data)
	}
	if again, release, _ := fs.Map("d/log.0"); !bytes.Equal(again, want) {
		t.Fatalf("a Map after release reads %q, want %q", again, want)
	} else {
		release()
	}
	if _, _, err := fs.Map("d/missing"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("Map of a missing file: %v, want not-exist", err)
	}
}
