//go:build unix

package vfs

import (
	"fmt"
	"os"
	"syscall"
)

// Map maps the file read-only and shared: the pages come straight from the
// page cache, faulted in as they are read. An empty file maps to no bytes.
func (osFS) Map(path string) ([]byte, func(), error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, nil, err
	}
	if st.IsDir() {
		return nil, nil, &os.PathError{Op: "map", Path: path, Err: syscall.EISDIR}
	}
	size := st.Size()
	if size == 0 {
		return nil, func() {}, nil
	}
	if int64(int(size)) != size {
		return nil, nil, &os.PathError{Op: "map", Path: path, Err: fmt.Errorf("%d bytes do not fit the address space", size)}
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, nil, &os.PathError{Op: "mmap", Path: path, Err: err}
	}
	return data, func() { syscall.Munmap(data) }, nil
}
