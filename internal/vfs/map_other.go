//go:build !unix

package vfs

import "os"

// Map reads the whole file: this platform has no mmap through package
// syscall.
func (osFS) Map(path string) ([]byte, func(), error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	return data, func() {}, nil
}
