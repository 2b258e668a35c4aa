//go:build unix

package client

import "syscall"

// sockSendBuffer reads the socket's SO_SNDBUF, 0 if it cannot.
func sockSendBuffer(raw syscall.RawConn) int {
	n := 0
	raw.Control(func(fd uintptr) {
		if v, err := syscall.GetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_SNDBUF); err == nil {
			n = v
		}
	})
	return n
}
