//go:build !unix

package client

import "syscall"

// sockSendBuffer reports no send buffer where it is not read: the reader
// then never writes.
func sockSendBuffer(syscall.RawConn) int { return 0 }
