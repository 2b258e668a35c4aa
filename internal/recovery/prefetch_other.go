//go:build !amd64

package recovery

// prefetch is a no-op where there is no prefetch instruction wired up.
func prefetch(addr uintptr) {}
