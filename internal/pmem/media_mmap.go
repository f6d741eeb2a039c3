//go:build linux && !race

package pmem

import (
	"runtime"
	"syscall"
)

// newMedia maps n bytes of anonymous memory. The kernel materializes a page,
// zero-filled, on its first touch, so a device costs resident memory in
// proportion to what the simulation writes rather than to its capacity.
// Keeping the image off the Go heap also keeps it out of GC pacing: pages a
// log ring first touches mid-run do not grow the heap goal and trigger extra
// cycles. MAP_NORESERVE stops large, mostly untouched devices from counting
// against the overcommit limit. If the mapping fails the device falls back
// to a heap image, which behaves identically.
func newMedia(n int) *media {
	b, err := syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_PRIVATE|syscall.MAP_ANON|syscall.MAP_NORESERVE)
	if err != nil {
		return heapMedia(n)
	}
	m := &media{b: b}
	// A failed unmap only leaks address space, and a finalizer has no
	// caller to report it to.
	runtime.SetFinalizer(m, func(m *media) { _ = syscall.Munmap(m.b) })
	return m
}
